"""Seeded workload inputs, generated before any timing starts.

The capture rig and its renderer are the camera simulator, not the
system under test, so every frame a workload will send is rendered
here up front and handed to the program through :class:`Capture`,
which serves the pre-rendered frames in place of a live
:class:`repro.capture.dataset.RGBDSequenceDataset`.

A capture that does not depend on ``--seed`` (a workload's reference
capture) is kept on disk once rendered, compressed frame by frame and
named by a hash of the code that renders it, so it is rendered once
per checkout and code version rather than once per run.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import os
import pickle
import zlib
from typing import List, Optional

import numpy as np

from repro.body.model import BodyModel
from repro.body.motion import talking
from repro.capture.dataset import DatasetFrame, RGBDSequenceDataset

from probes import CLOCK

# Point-splat density of the simulated depth cameras.  At 1 sample per
# pixel a frame renders in ~0.11 s; the default 4 costs ~0.4 s and
# would spend most of a run's budget inside the simulator.
SAMPLES_PER_PIXEL = 1.0


def derive_seed(seed: int, *labels) -> int:
    """Stable sub-seed for one input stream of a workload."""
    text = ":".join([str(seed), *map(str, labels)])
    return zlib.crc32(text.encode("utf-8")) % (2**31)


class Capture:
    """Pre-rendered capture frames behind the dataset interface the
    sessions read (``len``, ``fps``, ``frame``).

    Each ``frame`` call is the moment the program receives a captured
    frame; the call time is kept per index as the start of that
    frame's latency.
    """

    def __init__(self, frames: List[DatasetFrame], fps: float) -> None:
        self.frames = frames
        self.fps = fps
        self.received_at = {}
        #: optional ``on_frame(index)`` the benchmark runs first.
        self.on_frame = None

    def __len__(self) -> int:
        return len(self.frames)

    def frame(self, index: int) -> DatasetFrame:
        if self.on_frame is not None:
            self.on_frame(index)
        self.received_at[index] = CLOCK.perf_counter()
        return self.frames[index]


def stream_inputs(model: BodyModel, seed: int, workload: str,
                  stream: int, frames: int,
                  cache: Optional[str] = None) -> "Capture":
    """The capture of one sender stream.

    The motion is part of the workload: a ``talking`` clip whose phase
    is fixed by the stream number.  ``seed`` draws the capture's sensor
    noise.  With ``cache`` (a directory) the capture is read from there
    when this code rendered it before, and kept there otherwise.
    """
    noise = derive_seed(seed, workload, stream)
    if cache is None:
        return render(model, talking(n_frames=frames, seed=stream), noise)
    path = os.path.join(
        cache, f"{workload}-{stream}-{noise}-{frames}-{code_digest()}.bin"
    )
    if os.path.exists(path):
        return _load(path)
    capture = render(model, talking(n_frames=frames, seed=stream), noise)
    # Copies an earlier version of the code rendered are stale.
    for stale in glob.glob(os.path.join(cache, f"{workload}-{stream}-*")):
        os.remove(stale)
    _save(capture, path)
    return capture


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """Hash of every source file of the program and the benchmark,
    and of the NumPy version that renders with them."""
    here = os.path.dirname(os.path.abspath(__file__))
    roots = [os.path.join(os.path.dirname(here), "src", "repro"), here]
    digest = hashlib.blake2b(digest_size=8)
    digest.update(np.__version__.encode())
    for root in roots:
        for folder, dirs, files in os.walk(root):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def _save(capture: "Capture", path: str) -> None:
    """Write the frames one compressed pickle at a time (the rendered
    images are mostly background: ~12 MB a frame packs to ~1 MB)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    partial = f"{path}.{os.getpid()}"
    with open(partial, "wb") as handle:
        pickle.dump((capture.fps, len(capture.frames)), handle)
        for frame in capture.frames:
            pickle.dump(zlib.compress(pickle.dumps(frame), 1), handle)
    os.replace(partial, path)


def _load(path: str) -> "Capture":
    with open(path, "rb") as handle:
        fps, count = pickle.load(handle)
        frames = [
            pickle.loads(zlib.decompress(pickle.load(handle)))
            for _ in range(count)
        ]
    return Capture(frames, fps)


def render(model: BodyModel, motion, seed: int) -> Capture:
    """Render every frame of ``motion`` through the default rig."""
    dataset = RGBDSequenceDataset(
        model=model,
        motion=motion,
        seed=seed,
        samples_per_pixel=SAMPLES_PER_PIXEL,
    )
    frames = [dataset.frame(index) for index in range(len(dataset))]
    return Capture(frames, dataset.fps)
