"""Per-layer timers for the traced run.

:class:`Tracer` wraps the public entry points of each ``repro`` layer
with timers that live in the benchmark, not in the program: entering
the tracer replaces the functions, leaving it restores them.  Pool
workers are forked after the wrappers go in, so they run them too; a
worker appends its records to a file of its own under the build
directory, and the parent reads those files when the tracer closes.
Field evaluation is timed at its outermost call per thread only, so
nested entry points are never counted twice.

:func:`per_layer` turns the records, the rounds' engine counters and
the program's ``MetricsRegistry`` into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import shutil
import threading
from collections import defaultdict

from probes import CLOCK


def _targets():
    """(owner, attribute, recorder name) for every timed entry point."""
    import repro.avatar.reconstructor as reconstructor
    import repro.geometry.sdf as sdf
    from repro.avatar.implicit import PosedBodyField
    from repro.avatar.store import AvatarStore
    from repro.compression.lzma_codec import KeypointPayloadCodec
    from repro.core.keypoint_pipeline import KeypointSemanticPipeline
    from repro.gaze.lod import GazeDepthBudget
    from repro.keypoints.detector3d import Keypoint3DDetector
    from repro.keypoints.fitting import PoseFitter
    from repro.serve.cache import MeshCache

    return [
        (KeypointSemanticPipeline, "encode", "core.encode"),
        (Keypoint3DDetector, "detect", "keypoints.detect"),
        (PoseFitter, "fit", "keypoints.fit"),
        (KeypointPayloadCodec, "decompress", "compression.decompress"),
        (reconstructor, "extract_surface", "geometry.extract"),
        (reconstructor, "extract_surface_octree", "geometry.extract"),
        (GazeDepthBudget, "target_depths", "gaze.target_depths"),
        (MeshCache, "put", "serve.cache.put"),
        (AvatarStore, "get", "avatar.store.lookup"),
        (AvatarStore, "load", "avatar.store.load"),
        (MeshCache, "key", "serve.cache.lookup"),
        (MeshCache, "get", "serve.cache.lookup"),
        (PosedBodyField, "__call__", "geometry.field_eval"),
        (sdf, "evaluate_batch", "geometry.field_eval"),
    ]


class Tracer:
    """Installs the layer timers for the duration of a ``with`` block;
    records add up over every block the same tracer is entered for.

    Args:
        build_dir: directory for the workers' record files.
    """

    def __init__(self, build_dir: str) -> None:
        self.dir = os.path.join(build_dir, f"trace-{os.getpid()}")
        self.owner = os.getpid()
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.values = defaultdict(float)
        self.inflight_max = 0
        self._saved = []
        self._local = threading.local()
        self._submitted = {}
        self._registry_start = {}
        self.registry_delta = defaultdict(float)

    # -- recording -------------------------------------------------

    def record(self, name: str, seconds: float = 0.0, calls: int = 1,
               **values) -> None:
        if os.getpid() == self.owner:
            self.seconds[name] += seconds
            self.calls[name] += calls
            for key, value in values.items():
                self.values[key] += value
            return
        # A pool worker: one line per record, read back at close.
        extra = "".join(f" {k}={v}" for k, v in values.items())
        with open(os.path.join(self.dir, f"{os.getpid()}.txt"), "a") as f:
            f.write(f"{name} {seconds!r} {calls}{extra}\n")

    def _read_worker_files(self) -> None:
        for entry in sorted(os.listdir(self.dir)):
            with open(os.path.join(self.dir, entry)) as handle:
                for line in handle:
                    name, seconds, calls, *extra = line.split()
                    self.seconds[name] += float(seconds)
                    self.calls[name] += int(calls)
                    for item in extra:
                        key, value = item.split("=")
                        self.values[key] += float(value)

    # -- wrappers --------------------------------------------------

    def _timed(self, function, name: str):
        if name == "geometry.field_eval":
            return self._timed_outermost(function, name)
        # A cache lookup is ``key`` then ``get``; only ``get`` counts.
        calls = 0 if function.__name__ == "key" else 1

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start = CLOCK.perf_counter()
            result = function(*args, **kwargs)
            self.record(name, CLOCK.perf_counter() - start, calls=calls)
            return result

        return wrapper

    def _timed_outermost(self, function, name: str):
        local = self._local

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            start = CLOCK.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                local.depth = depth
                if depth == 0:
                    self.record(name, CLOCK.perf_counter() - start)

        return wrapper

    def _compress(self, function):
        @functools.wraps(function)
        def wrapper(codec, payload):
            start = CLOCK.perf_counter()
            blob = function(codec, payload)
            self.record(
                "compression.compress", CLOCK.perf_counter() - start,
                payload_bytes=len(blob),
            )
            return blob

        return wrapper

    def _reconstruct(self, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start = CLOCK.perf_counter()
            result = function(*args, **kwargs)
            self.record(
                "avatar.reconstruct", CLOCK.perf_counter() - start,
                field_evaluations=result.field_evaluations,
                warm_started=int(result.warm_started),
                faces=result.mesh.num_faces,
            )
            return result

        return wrapper

    def _submit(self, function):
        @functools.wraps(function)
        def wrapper(engine, *args, **kwargs):
            start = CLOCK.perf_counter()
            ticket = function(engine, *args, **kwargs)
            end = CLOCK.perf_counter()
            self.record("serve.submit", end - start)
            self._submitted[ticket.ticket_id] = end
            if engine.pool is not None:
                self.inflight_max = max(
                    self.inflight_max, engine.pool.inflight
                )
            return ticket

        return wrapper

    def _collect(self, function):
        @functools.wraps(function)
        def wrapper(engine, ticket):
            start = CLOCK.perf_counter()
            decoded = function(engine, ticket)
            end = CLOCK.perf_counter()
            self.record("serve.collect_wait", end - start)
            stages = decoded.timing.stages
            if ticket.mode in ("pool", "store_pool"):
                # Submit-to-held time the worker did not spend
                # computing: queue wait, IPC and the shared-memory copy.
                compute = stages.get(
                    "mesh_reconstruction", stages.get("store_repose", 0.0)
                )
                submitted = self._submitted.pop(ticket.ticket_id, start)
                self.record("serve.pool.overhead",
                            end - submitted - compute)
            else:
                self._submitted.pop(ticket.ticket_id, None)
            if decoded.metadata.get("store_hit"):
                self.record(
                    "avatar.store.repose", stages.get("store_repose", 0.0)
                )
            return decoded

        return wrapper

    # -- install / remove ------------------------------------------

    def _replace(self, owner, attribute: str, wrapper) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def __enter__(self) -> "Tracer":
        from repro.avatar.reconstructor import KeypointMeshReconstructor
        from repro.compression.lzma_codec import KeypointPayloadCodec
        from repro.obs.registry import get_registry
        from repro.serve.engine import ServingEngine

        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        for owner, attribute, name in _targets():
            function = owner.__dict__[attribute]
            self._replace(owner, attribute, self._timed(function, name))
        self._replace(
            KeypointPayloadCodec, "compress",
            self._compress(KeypointPayloadCodec.compress),
        )
        self._replace(
            KeypointMeshReconstructor, "reconstruct",
            self._reconstruct(KeypointMeshReconstructor.reconstruct),
        )
        self._replace(
            ServingEngine, "submit", self._submit(ServingEngine.submit)
        )
        self._replace(
            ServingEngine, "collect", self._collect(ServingEngine.collect)
        )
        self._registry_start = dict(get_registry().snapshot("session."))
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.obs.registry import get_registry

        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()
        for name, value in get_registry().snapshot("session.").items():
            if isinstance(value, (int, float)):
                self.registry_delta[name] += (
                    value - self._registry_start.get(name, 0)
                )
        self._read_worker_files()
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- reading ---------------------------------------------------

    def ms_per_call(self, name: str) -> float:
        calls = self.calls[name]
        return self.seconds[name] / calls * 1000.0 if calls else 0.0

    def per_call(self, value: str, name: str) -> float:
        calls = self.calls[name]
        return self.values[value] / calls if calls else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer: Tracer, rounds, workload, overhead_pct: float):
    """The per-layer metrics of the traced rounds, by name and unit.

    A layer the workload never enters reads 0 (for example the avatar
    store outside ``returning-r128``).
    """
    serving = defaultdict(float)
    for r in rounds:
        for key, value in r.serving.items():
            if isinstance(value, (int, float)):
                serving[key] += value
    sender_frames = len(rounds) * workload.sender_frames
    extract_calls = tracer.calls["geometry.extract"]
    extract_ms = tracer.ms_per_call("geometry.extract")
    field_ms = _ratio(
        tracer.seconds["geometry.field_eval"] * 1000.0, extract_calls
    )
    lookups = serving["cache_hits"] + serving["cache_misses"]
    store_lookups = serving["store_hits"] + serving["store_misses"]
    ms = "ms"
    return {
        "core.encode_ms": (tracer.ms_per_call("core.encode"), ms),
        "keypoints.detect_ms": (tracer.ms_per_call("keypoints.detect"), ms),
        "keypoints.fit_ms": (tracer.ms_per_call("keypoints.fit"), ms),
        "compression.compress_ms": (
            tracer.ms_per_call("compression.compress"), ms
        ),
        "compression.decompress_ms": (
            tracer.ms_per_call("compression.decompress"), ms
        ),
        "compression.payload_bytes": (
            tracer.per_call("payload_bytes", "compression.compress"),
            "bytes",
        ),
        "avatar.reconstruct_ms": (
            tracer.ms_per_call("avatar.reconstruct"), ms
        ),
        "avatar.field_evals_per_frame": (
            tracer.per_call("field_evaluations", "avatar.reconstruct"),
            "count",
        ),
        "avatar.warm_start_ratio": (
            tracer.per_call("warm_started", "avatar.reconstruct"), "ratio"
        ),
        "geometry.extract_ms": (extract_ms, ms),
        "geometry.field_eval_ms": (field_ms, ms),
        "geometry.extract_self_ms": (
            extract_ms - field_ms if extract_calls else 0.0, ms
        ),
        "geometry.faces_per_frame": (
            tracer.per_call("faces", "avatar.reconstruct"), "count"
        ),
        "gaze.target_depths_ms": (
            tracer.ms_per_call("gaze.target_depths"), ms
        ),
        "gaze.cells_skipped_per_frame": (
            _ratio(
                tracer.registry_delta.get(
                    "session.extract.cells_skipped_gaze", 0
                ),
                sender_frames,
            ),
            "count",
        ),
        "serve.submit_ms": (tracer.ms_per_call("serve.submit"), ms),
        "serve.collect_wait_ms": (
            tracer.ms_per_call("serve.collect_wait"), ms
        ),
        "serve.pool.overhead_ms": (
            tracer.ms_per_call("serve.pool.overhead"), ms
        ),
        "serve.pool.batch_size": (
            _ratio(serving["batch_sum"], serving["batch_count"]), "jobs"
        ),
        "serve.pool.inflight_max": (float(tracer.inflight_max), "jobs"),
        "serve.worker_cpu_ms_per_frame": (
            _ratio(
                sum(r.cpu_workers_s for r in rounds) * 1000.0,
                sum(r.displays for r in rounds),
            ),
            ms,
        ),
        "serve.cache.hit_ratio": (
            _ratio(serving["cache_hits"], lookups), "ratio"
        ),
        "serve.cache.lookup_ms": (
            tracer.ms_per_call("serve.cache.lookup"), ms
        ),
        "serve.cache.put_ms": (tracer.ms_per_call("serve.cache.put"), ms),
        "serve.cache.mb": (
            _ratio(serving["cache_capacity_bytes"], len(rounds)) / 2**20,
            "MB",
        ),
        "serve.reconstructions_per_frame": (
            _ratio(serving["reconstructions"], sender_frames), "count"
        ),
        "avatar.store.lookup_ms": (
            tracer.ms_per_call("avatar.store.lookup"), ms
        ),
        "avatar.store.hit_ratio": (
            _ratio(serving["store_hits"], store_lookups), "ratio"
        ),
        "avatar.store.repose_ms": (
            tracer.ms_per_call("avatar.store.repose"), ms
        ),
        "avatar.store.load_s": (
            tracer.ms_per_call("avatar.store.load") / 1000.0, "s"
        ),
        "obs.trace_overhead_pct": (overhead_pct, "%"),
    }
