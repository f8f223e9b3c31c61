"""The four workloads, each driven in whole rounds.

A round is one cold start of the workload's system followed by a fixed
number of closed-loop frames: the next frame starts only after the
previous one is displayed (for the meeting and the webinar, after the
whole tick or frame).  Its time from the first call into the program to
the first displayed frame is one ``setup_s`` sample; the frames after
that are the steady phase.  Every timed round replays the same seeded
inputs, so every timed round attempts exactly the same operations and
yields exactly the same meshes; a fresh engine per round keeps one
round's cache and store from serving the next.

The first round of a run is the checked round.  It runs on the
workload's reference capture, whose sensor noise is fixed rather than
drawn from ``--seed``, applies every output check in ``checks`` and
scores ``chamfer_mm`` and ``wire_kbps``; its timings are discarded.
The Chamfer distance of one clip is a property of its noise draw: over
seeds it spreads far wider than any useful regression bound, so
quality is scored on the same draw in every run.  The first timed round
holds the sampled outputs of the seeded inputs to the same oracle after
its timing closes, and records the fingerprints the later timed rounds
must reproduce.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.avatar.store import AvatarStore
from repro.body.model import BodyModel
from repro.compression.lzma_codec import KeypointPayloadCodec
from repro.core.keypoint_pipeline import KeypointSemanticPipeline
from repro.core.multiparty import MultiPartySession, Participant
from repro.core.session import TelepresenceSession
from repro.geometry.distance import chamfer_distance
from repro.net.link import NetworkLink
from repro.net.trace import BandwidthTrace
from repro.serve.broadcast import BroadcastReceiver, BroadcastSession
from repro.serve.config import ServingConfig
from repro.serve.engine import ServingEngine

import checks
from inputs import Capture, stream_inputs
from probes import CLOCK, cpu_between, cpu_seconds, pss_mb, worker_pids

# Chamfer sampling: enough surface points for a steady mean, few
# enough that the checked round stays a small share of a run.
CHAMFER_SAMPLES = 2000

# The simulated keypoint network's noise seed is the sender's own
# configuration (stream k of a workload uses DETECTOR_SEED + k), not an
# input: ``--seed`` draws only what the cameras deliver.  Fit-error
# episodes from the detector's outliers last many frames; drawn from
# ``--seed`` as well, they spread ``chamfer_mm`` of the 48-frame call
# by up to 0.36 (quartile distance over median) across ten seeds.
DETECTOR_SEED = 0

# The camera-noise seed of every workload's reference capture.  On the
# 48-frame call, ``chamfer_mm`` of five noise draws read 25.7-33.0 mm;
# scored on the seeded capture it spread 0.14-0.16 (quartile distance
# over median) across ten seeds on the call and up to 0.24 on the
# webinar, so it is scored on this one draw.
REFERENCE_SEED = 0


@dataclass
class Round:
    """What one round measured."""

    setup_s: float = 0.0
    steady_s: float = 0.0
    displays: int = 0
    latencies: List[float] = field(default_factory=list)
    cpu_own_s: float = 0.0
    cpu_workers_s: float = 0.0
    pss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    fingerprints: List[tuple] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    # Filled by the checked round only.
    wire_kbps: float = 0.0
    chamfer_m: List[float] = field(default_factory=list)
    serving: Dict[str, float] = field(default_factory=dict)


class Stopwatch:
    """Marks a round's phases on the benchmark's own clock."""

    def __init__(self) -> None:
        self.start = CLOCK.perf_counter()
        self.first: Optional[float] = None
        self.last: Optional[float] = None
        self._cpu_first = None
        self._cpu_last = None
        self.pss = 0.0

    def first_display(self, now: float) -> None:
        self.first = now
        self._cpu_first = cpu_seconds(worker_pids())

    def last_display(self, now: float) -> None:
        self.last = now
        pids = worker_pids()
        self._cpu_last = cpu_seconds(pids)
        self.pss = pss_mb(pids)

    def fill(self, result: Round) -> None:
        result.setup_s = self.first - self.start
        result.steady_s = self.last - self.first
        own, workers = cpu_between(self._cpu_first, self._cpu_last)
        result.cpu_own_s = own
        result.cpu_workers_s = workers
        result.pss_mb = self.pss


def observe_collects(engine: ServingEngine, on_collect) -> None:
    """Call ``on_collect(ticket, decoded, now)`` each time ``engine``
    hands a receiver its mesh.  Only this engine instance is wrapped;
    serving itself is unchanged."""
    collect = engine.collect

    def observed(ticket):
        decoded = collect(ticket)
        on_collect(ticket, decoded, CLOCK.perf_counter())
        return decoded

    engine.collect = observed


def _engine_facts(engine: ServingEngine) -> Dict[str, float]:
    """The engine's counters plus its coalescing histogram totals,
    read before the engine closes."""
    facts = engine.serving_summary()
    batches = engine.metrics.snapshot("serve.pool.batch.size").get(
        "serve.pool.batch.size", {"count": 0, "sum": 0.0}
    )
    facts["batch_count"] = batches["count"]
    facts["batch_sum"] = batches["sum"]
    return facts


def _lossless_link(seed: int) -> NetworkLink:
    """A lossless 25 Mbps path; its modeled delay never enters a
    measured latency."""
    return NetworkLink(trace=BandwidthTrace.constant(25.0), seed=seed)


def _decode_payload(payload: bytes):
    return KeypointPayloadCodec().decompress(payload)


def _kbps(payload_bytes, fps: float) -> float:
    """Sender payload kilobits per second of capture time."""
    return float(np.mean(payload_bytes)) * 8.0 * fps / 1000.0


def _chamfer(mesh, frame) -> float:
    """Chamfer distance (metres) from a displayed mesh to the clothed
    ground-truth surface its capture frame was rendered from."""
    return chamfer_distance(
        mesh, frame.ground_truth_mesh, samples=CHAMFER_SAMPLES, seed=0
    )


def _sampled(frames: int) -> List[int]:
    """Frames whose meshes the checked round holds to the oracle."""
    return sorted({0, frames // 2, frames - 1})


def _check_display(frames: int, index: int, mesh, payload_bytes: bytes,
                   edge, label: str) -> List[str]:
    """Every displayed mesh is non-empty; on sampled frames every
    vertex also lies within ``edge(payload)`` of the oracle surface."""
    if index not in _sampled(frames):
        return [] if mesh.num_faces else [f"{label}: empty mesh"]
    payload = _decode_payload(payload_bytes)
    return checks.check_mesh(mesh, payload, edge(payload), label)


class Workload:
    """Shared shape of a workload: seeded inputs, then rounds."""

    name = ""
    resolution = 0
    frames = 0             # frames (ticks) per round
    displays_per_frame = 1  # receiver displays per frame tick

    @property
    def sender_frames(self) -> int:
        """Frames the senders encode in one round."""
        return self.frames

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        # Fingerprints of the first timed round, once it has run.
        self.verified: Optional[List[tuple]] = None
        self.verified_failed = 0

    def inputs(self, model: BodyModel, seed: int,
               cache: Optional[str] = None):
        """The workload's capture, camera noise drawn from ``seed``
        (see ``inputs.stream_inputs`` for ``cache``)."""
        raise NotImplementedError

    def prepare(self, model: BodyModel) -> None:
        """Render (or read back) the reference capture the checked
        round runs on."""
        self.model = model
        self.reference = self.inputs(
            model, REFERENCE_SEED, os.path.join(self.workdir, "inputs")
        )

    def prepare_timed(self) -> None:
        """Let the reference capture go, then render the seeded one the
        timed rounds replay, so the two are never held at once."""
        self.reference = None
        self.seeded = self.inputs(self.model, self.seed)

    def run_round(self, check: bool) -> Round:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def first_timed(self, check: bool) -> bool:
        """Whether this is the timed round whose sampled outputs are
        checked and whose fingerprints the later ones reproduce."""
        return not check and self.verified is None

    def finish_round(self, result: Round, check: bool) -> Round:
        """Checked round: keep its failure count.  First timed round:
        keep its fingerprints.  Later timed rounds: demand the same
        outputs.  Only ``returning-r128`` fails frames, and its
        reference capture is its seeded capture, so every round fails
        the checked round's frames."""
        if check:
            self.verified_failed = result.failed
            return result
        if self.verified is None:
            self.verified = list(result.fingerprints)
            result.problems += checks.check_nonempty(
                self.verified, self.name
            )
        else:
            result.problems += checks.check_fingerprints(
                result.fingerprints, self.verified, self.name
            )
        result.failed = self.verified_failed
        return result


class _OneToOne(Workload):
    """One sender, one receiver, driven through the session stepper."""

    def inputs(self, model: BodyModel, seed: int,
               cache: Optional[str] = None) -> Capture:
        return stream_inputs(model, seed, self.name, 0, self.frames, cache)

    def make_engine(self) -> Optional[ServingEngine]:
        return None

    def run_round(self, check: bool) -> Round:
        result = Round()
        capture = self.reference if check else self.seeded
        watch = Stopwatch()
        engine = self.make_engine()
        try:
            session = TelepresenceSession(
                capture,
                KeypointSemanticPipeline(
                    resolution=self.resolution, seed=DETECTOR_SEED
                ),
                link=_lossless_link(DETECTOR_SEED),
                serving=engine,
            )
            stepper = session.stepper(frames=self.frames)
            for index in range(self.frames):
                report = stepper.step()
                now = CLOCK.perf_counter()
                if index == 0:
                    watch.first_display(now)
                else:
                    result.latencies.append(
                        now - capture.received_at[index]
                    )
                if report.decoded is not None:
                    result.fingerprints.append(
                        checks.fingerprint(report.decoded.surface)
                    )
            watch.last_display(CLOCK.perf_counter())
            stepper.finish()
            if engine is not None:
                result.serving = _engine_facts(engine)
        finally:
            if engine is not None:
                engine.close()
        watch.fill(result)
        result.attempted = self.frames
        result.displays = self.frames - 1
        fresh = sum(1 for r in session.reports if r.displayed_fresh)
        result.problems += checks.check_fresh(
            self.frames, fresh, self.name
        )
        if engine is not None:
            result.problems += checks.check_accounting(
                result.serving, self.name
            )
        if check:
            self.check_outputs(session, capture, result)
        elif self.first_timed(check):
            self.check_sampled(session, result)
        return self.finish_round(result, check)

    def check_outputs(self, session, capture, result: Round) -> None:
        history = session.link.history
        result.wire_kbps = _kbps(
            [r.payload_bytes for r in session.reports], capture.fps
        )
        for index, report in enumerate(session.reports):
            if report.decoded is None:
                continue
            mesh = report.decoded.surface
            result.problems += self.check_frame(
                index, mesh, history[index].payload,
                report.decoded.metadata, result,
            )
            result.chamfer_m.append(_chamfer(mesh, capture.frames[index]))

    def check_sampled(self, session, result: Round) -> None:
        """The first timed round's sampled frames, after its timing."""
        history = session.link.history
        for index in _sampled(self.frames):
            decoded = session.reports[index].decoded
            if decoded is None:
                continue  # check_fresh has reported it
            result.problems += self.check_frame(
                index, decoded.surface, history[index].payload,
                decoded.metadata, Round(),
            )

    def check_frame(self, index, mesh, payload_bytes, metadata,
                    result) -> List[str]:
        return _check_display(
            self.frames, index, mesh, payload_bytes,
            lambda payload: checks.voxel_edge(payload, self.resolution),
            f"{self.name} frame {index}",
        )


class Call(_OneToOne):
    """call-r128: one sender, one receiver, no serving engine."""

    name = "call-r128"
    resolution = 128
    frames = 48


class Returning(_OneToOne):
    """returning-r128: a returning user served from the avatar store.

    The user, the motion and the detector noise are fixed, not drawn
    from ``--seed``: under the store's defaults a hit can break the
    store's own tolerance, and which hits do depends on the poses, so
    only fixed inputs fail the same frames in every run.  The seeded
    capture is therefore the reference capture.
    """

    name = "returning-r128"
    resolution = 128
    frames = 40
    first_visit_frames = 3
    fixed_seed = 20231128

    def inputs(self, model: BodyModel, seed: int,
               cache: Optional[str] = None) -> Capture:
        return super().inputs(model, self.fixed_seed, cache)

    def prepare_timed(self) -> None:
        self.seeded, self.reference = self.reference, None

    def prepare(self, model: BodyModel) -> None:
        super().prepare(model)
        # The first visit: the same person earlier, in another clip.
        visit = stream_inputs(
            model, self.fixed_seed, "first-visit", 1,
            self.first_visit_frames,
        )
        self.snapshot = os.path.join(
            self.workdir, f"avatars-{os.getpid()}.npz"
        )
        with ServingEngine(ServingConfig(store=True)) as engine:
            TelepresenceSession(
                visit,
                KeypointSemanticPipeline(
                    resolution=self.resolution, seed=DETECTOR_SEED
                ),
                serving=engine,
            ).run()
            engine.save_store(self.snapshot)
        # Validation only reads the tolerance; this store holds nothing.
        self.checker = AvatarStore(tolerance=ServingConfig().store_tolerance)

    def make_engine(self) -> ServingEngine:
        return ServingEngine(
            ServingConfig(store=True, store_path=self.snapshot)
        )

    def check_frame(self, index, mesh, payload_bytes, metadata,
                    result) -> List[str]:
        label = f"{self.name} frame {index}"
        problems = checks.check_store_hit(metadata, label)
        if mesh.num_faces == 0:
            return problems + [f"{label}: empty mesh"]
        payload = _decode_payload(payload_bytes)
        if checks.store_rejects(self.checker, mesh, payload):
            result.failed += 1
        if not metadata.get("store_hit"):
            edge = checks.voxel_edge(payload, self.resolution)
            problems += checks.check_mesh(mesh, payload, edge, label)
        return problems

    def close(self) -> None:
        checker = getattr(self, "checker", None)
        if checker is not None:
            checker.close()
        snapshot = getattr(self, "snapshot", None)
        if snapshot and os.path.exists(snapshot):
            os.remove(snapshot)


class _Fanout(Workload):
    """Workloads whose displays are observed at the engine's collect."""

    collects_per_frame = 1

    def _start_round(self, check: bool) -> None:
        self._round = Round()
        self._watch = Stopwatch()
        self._check = check
        self._first = self.first_timed(check)
        self._held: Dict[object, tuple] = {}
        self._collects: Dict[int, int] = {}
        self._total = 0

    def _note_collect(self, ticket, decoded, now: float) -> None:
        index = ticket.encoded.frame_index
        self._collects[index] = self._collects.get(index, 0) + 1
        self._total += 1
        result = self._round
        if index == 0:
            if self._collects[0] == self.collects_per_frame:
                self._watch.first_display(now)
        else:
            result.latencies.append(
                now - self.received_at(ticket)[index]
            )
        print_ = checks.fingerprint(decoded.surface)
        result.fingerprints.append(print_)
        if self._total == self.frames * self.collects_per_frame:
            self._watch.last_display(now)
        if self._check:
            self.check_collect(ticket, decoded)
        else:
            self.note_timed(ticket, decoded, print_)

    def received_at(self, ticket) -> dict:
        raise NotImplementedError

    def check_collect(self, ticket, decoded) -> None:
        raise NotImplementedError

    def check_sample(self, ticket, decoded) -> List[str]:
        """The oracle check of one sampled output."""
        raise NotImplementedError

    def hold_key(self, ticket):
        """Outputs with the same key are the same mesh; the first timed
        round keeps one per key on sampled frames."""
        return ticket.stream, ticket.encoded.frame_index

    def note_timed(self, ticket, decoded, print_: tuple) -> None:
        """Keep a sampled output of the first timed round, so it can be
        checked once the round's timing has closed (cheap: a dict)."""
        if self._first and ticket.encoded.frame_index in _sampled(
            self.frames
        ):
            self._held.setdefault(self.hold_key(ticket), (ticket, decoded))

    def check_held(self) -> None:
        """Check what ``note_timed`` kept, then let it go."""
        for ticket, decoded in self._held.values():
            self._round.problems += self.check_sample(ticket, decoded)
        self._held.clear()

    def _end_round(self, engine) -> Round:
        result = self._round
        result.serving = _engine_facts(engine)
        self._watch.fill(result)
        result.attempted = self.frames * self.displays_per_frame
        result.displays = (self.frames - 1) * self.displays_per_frame
        result.problems += checks.check_accounting(
            result.serving, self.name
        )
        result.problems += checks.check_count(
            self._total,
            self.frames * self.collects_per_frame,
            f"{self.name} decodes",
        )
        return result


class Meeting(_Fanout):
    """meeting-r64: an 8-party full-mesh meeting on a default engine."""

    name = "meeting-r64"
    resolution = 64
    frames = 6
    parties = 8
    displays_per_frame = parties * (parties - 1)
    collects_per_frame = parties

    @property
    def sender_frames(self) -> int:
        return self.frames * self.parties

    def inputs(self, model: BodyModel, seed: int,
               cache: Optional[str] = None) -> Dict[str, Capture]:
        return {
            f"party{party}": stream_inputs(
                model, seed, self.name, party, self.frames, cache
            )
            for party in range(self.parties)
        }

    def received_at(self, ticket) -> dict:
        return self._captures[ticket.stream.split("|", 1)[1]].received_at

    def run_round(self, check: bool) -> Round:
        self._start_round(check)
        captures = self._captures = self.reference if check else self.seeded
        engine = ServingEngine(ServingConfig())
        observe_collects(engine, self._note_collect)
        try:
            meeting = MultiPartySession(
                [
                    Participant(
                        name=name,
                        dataset=capture,
                        pipeline=KeypointSemanticPipeline(
                            resolution=self.resolution,
                            seed=DETECTOR_SEED + party,
                        ),
                    )
                    for party, (name, capture) in enumerate(
                        self._captures.items()
                    )
                ],
                serving=engine,
            )
            summary = meeting.run(frames=self.frames)
            result = self._end_round(engine)
        finally:
            engine.close()
            self._captures = None  # the reference may be let go
        fresh = sum(pair.delivered for pair in summary.pairs)
        result.problems += checks.check_fresh(
            result.attempted, fresh, self.name
        )
        self.check_held()
        if check:
            # Every pair of a sender carries the same payload.
            result.wire_kbps = _kbps(
                [pair.mean_payload_bytes for pair in summary.pairs],
                captures["party0"].fps,
            )
        return self.finish_round(result, check)

    def check_collect(self, ticket, decoded) -> None:
        sender = ticket.stream.split("|", 1)[1]
        index = ticket.encoded.frame_index
        self._round.chamfer_m.append(
            _chamfer(decoded.surface, self._captures[sender].frames[index])
        )
        self._round.problems += self.check_sample(ticket, decoded)

    def check_sample(self, ticket, decoded) -> List[str]:
        sender = ticket.stream.split("|", 1)[1]
        index = ticket.encoded.frame_index
        return _check_display(
            self.frames, index, decoded.surface, ticket.encoded.payload,
            lambda payload: checks.voxel_edge(payload, self.resolution),
            f"{self.name} {sender} frame {index}",
        )


class Webinar(_Fanout):
    """webinar-r128: one sender to 100 viewers in 3 gaze tiers."""

    name = "webinar-r128"
    resolution = 128
    frames = 24
    viewers = 100
    tiers = 3
    displays_per_frame = viewers
    collects_per_frame = viewers

    def inputs(self, model: BodyModel, seed: int,
               cache: Optional[str] = None) -> Capture:
        return stream_inputs(model, seed, self.name, 0, self.frames, cache)

    def prepare(self, model: BodyModel) -> None:
        super().prepare(model)
        self.receivers = [
            BroadcastReceiver(name=f"viewer{viewer:03d}",
                              tier=viewer % self.tiers)
            for viewer in range(self.viewers)
        ]
        self.tier_of = {r.name: r.tier for r in self.receivers}

    def received_at(self, ticket) -> dict:
        return self._capture.received_at

    def run_round(self, check: bool) -> Round:
        self._start_round(check)
        capture = self._capture = self.reference if check else self.seeded
        session = BroadcastSession(
            capture,
            self.receivers,
            tiers=self.tiers,
            resolution=self.resolution,
            seed=DETECTOR_SEED,
        )

        def on_frame(index: int) -> None:
            # The session builds its default engine when its run
            # starts, just before it asks for the first frame.
            if index == 0:
                observe_collects(session.engine, self._note_collect)

        capture.on_frame = on_frame
        try:
            summary = session.run(frames=self.frames)
            result = self._end_round(session.engine)
        finally:
            capture.on_frame = None
            self._capture = None  # the reference may be let go
            session.close()
        fresh = sum(
            round(r.delivered_rate * r.frames)
            for r in summary.per_receiver
        )
        result.problems += checks.check_fresh(
            result.attempted, fresh, self.name
        )
        result.problems += checks.check_count(
            summary.reconstructions,
            self.frames * self.tiers,
            f"{self.name} reconstructions",
        )
        self.check_held()
        if check:
            result.wire_kbps = _kbps(
                [len(payload) for payload in self._payloads],
                capture.fps,
            )
        return self.finish_round(result, check)

    def _start_round(self, check: bool) -> None:
        super()._start_round(check)
        self._leaders: Dict[tuple, object] = {}
        self._payloads: List[bytes] = []

    def hold_key(self, ticket) -> tuple:
        receiver = ticket.stream.split("|", 1)[0]
        return ticket.encoded.frame_index, self.tier_of[receiver]

    def note_timed(self, ticket, decoded, print_: tuple) -> None:
        """Timed rounds hold each receiver to its tier leader by
        fingerprint; the checked round compares whole arrays."""
        key = self.hold_key(ticket)
        if self._leaders.setdefault(key, print_) != print_:
            self._round.problems.append(
                f"{self.name} {ticket.stream.split('|', 1)[0]} frame "
                f"{key[0]}: mesh differs from its tier leader's"
            )
        super().note_timed(ticket, decoded, print_)

    def check_collect(self, ticket, decoded) -> None:
        receiver = ticket.stream.split("|", 1)[0]
        index = ticket.encoded.frame_index
        mesh = decoded.surface
        if index not in {key[0] for key in self._leaders}:
            self._leaders.clear()  # keep one frame's leaders alive
        key = self.hold_key(ticket)
        leader = self._leaders.get(key)
        if leader is not None:
            self._round.problems += checks.check_same_mesh(
                mesh, leader, f"{self.name} {receiver} frame {index}"
            )
            return
        self._leaders[key] = mesh
        if key[1] == 0:
            self._payloads.append(ticket.encoded.payload)
        self._round.chamfer_m.append(
            _chamfer(mesh, self._capture.frames[index])
        )
        self._round.problems += self.check_sample(ticket, decoded)

    def check_sample(self, ticket, decoded) -> List[str]:
        receiver = ticket.stream.split("|", 1)[0]
        index = ticket.encoded.frame_index
        reconstructor = ticket.pipeline.reconstructor
        return _check_display(
            self.frames, index, decoded.surface, ticket.encoded.payload,
            lambda payload: checks.coarsest_edge(
                payload, self.resolution, reconstructor.octree_base,
                reconstructor.depth_budget.peripheral_drop,
            ),
            f"{self.name} {receiver} frame {index}",
        )


WORKLOADS = {
    cls.name: cls for cls in (Call, Meeting, Webinar, Returning)
}
