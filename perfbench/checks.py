"""Output checks that do not depend on today's output.

Each check takes what the program handed a receiver and returns a list
of problems (empty when the output is right).  None of them compares
against a stored copy of an earlier run: meshes are judged against the
body field rebuilt from the decoded payload with the closure-chain
oracle (``PosedBodyField(..., fused=False)``), counts against the
workload's shape, and tier members against their tier leader.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.avatar.implicit import PosedBodyField
from repro.geometry.octree import level_schedule

# The reconstructor's defaults: a voxel edge is the longest side of
# the field's bounding box over the resolution.
BLEND = 0.035


def voxel_edge(payload, resolution: int) -> float:
    """Finest cell edge (metres) of a reconstruction of ``payload``."""
    lo, hi = PosedBodyField(
        pose=payload.pose, shape=payload.shape, blend=BLEND
    ).bounds()
    return float((hi - lo).max()) / resolution


def coarsest_edge(payload, resolution: int, octree_base: int,
                  peripheral_drop: int) -> float:
    """Coarsest cell edge a gaze budget with ``peripheral_drop`` lets
    the octree stop at (the finest edge when the drop is 0)."""
    levels = level_schedule(resolution, octree_base)
    depth = max(len(levels) - 1 - peripheral_drop, 0)
    return voxel_edge(payload, resolution) * resolution / levels[depth]


def zero_set_distance(mesh, payload) -> float:
    """Largest |SDF| of the oracle body field over every vertex."""
    oracle = PosedBodyField(
        pose=payload.pose, shape=payload.shape, blend=BLEND, fused=False
    )
    return float(np.max(np.abs(oracle(mesh.vertices))))


def check_mesh(mesh, payload, edge: float, label: str) -> List[str]:
    """Non-empty, and every vertex within one cell edge of the zero
    set of the body field the payload describes."""
    if mesh is None or mesh.num_vertices == 0 or mesh.num_faces == 0:
        return [f"{label}: empty mesh"]
    error = zero_set_distance(mesh, payload)
    if not error <= edge:
        return [
            f"{label}: vertex {error * 1000:.1f} mm off the surface, "
            f"allowed {edge * 1000:.1f} mm"
        ]
    return []


def check_fresh(attempted: int, fresh: int, label: str) -> List[str]:
    """Every attempted frame displayed fresh: nothing shed, concealed
    or failed on a lossless path."""
    if fresh != attempted:
        return [f"{label}: {fresh} of {attempted} frames displayed fresh"]
    return []


def check_accounting(summary: dict, label: str) -> List[str]:
    """``cache_hits + store_hits + reconstructions == offloaded``."""
    served = (
        summary["cache_hits"]
        + summary.get("store_hits", 0)
        + summary["reconstructions"]
    )
    if served != summary["offloaded"]:
        return [
            f"{label}: cache hits {summary['cache_hits']} + store hits "
            f"{summary.get('store_hits', 0)} + reconstructions "
            f"{summary['reconstructions']} != offloaded "
            f"{summary['offloaded']}"
        ]
    return []


def check_count(actual: int, expected: int, what: str) -> List[str]:
    if actual != expected:
        return [f"{what}: {actual}, expected {expected}"]
    return []


def check_same_mesh(mesh, leader, label: str) -> List[str]:
    """A tier member's mesh equals its tier leader's, array for array."""
    if leader is None:
        return [f"{label}: no tier leader mesh"]
    if not (
        np.array_equal(mesh.vertices, leader.vertices)
        and np.array_equal(mesh.faces, leader.faces)
    ):
        return [f"{label}: mesh differs from its tier leader's"]
    return []


def check_store_hit(metadata: dict, label: str) -> List[str]:
    """A store hit re-poses by skinning alone: zero field evaluations."""
    if metadata.get("store_hit") and metadata.get("field_evaluations"):
        return [
            f"{label}: store hit spent "
            f"{metadata['field_evaluations']} field evaluations"
        ]
    return []


def store_rejects(checker, mesh, payload) -> bool:
    """Whether ``AvatarStore.validate`` refuses this mesh against the
    store's own tolerance (``checker`` is an :class:`AvatarStore`
    holding the serving defaults)."""
    ok, _, _ = checker.validate(mesh, payload.pose, payload.shape)
    return not ok


def fingerprint(mesh) -> tuple:
    """A few numbers that change when a mesh changes; cheap enough to
    take inside the timed loop."""
    vertices = mesh.vertices
    count = len(vertices)
    if count == 0:
        return (0, mesh.num_faces)
    return (
        count,
        mesh.num_faces,
        *map(float, vertices[0]),
        *map(float, vertices[count // 2]),
        *map(float, vertices[-1]),
    )


def check_nonempty(prints: Sequence[tuple], label: str) -> List[str]:
    """Every displayed mesh is non-empty, read from its fingerprint."""
    empty = sum(1 for print_ in prints if not (print_[0] and print_[1]))
    if empty:
        return [f"{label}: {empty} empty meshes displayed"]
    return []


def check_fingerprints(
    timed: Sequence[tuple], verified: Sequence[tuple], label: str
) -> List[str]:
    """Timed rounds replay the verified round exactly."""
    if list(timed) != list(verified):
        changed = sum(
            1 for a, b in zip(timed, verified) if a != b
        ) + abs(len(timed) - len(verified))
        return [f"{label}: {changed} outputs differ from the checked round"]
    return []
