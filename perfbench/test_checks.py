"""Every output check fails on a deliberately wrong output.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro.avatar.reconstructor import KeypointMeshReconstructor  # noqa: E402
from repro.avatar.store import AvatarStore  # noqa: E402
from repro.body.motion import talking  # noqa: E402
from repro.body.shape import ShapeParams  # noqa: E402
from repro.compression.lzma_codec import (  # noqa: E402
    KeypointPayloadCodec,
    SemanticKeypointPayload,
)
from repro.geometry.mesh import TriangleMesh  # noqa: E402

import checks  # noqa: E402

RESOLUTION = 48


@pytest.fixture(scope="module")
def frame():
    """A decoded payload and the mesh the program builds from it."""
    motion = talking(n_frames=4, seed=3)
    shape = ShapeParams(betas=np.linspace(-0.5, 0.5, 10))
    blob = KeypointPayloadCodec().compress(
        SemanticKeypointPayload(pose=motion[2].pose, shape=shape)
    )
    payload = KeypointPayloadCodec().decompress(blob)
    mesh = KeypointMeshReconstructor(resolution=RESOLUTION).reconstruct(
        pose=payload.pose, shape=payload.shape
    ).mesh
    return payload, mesh


def _shifted(mesh, offset) -> TriangleMesh:
    return TriangleMesh(
        vertices=mesh.vertices + np.asarray(offset), faces=mesh.faces
    )


def test_mesh_on_the_surface_passes(frame):
    payload, mesh = frame
    edge = checks.voxel_edge(payload, RESOLUTION)
    assert checks.check_mesh(mesh, payload, edge, "ok") == []


def test_mesh_shifted_by_two_voxels_fails(frame):
    payload, mesh = frame
    edge = checks.voxel_edge(payload, RESOLUTION)
    moved = _shifted(mesh, [2.0 * edge, 0.0, 0.0])
    assert checks.check_mesh(moved, payload, edge, "moved")


def test_empty_mesh_fails(frame):
    payload, mesh = frame
    empty = TriangleMesh(
        vertices=np.zeros((0, 3)), faces=np.zeros((0, 3), dtype=np.int64)
    )
    edge = checks.voxel_edge(payload, RESOLUTION)
    assert checks.check_mesh(empty, payload, edge, "empty")
    prints = [checks.fingerprint(mesh), checks.fingerprint(empty)]
    assert checks.check_nonempty(prints, "empty")
    assert checks.check_nonempty(prints[:1], "full") == []


def test_coarse_tier_edge_grows_with_the_drop(frame):
    payload, _ = frame
    fine = checks.coarsest_edge(payload, 128, 8, 0)
    assert fine == pytest.approx(checks.voxel_edge(payload, 128))
    assert checks.coarsest_edge(payload, 128, 8, 2) == pytest.approx(
        4.0 * fine
    )


def test_dropped_frame_fails():
    assert checks.check_fresh(24, 24, "all") == []
    assert checks.check_fresh(24, 23, "dropped")


def test_swapped_tier_mesh_fails(frame):
    _, mesh = frame
    assert checks.check_same_mesh(mesh, mesh.copy(), "same") == []
    other = _shifted(mesh, [0.0, 0.01, 0.0])
    assert checks.check_same_mesh(other, mesh, "swapped")
    assert checks.check_same_mesh(mesh, None, "no leader")


def test_accounting_that_does_not_reconcile_fails():
    summary = {"cache_hits": 97, "store_hits": 0,
               "reconstructions": 3, "offloaded": 100}
    assert checks.check_accounting(summary, "ok") == []
    summary["reconstructions"] = 4
    assert checks.check_accounting(summary, "extra reconstruction")


def test_wrong_reconstruction_count_fails():
    assert checks.check_count(18, 18, "reconstructions") == []
    assert checks.check_count(19, 18, "reconstructions")


def test_store_hit_with_field_evaluations_fails():
    assert checks.check_store_hit(
        {"store_hit": True, "field_evaluations": 0}, "hit") == []
    assert checks.check_store_hit(
        {"store_hit": False, "field_evaluations": 5000}, "miss") == []
    assert checks.check_store_hit(
        {"store_hit": True, "field_evaluations": 256}, "bad hit")


def test_store_validation_rejects_a_displaced_mesh(frame):
    payload, mesh = frame
    with AvatarStore() as store:
        assert not checks.store_rejects(store, mesh, payload)
        moved = _shifted(mesh, [0.0, 0.0, 2.0 * store.tolerance])
        assert checks.store_rejects(store, moved, payload)


def test_changed_output_breaks_the_fingerprints(frame):
    _, mesh = frame
    verified = [checks.fingerprint(mesh)]
    assert checks.check_fingerprints(
        [checks.fingerprint(mesh.copy())], verified, "same") == []
    moved = _shifted(mesh, [1e-9, 0.0, 0.0])
    assert checks.check_fingerprints(
        [checks.fingerprint(moved)], verified, "moved")
    assert checks.check_fingerprints([], verified, "dropped")
