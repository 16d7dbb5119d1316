"""Labels of the whole pipeline (features, then ``segment``) must not move
when the mesh is moved rigidly or rescaled uniformly."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from msseg.features import feature_field
from msseg.mesh import TriMesh
from msseg.solver import MODES, SolverParams, segment

from _meshes import random_closed, random_patch

MESHES = {"closed": lambda: random_closed(400, seed=2),
          "patch": lambda: random_patch(800, 11)}


def _labels(mesh):
    f = feature_field(mesh, 3).values
    return {mode: segment(mesh, f, SolverParams(k=3, mode=mode)).labels
            for mode in MODES}


@pytest.fixture(scope="module")
def reference():
    meshes = {name: make() for name, make in MESHES.items()}
    return {name: (mesh, _labels(mesh)) for name, mesh in meshes.items()}


def _assert_same(moved, want):
    got = _labels(moved)
    for mode in MODES:
        assert np.array_equal(got[mode], want[mode]), mode


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", MESHES)
def test_labels_survive_a_rigid_motion(reference, name, seed):
    mesh, want = reference[name]
    rng = np.random.default_rng(seed)
    rotation = Rotation.random(random_state=rng).as_matrix()
    moved = mesh.vertices @ rotation.T + rng.normal(scale=3.0, size=3)
    _assert_same(TriMesh(moved, mesh.faces), want)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="labels move "
                   "under rescaling, by a Rand index at x0.01 / x100 of: on "
                   "the closed mesh 0.29 / 2.84 in pcms, 4.87 / 6.69 in psms "
                   "and 63.71 / 64.05 in gpsms; on the patch 2.88 / 0 in "
                   "every mode")
@pytest.mark.parametrize("name", MESHES)
def test_labels_survive_a_uniform_rescaling(reference, name):
    mesh, want = reference[name]
    for scale in (0.01, 100.0):
        _assert_same(TriMesh(scale * mesh.vertices, mesh.faces), want)
