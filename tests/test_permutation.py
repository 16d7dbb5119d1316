"""Labels of the whole pipeline (features, then ``segment``) must not move
when the faces and vertices of the mesh are renumbered."""

import numpy as np
import pytest

from msseg.evaluation import rand_index_dissimilarity
from msseg.features import feature_field
from msseg.mesh import TriMesh
from msseg.solver import MODES, SolverParams, segment

from _meshes import random_closed, random_patch

MESHES = {"closed": (lambda: random_closed(600, 5), 4),
          "patch": (lambda: random_patch(800, 11), 3)}


def _labels(mesh, k):
    f = feature_field(mesh, k).values
    return {mode: segment(mesh, f, SolverParams(k=k, mode=mode)).labels
            for mode in MODES}


def _renumbered(mesh, rng):
    """``mesh`` with its faces and vertices in a random order, and the
    face order: face j of the copy is face ``order[j]`` of ``mesh``."""
    order = rng.permutation(mesh.n_faces)
    vertex_order = rng.permutation(len(mesh.vertices))
    new_index = np.empty_like(vertex_order)
    new_index[vertex_order] = np.arange(len(vertex_order))
    faces = new_index[mesh.faces[order]]
    return TriMesh(mesh.vertices[vertex_order], faces), order


@pytest.fixture(scope="module")
def moves():
    """The Rand index between the labels of each mesh and those of its
    renumbered copy, mapped back, per mode."""
    out = {}
    for name, (make, k) in MESHES.items():
        mesh = make()
        want = _labels(mesh, k)
        copy, order = _renumbered(mesh, np.random.default_rng(1))
        got = _labels(copy, k)
        for mode in MODES:
            back = np.empty_like(got[mode])
            back[order] = got[mode]
            out[name, mode] = rand_index_dissimilarity(back, want[mode])
    return out


CASES = [pytest.param(
    "closed", mode, marks=pytest.mark.xfail(
        strict=True, reason="_kmeans_pp draws over face indices: the "
        "closed mesh's labels move by a Rand index of 21-27"))
    for mode in MODES] + [("patch", mode) for mode in MODES]


@pytest.mark.parametrize("name, mode", CASES)
def test_labels_survive_a_renumbering(moves, name, mode):
    assert moves[name, mode] == 0.0
