"""Array-built incidence, neighborhoods and smoothed normals against the
per-face loop oracles in ``_reference``, and the exact errors and warnings
of mesh construction."""

import warnings

import numpy as np
import pytest

from msseg.errors import DegenerateGeometryError, ParameterError, TopologyError
from msseg.mesh import RINGS, TriMesh, smoothed_normals

from _meshes import (dumbbell, equilateral, flat_patch, random_closed,
                     random_patch)
from _reference import (
    dense_operators,
    incidence_loops,
    neighbor_lists,
    orient_loop,
    smoothed_normals_loop,
)

INCIDENCE = ("edges", "face_edges", "face_edge_signs", "edge_faces")


def _oracle_meshes():
    meshes = [random_closed(60, seed=s) for s in range(5)]
    meshes += [flat_patch(5), equilateral()]
    meshes.append(TriMesh(np.eye(3), np.empty((0, 3), dtype=np.int64)))
    return meshes


@pytest.mark.parametrize("mesh", _oracle_meshes(),
                         ids=[f"closed{s}" for s in range(5)]
                         + ["flat_patch", "one_face", "no_faces"])
def test_construction_matches_loop_oracle(mesh):
    ref = incidence_loops(mesh.faces)
    for name in INCIDENCE:
        got = getattr(mesh, name)
        assert got.dtype == ref[name].dtype
        assert got.shape == ref[name].shape
        assert np.array_equal(got, ref[name]), name
    assert np.array_equal(mesh.boundary_edge, ref["edge_faces"][:, 1] < 0)
    _, _, Ginc, Gb, _ = dense_operators(mesh)
    assert np.array_equal(mesh.incidence.toarray(), Ginc)
    assert np.array_equal(mesh.grad.toarray(), Gb)
    # boundary rows of the gradient store nothing
    assert not np.diff(mesh.grad.indptr)[mesh.boundary_edge].any()
    for ring in ("n1", "n2"):
        pattern = mesh.neighborhoods(ring)
        for tau, want in enumerate(neighbor_lists(mesh, ring)):
            got = pattern.indices[pattern.indptr[tau]:pattern.indptr[tau + 1]]
            assert np.array_equal(got, want)
        assert np.array_equal(smoothed_normals(mesh, ring),
                              smoothed_normals_loop(mesh, ring))


def test_batch_and_loop_normals_agree_bitwise_on_1k_faces():
    mesh = random_closed(2000, seed=9)
    assert mesh.n_faces >= 1000
    for ring in ("n1", "n2"):
        assert np.array_equal(smoothed_normals(mesh, ring),
                              smoothed_normals_loop(mesh, ring)), ring
    assert np.allclose(smoothed_normals(mesh, "raw"), mesh.face_normals,
                       rtol=0, atol=1e-15)


def test_smoothed_normals_names_first_degenerate_face():
    # a flat patch plus, apart from it, two coincident triangles with
    # opposite winding whose n1 average cancels
    patch = flat_patch(2)
    base = patch.n_vertices
    verts = np.vstack([patch.vertices, [(5, 0, 0), (6, 0, 0), (5, 1, 0)]])
    faces = np.vstack([patch.faces, [(base, base + 1, base + 2),
                                     (base + 1, base, base + 2)]])
    mesh = TriMesh(verts, faces)
    first = patch.n_faces
    with pytest.raises(DegenerateGeometryError,
                       match=f"face {first} \\(ring n1\\)"):
        smoothed_normals(mesh, "n1")


def test_smoothed_normals_rejects_unknown_ring():
    with pytest.raises(ParameterError, match="ring must be one of"):
        smoothed_normals(equilateral(), "n3")


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("ring", RINGS)
def test_smoothed_normals_do_not_depend_on_units(ring, scale):
    # the degenerate test is relative to the neighborhood's area, so a
    # uniformly rescaled mesh gives the same normals to rounding
    mesh = dumbbell()
    scaled = TriMesh(scale * mesh.vertices, mesh.faces)
    assert np.allclose(smoothed_normals(scaled, ring),
                       smoothed_normals(mesh, ring), rtol=0, atol=1e-14)


# -- errors and warnings name the same edge or face as the loop -------------


def test_non_manifold_error_names_edge_where_loop_fails():
    # edge (0, 1) is numbered first, but edge (1, 2) is the first to gain
    # a third face in face order
    faces = [(0, 1, 2), (0, 1, 3), (1, 2, 4), (1, 2, 5), (0, 1, 6)]
    verts = np.random.default_rng(0).normal(size=(7, 3))
    message = "edge (1, 2) is non-manifold (3 or more incident faces)"
    with pytest.raises(TopologyError) as oracle:
        incidence_loops(faces)
    assert str(oracle.value) == message
    with pytest.raises(TopologyError) as got:
        TriMesh(verts, faces)
    assert str(got.value) == message


def test_repeated_vertex_error_names_first_bad_face():
    verts = np.random.default_rng(0).normal(size=(4, 3))
    faces = [(0, 1, 2), (1, 3, 1), (2, 2, 0), (0, 0, 0)]
    with pytest.raises(TopologyError) as got:
        TriMesh(verts, faces)
    assert str(got.value) == "face 1 has repeated vertices"


def _repaired(vertices, faces):
    """The mesh and the messages of the RuntimeWarnings its construction
    raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mesh = TriMesh(vertices, faces)
    return mesh, [str(w.message) for w in caught
                  if issubclass(w.category, RuntimeWarning)]


def test_winding_repair_count_and_faces():
    base = random_closed(40, seed=4)
    faces = np.array(base.faces)
    flipped = [3, 11, 30]
    faces[flipped] = faces[flipped][:, [0, 2, 1]]
    bad = incidence_loops(faces)["bad_winding"]
    assert len(bad) == 9  # three isolated faces, three edges each
    mesh, messages = _repaired(base.vertices, faces)
    assert messages == [
        "reversed the winding of 3 face(s) to orient every connected "
        "component like its lowest-index face"
    ]
    assert np.array_equal(mesh.faces, base.faces)
    for name in INCIDENCE:
        assert np.array_equal(getattr(mesh, name), getattr(base, name)), name
    for name in ("incidence", "grad"):
        assert (getattr(mesh, name) != getattr(base, name)).nnz == 0, name


@pytest.mark.parametrize("seed", range(6))
def test_repair_matches_bfs_oracle(seed):
    rng = np.random.default_rng(seed)
    base = (random_closed if seed % 2 else random_patch)(80, seed=seed)
    # random flips, face 0 included on some seeds, plus a second
    # component shifted clear of the first
    verts = np.vstack([base.vertices, base.vertices + 10.0])
    faces = np.vstack([base.faces, base.faces + base.n_vertices])
    flip = rng.random(len(faces)) < 0.3
    faces[flip] = faces[flip][:, [0, 2, 1]]
    want, n_reversed = orient_loop(faces)
    mesh, messages = _repaired(verts, faces)
    assert np.array_equal(mesh.faces, want)
    assert len(messages) == (n_reversed > 0)
    assert all(f"reversed the winding of {n_reversed} face(s)" in m
               for m in messages)
    assert incidence_loops(mesh.faces)["bad_winding"] == []
    # the repaired faces are a fixed point: nothing left to reverse
    _, again = _repaired(verts, mesh.faces)
    assert again == []


def test_consistent_mesh_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        random_closed(40, seed=4)
