"""Normal-affinity Laplacian and spectral feature construction."""

import re
import tracemalloc
from functools import cache

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from msseg import features
from msseg.calculus import tv_energy
from msseg.errors import FeatureError, NumericError, ParameterError
from msseg.evaluation import rand_index_dissimilarity
from msseg.features import (
    build_laplacian,
    feature_field,
)
from msseg.mesh import TriMesh, smoothed_normals
from msseg.solver import SolverParams, segment

from _meshes import (
    dumbbell,
    dumbbell_ground_truth,
    equilateral,
    path_strip,
    random_closed,
    random_patch,
    scattered_components,
    square_axis_pair,
    triangle_strip,
    two_components,
    with_loose_triangles,
)
from _reference import (
    dense_feature_field,
    dense_spectral_channels,
    incidence_loops,
    indicator_bases,
)


def _interior_pairs(mesh):
    """The two faces of each interior edge, in edge order, from the loop
    oracle's incidence."""
    edge_faces = incidence_loops(mesh.faces)["edge_faces"]
    return edge_faces[edge_faces[:, 1] >= 0]


# -- normal distance, read off the Laplacian weights --------------------------


def _known_distance_mesh():
    """A coplanar pair (faces 0, 1), a right-angle fold (faces 1, 2) and,
    apart from them, two coincident triangles with opposite winding
    (faces 3, 4, sharing all three edges): raw normal distances 0, 2 and
    4, so ``dbar`` over the five interior edges is 14 / 5."""
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0.5, 1),
             (5, 0, 0), (6, 0, 0), (5, 1, 0)]
    faces = [(0, 1, 2), (2, 1, 3), (3, 1, 4), (5, 6, 7), (6, 5, 7)]
    return TriMesh(verts, faces)


def _laplacian_distance_check(i, j, d):
    # w_ij = l_ij exp(-d / dbar), with l_ij the summed length of the edges
    # faces i and j share
    mesh = _known_distance_mesh()
    L = build_laplacian(mesh, "raw")
    face_edges = incidence_loops(mesh.faces)["face_edges"]
    shared = np.intersect1d(face_edges[i], face_edges[j])
    length = mesh.edge_lengths[shared].sum()
    assert -L[i, j] == pytest.approx(length * np.exp(-d / 2.8), rel=1e-12)
    assert L[i, j] == L[j, i]


def test_normal_distance_coplanar_is_zero():
    _laplacian_distance_check(0, 1, 0.0)


def test_normal_distance_right_angle_raw():
    _laplacian_distance_check(1, 2, 2.0)


def test_normal_distance_antipodal_is_four():
    _laplacian_distance_check(3, 4, 4.0)


def test_normal_distance_range():
    mesh = random_closed(40, seed=2)
    normals = smoothed_normals(mesh, "n2")
    fi, fj = _interior_pairs(mesh).T
    d = np.array([np.sum((normals[a] - normals[b]) ** 2)
                  for a, b in zip(fi, fj)])
    assert ((0.0 <= d) & (d <= 4.0)).all()
    lengths = mesh.edge_lengths[~mesh.boundary_edge]
    L = build_laplacian(mesh, "n2")
    off = -np.asarray(L[fi, fj]).ravel()
    assert np.allclose(off, lengths * np.exp(-d / d.mean()),
                       rtol=1e-12, atol=0)


# -- laplacian ---------------------------------------------------------------


def test_laplacian_two_flat_faces():
    mesh = square_axis_pair()  # unit shared edge, coplanar faces
    L = build_laplacian(mesh).toarray()
    assert np.allclose(L, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)


def test_laplacian_path_strip():
    # three coplanar faces in a row with unit shared edges
    L = build_laplacian(path_strip()).toarray()
    expected = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    assert np.allclose(L, expected, atol=1e-12)


def test_laplacian_zero_row_sums():
    for mesh in (path_strip(), random_closed(60, 4), two_components()):
        L = build_laplacian(mesh)
        assert np.abs(np.asarray(L.sum(axis=1))).max() < 1e-12


def test_laplacian_symmetric_nonpositive_offdiag():
    mesh = random_closed(50, seed=5)
    L = build_laplacian(mesh).toarray()
    assert np.allclose(L, L.T, atol=1e-14)
    off = L - np.diag(np.diag(L))
    assert (off <= 1e-14).all()


def test_laplacian_positive_semidefinite_quadratic_form():
    mesh = random_closed(50, seed=6)
    L = build_laplacian(mesh)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.normal(size=mesh.n_faces)
        assert x @ (L @ x) >= -1e-10


def test_laplacian_needs_interior_edges():
    with pytest.raises(FeatureError):
        build_laplacian(equilateral())


# -- feature field -------------------------------------------------------------


def test_path_strip_fiedler_channel():
    field = feature_field(path_strip(), 2)
    x = field.values[:, 0]
    fiedler = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    cos = abs(np.dot(x, fiedler)) / np.linalg.norm(x)
    assert cos > 1.0 - 1e-8
    assert field.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)


def test_disconnected_mesh_channel_is_component_indicator():
    mesh = two_components()
    field = feature_field(mesh, 2)
    x = field.values[:, 0]
    # piecewise constant per component, different values across components
    assert np.ptp(x[:2]) < 1e-10
    assert np.ptp(x[2:]) < 1e-10
    assert abs(x[0] - x[2]) > 0.5
    assert field.eigenvalues[0] == 0.0


def test_channel_count_and_normalization():
    mesh = random_closed(80, seed=9)
    k = 4
    field = feature_field(mesh, k)
    assert field.values.shape == (mesh.n_faces, k - 1)
    areas = mesh.face_areas
    total = areas.sum()
    for j in range(k - 1):
        x = field.values[:, j]
        mean = areas @ x / total
        var = areas @ (x - mean) ** 2 / total
        assert var == pytest.approx(1.0, rel=1e-10)
        # eigenvectors are orthogonal to the constant kernel vector
        assert abs(x.mean()) < 1e-8
        # deterministic sign: first sizable entry positive
        nz = np.nonzero(np.abs(x) > 1e-8 * np.abs(x).max())[0]
        assert x[nz[0]] > 0


def test_eigen_residual_contract():
    for mesh, k in ((path_strip(), 2), (random_closed(80, 10), 4),
                    (two_components(), 3)):
        L = build_laplacian(mesh)
        field = feature_field(mesh, k)
        for j in range(field.values.shape[1]):
            x = field.values[:, j]
            res = np.linalg.norm(L @ x - field.eigenvalues[j] * x)
            assert res <= 1e-8 * np.linalg.norm(x)


@pytest.mark.parametrize("scale", [1e9, 1e12])
def test_eigen_residual_gate_is_relative_to_the_laplacian(scale):
    # L grows with the edge lengths, so only a gate relative to |L| passes
    # these converged solves (residual 7.5e-8 at 1e9)
    mesh = dumbbell()
    base = feature_field(mesh, 2)
    field = feature_field(TriMesh(mesh.vertices * scale, mesh.faces), 2)
    assert np.abs(field.values - base.values).max() <= 1e-8
    assert field.eigenvalues[0] == pytest.approx(
        base.eigenvalues[0] * scale, rel=1e-6)


def test_channels_mutually_orthogonal():
    field = feature_field(random_closed(80, seed=11), 5)
    v = field.values / np.linalg.norm(field.values, axis=0)
    gram = v.T @ v
    assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-8


def test_scales_record_applied_factor():
    mesh = random_closed(60, seed=12)
    field = feature_field(mesh, 3)
    # undoing the recorded scale recovers a unit eigenvector
    for j in range(field.values.shape[1]):
        x = field.values[:, j] / field.scales[j]
        assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-8)


def test_face_reorder_invariance_up_to_sign():
    mesh = path_strip()
    base = feature_field(mesh, 2).values[:, 0]
    perm = np.array([2, 0, 1])
    permuted = TriMesh(mesh.vertices, mesh.faces[perm])
    other = feature_field(permuted, 2).values[:, 0]
    aligned = other if np.dot(other, base[perm]) >= 0 else -other
    assert np.allclose(aligned, base[perm], atol=1e-10)


# -- disconnected meshes: closed-form contrasts, then eigenvectors -------------


def _scattered_cases():
    """3 to 6 components of unequal size, a single triangle among them."""
    return [
        [random_closed(14, 1), random_patch(30, 2), equilateral()],
        [random_patch(40, 3), random_closed(10, 4), random_closed(25, 5),
         equilateral()],
        [random_closed(30, 6), equilateral(), random_patch(20, 7),
         random_closed(8, 8), random_patch(50, 9)],
        [random_patch(25, 10), random_closed(12, 11), equilateral(),
         random_closed(40, 12), random_patch(18, 13), random_closed(6, 14)],
    ]


@pytest.mark.parametrize("case", range(4))
def test_contrasts_and_eigenvectors_match_gram_schmidt_oracle(case):
    pieces = _scattered_cases()[case]
    n_comp = len(pieces)
    with pytest.warns(RuntimeWarning, match="reversed the winding"):
        mesh = TriMesh(*scattered_components(pieces, seed=case))
    labels = connected_components(mesh.neighborhoods("n1"),
                                  directed=False)[1]
    assert np.array_equal(mesh.components, labels)
    assert len(set(np.bincount(labels))) == n_comp  # all sizes differ
    indicators, contrasts = indicator_bases(mesh)
    L = build_laplacian(mesh)
    # contrasts only (K <= C), then contrasts followed by eigenvectors
    for k in (2, n_comp, n_comp + 1, n_comp + 3):
        field = feature_field(mesh, k)
        want, eigvals = dense_feature_field(L, mesh.face_areas, indicators,
                                            contrasts, k - 1)
        c = min(n_comp, k) - 1
        assert np.abs(field.values[:, :c] - want[:, :c]).max() <= 1e-12
        assert not field.eigenvalues[:c].any()
        # ARPACK against dense eigh: equal up to the solvers' rounding
        assert np.abs(field.values[:, c:] - want[:, c:]).max(initial=0) <= 1e-10
        assert np.abs(field.eigenvalues - eigvals).max() <= 1e-12


def test_many_components_build_only_the_contrasts_used():
    # a dense face-by-component matrix would take 1,300 x 501 doubles
    mesh = with_loose_triangles(dumbbell(20, 10), 500)
    assert np.bincount(mesh.components).tolist() == [800] + [1] * 500
    tracemalloc.start()
    try:
        field = feature_field(mesh, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6
    assert field.values.shape == (1300, 2)
    assert not field.eigenvalues.any()


@cache
def _dumbbell_score(n_loose):
    """Rand index on the dumbbell faces of a default K = 2 run on the
    dumbbell beside ``n_loose`` loose triangles."""
    clean = dumbbell()
    mesh = with_loose_triangles(clean, n_loose)
    labels = segment(mesh, feature_field(mesh, 2).values,
                     SolverParams(k=2)).labels
    return rand_index_dissimilarity(labels[:clean.n_faces],
                                    dumbbell_ground_truth(clean))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item "
                   "10: a loose triangle's contrast is the only K = 2 "
                   "channel, so the dumbbell faces are labelled alike")
@pytest.mark.filterwarnings("ignore:degenerate alpha estimate")
@pytest.mark.parametrize("n_loose", [1, 2, 10])
def test_loose_triangles_leave_the_dumbbell_score(n_loose):
    assert abs(_dumbbell_score(n_loose) - _dumbbell_score(0)) <= 0.5


# -- the eigensolve: one shift-invert ARPACK solve of at most T - 1 pairs -----


def _record_arpack_calls(monkeypatch):
    calls = []
    eigsh = features.spla.eigsh

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(features.spla, "eigsh", recording)
    return calls


def test_eigen_gate_names_the_channel_of_a_perturbed_eigenvector(
        monkeypatch):
    # the eigenvector of the third smallest eigenvalue is the second
    # channel of a connected mesh (the constant one is skipped); moved off
    # its eigenspace, it fails the solves' gate
    eigsh = features.spla.eigsh

    def perturbed(*args, **kwargs):
        w, V = eigsh(*args, **kwargs)
        j = np.argsort(w)[2]
        x = V[:, j] + 1e-4 * np.random.default_rng(5).normal(size=len(V))
        V[:, j] = x / np.linalg.norm(x)
        return w, V

    mesh = random_closed(800, seed=3)
    feature_field(mesh, 4)  # unperturbed, every channel passes
    monkeypatch.setattr(features.spla, "eigsh", perturbed)
    with pytest.raises(NumericError, match=r"channel 1 \(eigenvalue") as exc:
        feature_field(mesh, 4)
    assert "residual" in str(exc.value)


def _assert_matches_dense_oracle(mesh, field):
    n = field.values.shape[1]
    w, V = dense_spectral_channels(build_laplacian(mesh), mesh.face_areas, n)
    assert np.abs(field.eigenvalues - w).max() <= 1e-10
    signs = np.sign(np.sum(V * field.values, axis=0))
    assert np.abs(V * signs - field.values).max() <= 1e-8


def test_arpack_matches_dense_eigh_on_small_mesh(monkeypatch):
    # a small mesh (690 faces) goes through ARPACK like any other, and
    # its shift-invert operator is the one SPD factor of L - sigma I
    calls = _record_arpack_calls(monkeypatch)
    factored = []
    direct_solve = features._DirectSolve

    def recording(matrix, image):
        factored.append(matrix)
        return direct_solve(matrix, image)

    monkeypatch.setattr(features, "_DirectSolve", recording)
    mesh = random_closed(800, seed=3)
    assert mesh.n_faces <= 3000
    field = feature_field(mesh, 4)
    assert len(calls) == 1 and calls[0].get("OPinv") is not None
    assert len(factored) == 1
    sigma = calls[0]["sigma"]
    shifted = build_laplacian(mesh) - sigma * sp.identity(mesh.n_faces)
    assert sigma < 0 and (factored[0] != shifted).nnz == 0
    _assert_matches_dense_oracle(mesh, field)


@pytest.mark.parametrize("n_faces, n_segments, fits", [
    (4, 2, False),   # the smallest connected request: K + 2 = 4 >= T
    (5, 2, True),    # K + 2 = 4 < T
    (10, 7, True),   # K + 2 = T - 1
    (10, 8, False),  # K + 2 = T
])
def test_both_sides_of_the_arpack_condition_agree(
        monkeypatch, n_faces, n_segments, fits):
    # a connected mesh asks ARPACK for K + 2 pairs where that is below T,
    # and for T - 1, the most it returns, where it is not
    calls = _record_arpack_calls(monkeypatch)
    mesh = triangle_strip(n_faces)
    field = feature_field(mesh, n_segments)
    assert [c["k"] for c in calls] == [
        n_segments + 2 if fits else n_faces - 1]
    path = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n_segments) / n_faces)
    assert np.abs(field.eigenvalues - path).max() <= 1e-10
    _assert_matches_dense_oracle(mesh, field)


def test_a_request_for_every_eigenpair_is_refused():
    # K = T channels need all T eigenpairs, one more than ARPACK returns
    for mesh in (path_strip(), two_components(), triangle_strip(10)):
        T = mesh.n_faces
        with pytest.raises(FeatureError, match=f"informative channels "
                                               f"available, need {T - 1}"):
            feature_field(mesh, T)


def test_feature_field_argument_errors():
    mesh = square_axis_pair()
    with pytest.raises(FeatureError):
        feature_field(mesh, 1)
    with pytest.raises(FeatureError):
        feature_field(mesh, 3)  # needs 2 channels but only 2 faces


@pytest.mark.parametrize("n_segments", [2.5, 2.0, True, "3", None])
def test_feature_field_needs_an_integer_segment_count(n_segments):
    with pytest.raises(ParameterError,
                       match=f"n_segments must be an integer, got "
                             f"{re.escape(repr(n_segments))}"):
        feature_field(random_closed(40, seed=0), n_segments)


def test_feature_field_rejects_an_unknown_ring():
    with pytest.raises(ParameterError, match="ring must be one of"):
        feature_field(random_closed(40, seed=0), 2, ring="n3")


def test_laplacian_matches_edge_loop():
    mesh = random_patch(200, seed=5)  # dbar is taken over interior edges
    normals = smoothed_normals(mesh)
    pairs = _interior_pairs(mesh)
    lengths = mesh.edge_lengths[~mesh.boundary_edge]
    d = [np.sum((normals[i] - normals[j]) ** 2) for i, j in pairs]
    dbar = np.mean(d)
    want = np.zeros((mesh.n_faces, mesh.n_faces))
    for (i, j), l_e, d_e in zip(pairs, lengths, d):
        w = l_e * np.exp(-d_e / dbar)
        want[[i, j], [j, i]] -= w
        want[[i, j], [i, j]] += w
    L = build_laplacian(mesh)
    assert L.nnz == mesh.n_faces + 2 * len(pairs)
    assert np.abs(L.toarray() - want).max() <= 1e-15 * np.abs(want).max()


def test_flipped_patch_matches_its_twin():
    twin = random_closed(300, seed=3)
    centroids = twin.vertices[twin.faces].mean(axis=1)
    patch = np.flatnonzero(centroids[:, 2] > 0.3)
    assert 0 not in patch and len(patch) > 100
    faces = np.array(twin.faces)
    faces[patch] = faces[patch][:, [0, 2, 1]]
    with pytest.warns(RuntimeWarning,
                      match=f"reversed the winding of {len(patch)} face"):
        mesh = TriMesh(twin.vertices, faces)
    assert tv_energy(mesh, np.ones(mesh.n_faces)) == 0.0
    field = feature_field(mesh, 3)
    twin_field = feature_field(twin, 3)
    assert np.array_equal(field.values, twin_field.values)
    params = SolverParams(k=3)
    assert np.array_equal(segment(mesh, field.values, params).labels,
                          segment(twin, twin_field.values, params).labels)
