"""Solver unit tests: projections, prox maps, subproblem solves, the
inner sweep, initialization, the outer loop and diagnostics."""

import dataclasses
import sys
import threading
import types
from concurrent.futures import Future

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import minimize_scalar

import msseg.calculus
import msseg.solver
from msseg.calculus import (_SOLVE_RTOL, BiharmonicPrior, _DirectSolve,
                            _gate, divergence, gradient, inner_U, norm_U,
                            tv_energy)
from msseg.errors import (DimensionError, InitializationError, NumericError,
                          ParameterError)
from msseg.features import build_laplacian, feature_field
from msseg.mesh import TriMesh, load_off
from msseg.solver import (
    MODES,
    SolverParams,
    SolverState,
    Systems,
    admm_inner,
    energy,
    estimate_alpha,
    init_labels,
    initial_state,
    kkt_residuals,
    project_simplex,
    prox_p,
    prox_q,
    s_field,
    segment,
    solve_b,
    solve_u,
    solve_v,
    update_mu,
    update_z,
)

from _meshes import (
    TETRA_OFF,
    bumpy_revolution,
    disjoint_triangles,
    dumbbell,
    equilateral,
    fan5,
    flat_patch,
    random_closed,
    random_patch,
    square_axis_pair,
    strip10,
    unit_area_pair,
)
from _reference import (biharmonic_b, dense_operators, dense_prior,
                        divergence_prescaled, fd_gradient, interior_edge_v,
                        project_simplex_sort, row_norms_linalg,
                        simplex_bisect, solve_u_prescaled,
                        solve_v_prescaled, tv_energy_prescaled,
                        vectorial_rtgv_prescaled)


# -- parameter validation ------------------------------------------------------


def test_params_validation():
    SolverParams(k=2)
    for kw in ({"k": 1}, {"mode": "tv"}, {"alpha": -1.0}, {"eta": 0.0},
               {"r_z": -5.0}, {"inner_iters": 0}, {"max_outer": 0}):
        with pytest.raises(ParameterError):
            SolverParams(**{"k": 2, **kw})

    # wrong types fail typed, the integer type before any range check
    for kw in ({"inner_iters": 2.5}, {"max_outer": 2.5}, {"seed": 1.5},
               {"k": 2.0}, {"inner_iters": True}, {"alpha": "3"},
               {"eta": "1"}, {"r_z": None}, {"alpha": True}):
        with pytest.raises(ParameterError, match=next(iter(kw))):
            SolverParams(**{"k": 2, **kw})
    SolverParams(k=np.int64(3), inner_iters=np.int32(2), seed=np.uint8(1),
                 alpha=np.float64(2.5), eta=np.float32(1e-5))


def test_params_are_frozen():
    params = SolverParams(k=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.r_p = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.alpha = 1.0
    assert params.r_p == 1.0 and params.alpha is None


@pytest.mark.parametrize("name, value", [
    ("r_p", 0.0), ("alpha", float("inf")), ("alpha", float("nan")),
    ("mode", "tv"), ("k", 1)])
def test_params_replace_checks_the_copy(name, value):
    # segment carries the estimated alpha in such a copy
    with pytest.raises(ParameterError, match=name):
        dataclasses.replace(SolverParams(k=2), **{name: value})
    assert dataclasses.replace(SolverParams(k=2), alpha=2.5).alpha == 2.5


# -- simplex projection --------------------------------------------------------


def test_simplex_feasible_point_unchanged():
    assert np.allclose(project_simplex(np.array([[0.6, 0.4]])), [[0.6, 0.4]])


def test_simplex_symmetric_point():
    out = project_simplex(np.array([[0.5, 0.5, 0.5]]))
    assert np.allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


def test_simplex_vertex_case():
    assert np.allclose(project_simplex(np.array([[2.0, 0.0]])), [[1.0, 0.0]])


def test_simplex_idempotent_and_feasible():
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(200, 4)) * 3.0
    out = project_simplex(rows)
    assert np.allclose(project_simplex(out), out, atol=1e-12)
    assert (out >= 0).all()
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12


def test_simplex_large_magnitude_rows_stay_feasible():
    rng = np.random.default_rng(1)
    for scale in (1e9, 1e15, 1e18):
        rows = rng.normal(size=(50, 3)) * scale
        out = project_simplex(rows)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9
        assert (out >= 0).all()


def test_simplex_matches_bisection_oracle():
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(300, 5)) * rng.choice(
        [0.1, 1.0, 10.0], size=(300, 1)
    )
    assert np.abs(project_simplex(rows) - simplex_bisect(rows)).max() < 1e-9


@pytest.mark.parametrize("K", range(1, 21))
def test_simplex_is_bitwise_the_row_wise_sort(K):
    # the sorting network and running column sums against np.sort,
    # np.cumsum and argmax along each row
    rng = np.random.default_rng(40 + K)
    T = 300
    rows = rng.normal(size=(T, K))
    cases = {
        "normal": rows,
        "ties": 0.5 * rng.integers(-2, 3, size=(T, K)),
        "repeated columns": rows[:, rng.integers(0, K, size=K)],
        "constant rows": np.repeat(rows[:, :1], K, axis=1),
        "scaled": rows * 10.0 ** rng.choice([-12.0, 12.0], size=(T, 1)),
        "on the simplex": project_simplex_sort(rng.normal(size=(T, K))),
        "vertices": np.eye(K)[rng.integers(0, K, size=T)],
        "barycenters": np.full((T, K), 1.0 / K),
    }
    for name, case in cases.items():
        want = project_simplex_sort(case)
        assert np.array_equal(project_simplex(case), want), name
        assert np.array_equal(project_simplex(case[7:8]), want[7:8]), name


# -- shrinkage prox maps -------------------------------------------------------


def test_prox_p_zero_and_halving():
    assert np.allclose(prox_p(np.zeros((3, 2)), 1.0), 0.0)
    w = np.array([[2.0, 0.0], [0.0, -2.0]])  # row norms 2, r_p = 1
    assert np.allclose(prox_p(w, 1.0), w / 2.0, atol=1e-15)


def test_prox_p_dead_zone():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(40, 3))
    w *= 0.9 / (2.0 * np.linalg.norm(w, axis=1, keepdims=True))  # norms < 1/2
    assert np.allclose(prox_p(w, 2.0), 0.0)


def test_prox_q_halving():
    alpha0, r_q = 2.0, 0.5
    c = np.array([[2.0 * alpha0 / r_q, 0.0]])
    assert np.allclose(prox_q(c, r_q, alpha0), c / 2.0, atol=1e-15)


def test_prox_matches_scalar_oracle_spot():
    rng = np.random.default_rng(4)
    r_p, r_q, alpha0 = 1.7, 0.8, 2.5
    for _ in range(25):
        row = rng.normal(size=3) * rng.choice([0.2, 1.0, 5.0])
        got = prox_p(row[None], r_p)[0]
        n = np.linalg.norm(row)
        res = minimize_scalar(
            lambda t: t + 0.5 * r_p * (t - n) ** 2,
            bounds=(0.0, n + 1.0), method="bounded",
            options={"xatol": 1e-12},
        )
        assert np.allclose(got, row * (max(res.x, 0.0) / n), atol=1e-7)
        got_q = prox_q(row[None], r_q, alpha0)[0]
        res_q = minimize_scalar(
            lambda t: alpha0 * t + 0.5 * r_q * (t - n) ** 2,
            bounds=(0.0, n + 1.0), method="bounded",
            options={"xatol": 1e-12},
        )
        assert np.allclose(got_q, row * (max(res_q.x, 0.0) / n), atol=1e-7)


# -- data step -----------------------------------------------------------------


def test_s_field_values():
    f = np.array([[0.0], [1.0]])
    b = np.zeros((2, 1))
    mu = np.array([[0.0], [1.0]])
    assert np.allclose(s_field(f, b, mu), [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("T,K,n", [(500, 9, 8), (300, 2, 1), (50, 3, 5)])
def test_s_field_bitwise_equal_to_broadcast_form(T, K, n):
    rng = np.random.default_rng(T + K + n)
    f = rng.normal(size=(T, n)) * 10.0
    b = rng.normal(size=(T, n))
    mu = rng.normal(size=(K, n)) * 3.0
    # smooth = 0: the k-means distance of init_labels and _kmeans_pp
    for smooth in (b, 0.0):
        squares = ((f - smooth)[:, None, :] - mu[None]) ** 2
        in_order = squares[:, :, 0]
        for j in range(1, n):
            in_order = in_order + squares[:, :, j]
        got = s_field(f, smooth, mu)
        assert np.array_equal(got, in_order)
        if n < 8:  # numpy's row sums add in sequence below 8 terms
            assert np.array_equal(got, squares.sum(axis=2))


def test_update_z_fixed_point():
    u = np.array([[0.3, 0.7], [1.0, 0.0]])
    z = update_z(u, np.zeros_like(u), np.zeros_like(u), 1.0, 100.0)
    assert np.allclose(z, u, atol=1e-12)


def test_update_z_huge_alpha_gives_argmin_indicator():
    rng = np.random.default_rng(5)
    u = project_simplex(rng.normal(size=(30, 4)))
    s = rng.random(size=(30, 4))
    z = update_z(u, np.zeros_like(u), s, 1e9, 100.0)
    expected = np.zeros_like(z)
    expected[np.arange(30), np.argmin(s, axis=1)] = 1.0
    assert np.allclose(z, expected, atol=1e-6)


def test_update_z_rows_feasible():
    rng = np.random.default_rng(6)
    z = update_z(rng.normal(size=(50, 3)), rng.normal(size=(50, 3)),
                 rng.random(size=(50, 3)), 2.0, 100.0)
    assert (z >= 0).all()
    assert np.abs(z.sum(axis=1) - 1.0).max() < 1e-9


# -- class means ---------------------------------------------------------------


def test_update_mu_one_hot_is_class_mean():
    mesh = fan5()
    f = np.arange(5.0)[:, None]
    u = np.zeros((5, 2))
    u[:3, 0] = 1.0
    u[3:, 1] = 1.0
    mu = update_mu(mesh, u, np.zeros((5, 1)), f)
    A = mesh.face_areas
    assert mu[0, 0] == pytest.approx((A[:3] @ f[:3, 0]) / A[:3].sum())
    assert mu[1, 0] == pytest.approx((A[3:] @ f[3:, 0]) / A[3:].sum())


def test_update_mu_uniform_u_gives_global_mean():
    mesh = fan5()
    rng = np.random.default_rng(7)
    f = rng.normal(size=(5, 2))
    b = rng.normal(size=(5, 2))
    u = np.full((5, 3), 1.0 / 3.0)
    mu = update_mu(mesh, u, b, f)
    A = mesh.face_areas
    mean = (A[:, None] * (f - b)).sum(axis=0) / A.sum()
    assert np.allclose(mu, np.tile(mean, (3, 1)), atol=1e-12)


def test_update_mu_empty_class_keeps_previous_and_warns():
    mesh = fan5()
    f = np.ones((5, 1))
    u = np.zeros((5, 2))
    u[:, 0] = 1.0
    prev = np.array([[0.5], [9.0]])
    with pytest.warns(RuntimeWarning, match="zero mass"):
        mu = update_mu(mesh, u, np.zeros((5, 1)), f, prev_mu=prev)
    assert mu[1, 0] == 9.0
    assert mu[0, 0] == pytest.approx(1.0)


def test_update_mu_empty_class_without_fallback_raises():
    mesh = fan5()
    u = np.zeros((5, 2))
    u[:, 0] = 1.0
    with pytest.raises(ParameterError):
        update_mu(mesh, u, np.zeros((5, 1)), np.ones((5, 1)))


# -- alpha heuristic -----------------------------------------------------------


def test_estimate_alpha_zero_denominator_falls_back():
    mesh = unit_area_pair()
    f = np.array([[0.0], [1.0]])
    u0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    mu0 = np.array([[0.0], [1.0]])  # exact fit: denominator 0
    params = SolverParams(k=2)
    with pytest.warns(RuntimeWarning, match="degenerate alpha"):
        alpha = estimate_alpha(mesh, f, u0, mu0, params)
    assert alpha == 1.0


def test_estimate_alpha_zero_numerator_falls_back():
    mesh = unit_area_pair()
    f = np.array([[0.0], [1.0]])
    u0 = np.array([[1.0, 0.0], [1.0, 0.0]])  # single class: zero perimeter
    mu0 = np.array([[0.3], [0.9]])
    params = SolverParams(k=2)
    with pytest.warns(RuntimeWarning, match="degenerate alpha"):
        alpha = estimate_alpha(mesh, f, u0, mu0, params)
    assert alpha == 1.0


def test_overflowing_alpha_estimate_falls_back():
    # a two-valued signal plus 1e-155 noise leaves a subnormal misfit
    # (den = 5.3e-311) after k-means, and the quotient overflows to inf;
    # the caller left alpha to the estimate, so the run goes on at the
    # fallback
    mesh = random_patch(200, 5)
    T = mesh.n_faces
    f = np.where(np.arange(T) < T // 2, 0.0, 1.0)[:, None]
    f = f + 1e-155 * np.random.default_rng(0).normal(size=f.shape)
    with pytest.warns(RuntimeWarning, match="degenerate alpha"):
        result = segment(mesh, f, SolverParams(k=2, max_outer=3))
    assert result.alpha == 1.0


# -- quadratic subproblem solves -------------------------------------------------


def test_solve_u_no_tv_limit_is_diagonal():
    mesh = fan5()
    rng = np.random.default_rng(9)
    z = rng.normal(size=(5, 2))
    lam_z = rng.normal(size=(5, 2))
    zeros = np.zeros((mesh.n_edges, 2))
    systems = Systems(mesh, SolverParams(k=2, mode="pcms", alpha=1.0,
                                         r_p=1e-15, r_z=50.0))
    u = solve_u(mesh, z, lam_z, zeros, zeros, zeros, systems)
    assert np.allclose(u, z + lam_z / 50.0, atol=1e-13)


def test_solve_u_two_face_closed_form():
    mesh = square_axis_pair()
    rng = np.random.default_rng(10)
    K, E = 2, mesh.n_edges
    z = rng.normal(size=(2, K))
    lam_z = rng.normal(size=(2, K))
    p = rng.normal(size=(E, K))
    v = rng.normal(size=(E, K))
    lam_p = rng.normal(size=(E, K))
    r_p, r_z = 1.3, 80.0
    systems = Systems(mesh, SolverParams(k=K, mode="pcms", alpha=1.0, r_p=r_p,
                                         r_z=r_z))
    got = solve_u(mesh, z, lam_z, p, v, lam_p, systems)
    A, l, _, Gb, _ = dense_operators(mesh)
    M = r_p * Gb.T @ (l[:, None] * Gb) + r_z * np.diag(A)
    rhs = A[:, None] * (r_z * z + lam_z) \
        + Gb.T @ (l[:, None] * (lam_p + r_p * (p + v)))
    assert np.allclose(got, np.linalg.solve(M, rhs), atol=1e-12)


def test_solve_v_single_triangle_diagonal_case():
    mesh = equilateral()
    rng = np.random.default_rng(11)
    p = rng.normal(size=(3, 2))
    lam_p = rng.normal(size=(3, 2))
    u = rng.normal(size=(1, 2))
    r_p = 2.0
    systems = Systems(mesh, SolverParams(k=2, alpha=1.0, r_p=r_p, r_q=1.0))
    v = solve_v(mesh, gradient(mesh, u), p, lam_p, np.zeros((1, 2)),
                np.zeros((1, 2)), systems)
    assert np.allclose(v, -p - lam_p / r_p, atol=1e-13)


def test_solve_v_returns_consistent_stationary_point():
    mesh = flat_patch(2)
    rng = np.random.default_rng(12)
    K = 2
    u = rng.normal(size=(mesh.n_faces, K))
    v_star = rng.normal(size=(mesh.n_edges, K))
    p = gradient(mesh, u) - v_star
    q = divergence(mesh, v_star)
    zeros_e = np.zeros_like(v_star)
    zeros_t = np.zeros_like(q)
    systems = Systems(mesh, SolverParams(k=K, alpha=1.0, r_p=1.0, r_q=1.0))
    v = solve_v(mesh, gradient(mesh, u), p, zeros_e, q, zeros_t, systems)
    assert np.allclose(v, v_star, atol=1e-10)


# the meshes of the v and b oracles; S = 0 on disjoint_triangles
ORACLE_MESHES = pytest.mark.parametrize("make", [
    flat_patch, lambda: random_patch(200, 5), strip10, equilateral,
    disjoint_triangles,
], ids=["flat_patch", "random_patch", "strip10", "equilateral",
        "disjoint_triangles"])


@ORACLE_MESHES
def test_solve_v_matches_interior_edge_oracle(make):
    mesh = make()
    rng = np.random.default_rng(13)
    T, E, K = mesh.n_faces, mesh.n_edges, 3
    u = rng.normal(size=(T, K))
    p, lam_p = rng.normal(size=(2, E, K))
    q, lam_q = rng.normal(size=(2, T, K))
    r_p, r_q = 2.0, 0.5
    systems = Systems(mesh, SolverParams(k=K, alpha=1.0, r_p=r_p, r_q=r_q))
    v = solve_v(mesh, gradient(mesh, u), p, lam_p, q, lam_q, systems)
    want = interior_edge_v(mesh, u, p, lam_p, q, lam_q, r_p, r_q)
    assert np.abs(v - want).max() <= 1e-12 * (1.0 + np.abs(want).max())
    # the edge system itself, boundary rows included
    _, _, _, Gb, Dmat = dense_operators(mesh)
    M = r_p * np.eye(E) - r_q * Gb @ Dmat
    rhs = -Gb @ (lam_q + r_q * q) - lam_p + r_p * (Gb @ u - p)
    assert np.linalg.norm(M @ v - rhs) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("make", [
    lambda: flat_patch(3), lambda: random_patch(12, 1),
    lambda: random_patch(15, 2), strip10, square_axis_pair,
], ids=["flat_patch3", "random_patch12", "random_patch15", "strip10",
        "square_axis_pair"])
def test_subproblem_solves_are_stationary_on_open_meshes(make, lane):
    # criterion 04 on open meshes, with edge inputs that are non-zero on
    # boundary edges and objectives written with the dense operators
    mesh = make()
    rng = np.random.default_rng(14)
    T, E, K = mesh.n_faces, mesh.n_edges, 3
    r_p, r_q, r_z = 1.0, 1.0, 100.0
    alpha, beta, eta = 2.0, 1.5, 1e-5
    z = project_simplex(rng.normal(size=(T, K)))
    lam_z, q, lam_q = rng.normal(size=(3, T, K))
    p, v, lam_p = rng.normal(size=(3, E, K))
    f = rng.normal(size=(T, K - 1))
    mu = rng.normal(size=(K, K - 1))
    A, l, _, Gb, Dmat = dense_operators(mesh)

    def sq_U(a):
        return np.sum(A[:, None] * a * a)

    def sq_V(a):
        return np.sum(l[:, None] * a * a)

    def obj_u(uu):
        return 0.5 * r_z * sq_U(uu - z - lam_z / r_z) \
            + 0.5 * r_p * sq_V(Gb @ uu - (p + v + lam_p / r_p))

    def obj_v(vv):
        return 0.5 * r_p * sq_V(vv - (Gb @ u_sol - p - lam_p / r_p)) \
            + 0.5 * r_q * sq_U(Dmat @ vv - (q + lam_q / r_q))

    def obj_b(bb):
        s = ((f[:, None, :] - bb[:, None, :] - mu[None]) ** 2).sum(axis=2)
        return 0.5 * beta * sq_U(Dmat @ Gb @ bb) + 0.5 * eta * sq_U(bb) \
            + 0.5 * alpha * np.sum(A[:, None] * z * s)

    systems = Systems(
        mesh, SolverParams(k=K, r_p=r_p, r_q=r_q, r_z=r_z, eta=eta,
                           alpha=alpha, beta_ratio=beta / alpha))
    u_sol = solve_u(mesh, z, lam_z, p, v, lam_p, systems)
    v_sol = solve_v(mesh, gradient(mesh, u_sol), p, lam_p, q, lam_q,
                    systems)
    b_sol = solve_b(mesh, f, z, mu, systems, lane).result()
    for name, fun, x in (("u", obj_u, u_sol), ("v", obj_v, v_sol),
                         ("b", obj_b, b_sol)):
        g = fd_gradient(fun, x)
        assert np.linalg.norm(g) <= 1e-4 * (1.0 + abs(fun(x))), name


def test_solve_b_zero_right_side(lane):
    mesh = load_off(TETRA_OFF)
    z = np.zeros((4, 2))
    z[:, 0] = 1.0
    mu = np.array([[0.7], [2.0]])
    f = z @ mu  # exact piecewise fit
    systems = Systems(mesh, SolverParams(k=2, mode="psms", eta=1e-5,
                                         alpha=5.0, beta_ratio=3.0 / 5.0))
    b = solve_b(mesh, f, z, mu, systems, lane).result()
    assert np.allclose(b, 0.0, atol=1e-12)


def test_solve_b_constant_right_side_closed_mesh(lane):
    # on a closed mesh the laplacian annihilates constants, so a constant
    # right side yields b = alpha * c / (eta + alpha) exactly, at any beta
    mesh = load_off(TETRA_OFF)
    z = np.zeros((4, 2))
    z[:, 0] = 1.0
    mu = np.array([[0.0], [5.0]])
    c = 1.4
    f = np.full((4, 1), c)
    alpha, eta = 2.0, 1e-5
    for beta in (1.0, 1e6 * alpha):
        systems = Systems(mesh, SolverParams(k=2, mode="psms", eta=eta,
                                             alpha=alpha,
                                             beta_ratio=beta / alpha))
        b = solve_b(mesh, f, z, mu, systems, lane).result()
        assert np.allclose(b, alpha * c / (eta + alpha), atol=1e-8)


@ORACLE_MESHES
@pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("alpha", [1.0, 1e4, 1e28])
def test_solve_b_matches_biharmonic_oracle(make, scale, alpha, lane):
    # alpha = 1e28 is the data weight of the collapsed bumpy35k features;
    # on random_patch at scale 0.01 a sliver face (area ratio 750) makes
    # |B| |b| 1e9 |rhs| there, so even the exactly rounded b has a residual
    # of 3e-8 |rhs|: only a backward-error gate lets that case pass
    base = make()
    mesh = TriMesh(scale * base.vertices, base.faces)
    rng = np.random.default_rng(15)
    T, K = mesh.n_faces, 3
    z = project_simplex(rng.normal(size=(T, K)))
    f = rng.normal(size=(T, K - 1))
    mu = rng.normal(size=(K, K - 1))
    params = SolverParams(k=K, mode="psms", alpha=alpha)
    b = solve_b(mesh, f, z, mu, Systems(mesh, params), lane).result()
    want = biharmonic_b(mesh, f, z, mu, alpha, params.beta, params.eta)
    assert np.abs(b - want).max() <= 1e-10 * (1.0 + np.abs(want).max())
    # the residual of the real system, with the dense operators
    A, _, _, Gb, Dmat = dense_operators(mesh)
    Delta = Dmat @ Gb
    rhs = alpha * A[:, None] * (f - z @ mu)
    B = params.beta * (Delta.T * A) @ Delta + (params.eta + alpha) * np.diag(A)
    res = B @ b - rhs
    assert np.linalg.norm(res) <= _SOLVE_RTOL * (
        np.linalg.norm(B, np.inf) * np.linalg.norm(b) + np.linalg.norm(rhs))


@ORACLE_MESHES
def test_prior_matches_dense_oracle(make):
    # apply, energy and the KKT block of b against the dense Delta' W Delta
    mesh = make()
    rng = np.random.default_rng(19)
    T, E, K = mesh.n_faces, mesh.n_edges, 3
    params = SolverParams(k=K, mode="psms", alpha=2.0, beta_ratio=0.7)
    P, value = dense_prior(mesh, params.beta)
    prior = BiharmonicPrior(mesh, params.beta)
    b = rng.normal(size=(T, K - 1))
    got, want = prior.apply(b), P @ b
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert abs(prior.energy(b) - value(b)) <= 1e-12 * value(b)
    face, edge = rng.normal(size=(5, T, K)), rng.normal(size=(3, E, K))
    state = SolverState(u=face[0], z=face[1], b=b, v=edge[0], p=edge[1],
                        q=face[2], lam_p=edge[2], lam_q=face[3],
                        lam_z=face[4], mu=rng.normal(size=(K, K - 1)))
    f = rng.normal(size=(T, K - 1))
    c = params.eta + params.alpha
    res = (P @ b) / mesh.face_areas[:, None] + c * b \
        - params.alpha * (f - state.z @ state.mu)
    want = norm_U(mesh, res)
    got = kkt_residuals(mesh, f, state, params)["b_stationarity"]
    assert abs(got - want) <= 1e-12 * want


def test_b_gate_checks_the_real_system():
    # a factor taken at 1.01 c solves its own complex system, but not the
    # real system of the stored coefficients, and the gate checks the latter
    mesh = random_patch(200, 5)
    params = SolverParams(k=3, mode="psms", alpha=2.0)
    b_solve = Systems(mesh, params).b_solve
    rhs = np.random.default_rng(16).normal(size=(mesh.n_faces, 2))
    b_solve(rhs)
    c = 1.01 * (params.eta + params.alpha)
    matrix = np.sqrt(params.beta) * b_solve.S \
        - 1j * np.sqrt(c) * sp.diags(mesh.face_areas)
    off = _DirectSolve(matrix, matrix.__matmul__)
    off(rhs)
    b_solve._lu = off._lu
    with pytest.raises(NumericError, match="residual"):
        b_solve(rhs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gate_rejects_one_non_finite_entry(bad):
    # a NaN or inf in x makes the residual and its bound NaN or inf, and
    # neither compares above the other
    areas = np.array([1.0, 2.0, 3.0])
    solve = _DirectSolve(sp.diags(areas), lambda x: areas[:, None] * x)
    rhs = np.ones((3, 2))
    solve(rhs)
    rhs[1, 0] = bad  # the diagonal system keeps it to one entry of x
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericError, match="residual"):
        solve(rhs)
    # an eigenpair, checked as feature_field checks it
    L = build_laplacian(random_closed(80, 10))
    w, V = np.linalg.eigh(L.toarray())
    lam, x = w[1], V[:, 1]
    norm = 2 * L.diagonal().max() + abs(lam)
    _gate(x, L @ x - lam * x, 0.0, norm)
    x[5] = bad
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericError, match="residual"):
        _gate(x, L @ x - lam * x, 0.0, norm)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("mode", MODES)
def test_gate_passes_finite_solutions_whose_norms_overflow(mode):
    # at alpha = 1e300 the norms of the b system's right side overflow to
    # inf, and the gate passes the finite solutions as it always did
    mesh = dumbbell()
    f = feature_field(mesh, 2).values
    result = segment(mesh, f, SolverParams(k=2, mode=mode, alpha=1e300,
                                           max_outer=5))
    assert len(result.error_trace) == 5
    assert np.isfinite(result.u).all() and np.isfinite(result.b).all()


def test_solves_return_c_ordered_float_arrays(lane):
    # SuperLU returns Fortran order; the solves hand back C order
    mesh = random_patch(200, 5)
    rng = np.random.default_rng(17)
    T, E, K = mesh.n_faces, mesh.n_edges, 3
    systems = Systems(mesh, SolverParams(k=K, mode="gpsms", alpha=2.0))
    face = rng.normal(size=(T, K))
    edge = rng.normal(size=(E, K))
    z = project_simplex(face)
    u = solve_u(mesh, z, face, edge, edge, edge, systems)
    out = {
        "solve_u": u,
        "solve_v": solve_v(mesh, gradient(mesh, u), edge, edge, face, face,
                           systems),
        "solve_b": solve_b(mesh, rng.normal(size=(T, K - 1)), z,
                           rng.normal(size=(K, K - 1)), systems,
                           lane).result(),
        "_DirectSolve": systems.u_solve(face),
        "BiharmonicPrior": systems.b_solve(face),
    }
    for name, x in out.items():
        assert x.dtype == np.float64 and x.shape[1] > 1, name
        assert x.flags.c_contiguous, name


@pytest.mark.parametrize("system", ["u", "b"])
def test_factor_settings_keep_fill_and_solutions(system):
    # relax=1, panel_size=1 against SuperLU's default supernode settings
    mesh = random_patch(200, 5)
    params = SolverParams(k=3, mode="psms", alpha=2.0)
    systems = Systems(mesh, params)
    # the matrices of the factors, which the solves do not keep
    if system == "u":
        solve = systems.u_solve
        matrix = (params.r_p * mesh.S
                  + params.r_z * sp.diags(mesh.face_areas)).tocsc()
    else:
        solve = systems.b_solve
        matrix = (np.sqrt(params.beta) * mesh.S - 1j * np.sqrt(solve.c)
                  * sp.diags(mesh.face_areas)).tocsc()
    default = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True})

    def fill(lu):
        return lu.L.nnz + lu.U.nnz

    assert fill(solve._lu) <= fill(default)
    rhs = np.random.default_rng(18).normal(size=(mesh.n_faces, 2))
    want = default.solve(rhs)
    got = solve._lu.solve(rhs)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("mode", MODES)
def test_systems_and_segment_leave_the_mesh_matrices_unchanged(mode):
    # the factors are built from the mesh's frozen, canonical S, which no
    # factorization can sort or change, nor grad and grad_tl
    mesh = random_patch(200, 5)
    assert mesh.S.has_canonical_format
    matrices = {name: getattr(mesh, name) for name in ("S", "grad", "grad_tl")}
    before = {}
    for name, m in matrices.items():
        arrays = (m.data, m.indices, m.indptr)
        assert not any(arr.flags.writeable for arr in arrays), name
        before[name] = [arr.tobytes() for arr in arrays]
    params = SolverParams(k=3, mode=mode, alpha=2.0, max_outer=2, seed=1)
    Systems(mesh, params)
    segment(mesh, feature_field(mesh, 3).values, params)
    for name, m in matrices.items():
        assert getattr(mesh, name) is m, name
        assert [arr.tobytes() for arr in (m.data, m.indices, m.indptr)] \
            == before[name], name


def test_systems_b_factor_is_on_the_laplacian_pattern():
    mesh = random_patch(200, 5)
    systems = Systems(mesh, SolverParams(k=3, mode="gpsms", alpha=2.0))

    def fill(solve):
        return solve._lu.L.nnz + solve._lu.U.nnz

    assert fill(systems.b_solve) <= fill(systems.u_solve)


def _held_matrices(obj, seen):
    """The sparse matrices ``obj`` reaches through its attributes, the
    closure cells of its functions and the instances of its bound methods;
    a mesh is shared, not held, and is not entered."""
    if id(obj) in seen or isinstance(obj, (TriMesh, np.ndarray, type)):
        return []
    seen.add(id(obj))
    if sp.issparse(obj):
        return [obj]
    if isinstance(obj, types.MethodType):
        inner = [obj.__self__]
    elif isinstance(obj, types.FunctionType):
        inner = [cell.cell_contents for cell in obj.__closure__ or ()]
    elif isinstance(obj, (list, tuple)):
        inner = list(obj)
    else:
        inner = list(getattr(obj, "__dict__", {}).values())
    return [m for x in inner for m in _held_matrices(x, seen)]


@pytest.mark.parametrize("mode", MODES)
def test_solves_hold_no_matrix_but_the_mesh_laplacian(mode):
    # the u and v solves keep their factors only, and their gates form
    # B x from mesh.S and the areas, as the prior's does
    mesh = random_patch(200, 5)
    systems = Systems(mesh, SolverParams(k=3, mode=mode, alpha=2.0))
    solves = [s for s in (systems.u_solve, systems.v_solve, systems.b_solve)
              if s is not None]
    held = _held_matrices(solves, set())
    assert held and all(m is mesh.S for m in held)


# -- inner sweep ----------------------------------------------------------------


def make_fixed_point_state(mesh):
    """A consistent KKT point: constant one-hot u, exact piecewise fit,
    all splitting variables and multipliers at zero."""
    T, E = mesh.n_faces, mesh.n_edges
    u = np.zeros((T, 2))
    u[:, 0] = 1.0
    return SolverState(
        u=u, z=u.copy(), b=np.zeros((T, 1)),
        v=np.zeros((E, 2)), p=np.zeros((E, 2)), q=np.zeros((T, 2)),
        lam_p=np.zeros((E, 2)), lam_q=np.zeros((T, 2)),
        lam_z=np.zeros((T, 2)), mu=np.array([[0.0], [1.0]]),
    )


def test_admm_inner_fixed_point_unchanged(lane):
    mesh = square_axis_pair()
    state = make_fixed_point_state(mesh)
    before = state.copy()
    f = np.zeros((2, 1))  # f = z @ mu exactly
    params = SolverParams(k=2, mode="gpsms", alpha=1.0)
    admm_inner(mesh, f, state, Systems(mesh, params), lane)
    for name in ("u", "z", "b", "v", "p", "q", "lam_p", "lam_q", "lam_z"):
        assert np.allclose(getattr(state, name), getattr(before, name),
                           atol=1e-8), name


def test_multiplier_update_identities_exact(lane):
    mesh = flat_patch(2)
    params = SolverParams(k=2, mode="gpsms", alpha=2.0, inner_iters=1)
    f = np.random.default_rng(14).normal(size=(mesh.n_faces, 1))
    state = initial_state(mesh, f, params)
    before = state.copy()
    admm_inner(mesh, f, state, Systems(mesh, params), lane)
    gu = gradient(mesh, state.u)
    dv = divergence(mesh, state.v)
    assert np.array_equal(
        state.lam_p, before.lam_p + params.r_p * (state.p + state.v - gu)
    )
    assert np.array_equal(
        state.lam_q, before.lam_q + params.r_q * (state.q - dv)
    )
    assert np.array_equal(
        state.lam_z, before.lam_z + params.r_z * (state.z - state.u)
    )


# -- initialization -------------------------------------------------------------


def test_init_labels_separated_clouds(monkeypatch):
    rng = np.random.default_rng(15)
    f = np.concatenate([rng.normal(0.0, 0.01, size=(10, 1)),
                        rng.normal(5.0, 0.01, size=(8, 1))])
    areas = np.ones(18)
    calls = _recording_kmeans_pp(monkeypatch, None)
    centers, u0 = init_labels(f, areas, 2, seed=0)
    assert len(calls) == 1
    labels = np.argmax(u0, axis=1)
    assert len(set(labels[:10])) == 1
    assert len(set(labels[10:])) == 1
    assert labels[0] != labels[10]


def test_init_labels_k_equals_faces_is_permutation():
    f = np.arange(4.0)[:, None]
    centers, u0 = init_labels(f, np.ones(4), 4, seed=1)
    assert np.allclose(u0.sum(axis=0), 1.0)
    assert np.allclose(u0.sum(axis=1), 1.0)


def test_init_labels_deterministic():
    rng = np.random.default_rng(16)
    f = rng.normal(size=(30, 2))
    a = init_labels(f, np.ones(30), 3, seed=7)
    b = init_labels(f, np.ones(30), 3, seed=7)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_init_labels_bad_k():
    with pytest.raises(InitializationError):
        init_labels(np.zeros((3, 1)), np.ones(3), 5, seed=0)


def test_init_labels_fails_on_fewer_distinct_rows_than_classes(
        monkeypatch):
    # two distinct rows for three classes: the third k-means++ center
    # would duplicate one of the first two, so the first draw gives up
    calls = _recording_kmeans_pp(monkeypatch, None)
    f = np.repeat([[0.0], [1.0]], 5, axis=0)
    with pytest.raises(InitializationError,
                       match="^fewer than k = 3 distinct feature rows "
                             "carry weight$"):
        init_labels(f, np.ones(10), 3, seed=0)
    assert len(calls) == 1


def test_init_labels_raises_on_an_empty_class_after_its_one_draw(
        monkeypatch):
    # centers 0, 9 and 16 give every class a row: {3, 4}, {6, 12}, {14};
    # the means 3.5, 9 and 14 then take 6 and 12 from class 1
    f = np.array([[3.0], [4.0], [6.0], [12.0], [14.0]])
    calls = _recording_kmeans_pp(monkeypatch, [[0.0], [9.0], [16.0]])
    with pytest.raises(InitializationError,
                       match="^a Lloyd step left a class with no mass$"):
        init_labels(f, np.ones(5), 3, seed=0)
    assert len(calls) == 1


def _recording_kmeans_pp(monkeypatch, first):
    """Replace ``_kmeans_pp`` by a recorder of its calls that returns
    ``first``, or draws as usual if ``first`` is None; returns the list of
    calls."""
    calls, draw = [], msseg.solver._kmeans_pp

    def recording(f, weights, k, rng):
        calls.append(k)
        if first is None:
            return draw(f, weights, k, rng)
        return np.array(first, dtype=float)

    monkeypatch.setattr(msseg.solver, "_kmeans_pp", recording)
    return calls


def test_init_labels_raises_on_a_class_with_faces_but_no_mass(monkeypatch):
    # four clouds of two faces, the last one weightless: centers at 0, 20
    # and 30 leave class 2 only the weightless faces
    f = np.repeat([[0.0], [10.0], [20.0], [30.0]], 2, axis=0)
    weights = np.array([1.0] * 6 + [0.0] * 2)
    calls = _recording_kmeans_pp(monkeypatch, [[0.0], [20.0], [30.0]])
    with pytest.raises(InitializationError,
                       match="^a Lloyd step left a class with no mass$"):
        init_labels(f, weights, 3, seed=0)
    assert len(calls) == 1


def test_initial_state_shapes():
    mesh = strip10()
    params = SolverParams(k=3)
    f = np.random.default_rng(17).normal(size=(10, 2))
    st = initial_state(mesh, f, params)
    assert st.u.shape == (10, 3)
    assert st.b.shape == (10, 2)
    assert st.v.shape == (mesh.n_edges, 3)
    assert st.mu.shape == (3, 2)
    assert np.allclose(st.u.sum(axis=1), 1.0)


# -- outer loop -----------------------------------------------------------------


def piecewise_constant_instance():
    mesh = strip10()
    centroids = mesh.vertices[mesh.faces].mean(axis=1)
    f = np.where(centroids[:, 0] < 2.5, 0.0, 1.0)[:, None]
    return mesh, f, (f[:, 0] > 0.5).astype(int)


def test_segment_piecewise_constant_converges_first_iteration():
    mesh, f, _ = piecewise_constant_instance()
    params = SolverParams(k=2, mode="psms", alpha=1000.0)
    result = segment(mesh, f, params)
    assert result.converged
    assert len(result.error_trace) == 1
    truth = (f[:, 0] > 0.5).astype(int)
    same = np.array_equal(result.labels, truth) \
        or np.array_equal(result.labels, 1 - truth)
    assert same


def test_segment_label_rows_on_simplex():
    mesh, f, _ = piecewise_constant_instance()
    result = segment(mesh, f, SolverParams(k=2, mode="gpsms", alpha=100.0))
    # z is the projected copy and is exactly feasible; u agrees with it up
    # to the z - u primal residual, with exact row sums
    z = result.state.z
    assert (z >= 0.0).all()
    assert np.abs(z.sum(axis=1) - 1.0).max() < 1e-9
    assert np.abs(result.u.sum(axis=1) - 1.0).max() < 1e-9
    gap = result.kkt["primal_z"]
    assert result.u.min() >= -max(10.0 * gap, 1e-9)
    assert result.u.max() <= 1.0 + max(10.0 * gap, 1e-9)


def test_segment_deterministic_across_runs():
    mesh = random_closed(40, seed=20)
    f = np.random.default_rng(18).normal(size=(mesh.n_faces, 1))
    params = SolverParams(k=2, mode="gpsms", alpha=10.0, max_outer=5,
                          seed=3)
    a = segment(mesh, f, params)
    b = segment(mesh, f, SolverParams(k=2, mode="gpsms", alpha=10.0,
                                      max_outer=5, seed=3))
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.u, b.u)
    assert a.error_trace == b.error_trace
    assert a.energy_trace == b.energy_trace


def replay_cases(test):
    """The 12 runs a replay test compares: K = 2 and 3, every mode, a
    closed and an open mesh."""
    for mark in (
            pytest.mark.parametrize("make_mesh",
                                    [lambda: random_closed(60, 31),
                                     lambda: random_patch(90, 32)],
                                    ids=["closed", "open"]),
            pytest.mark.parametrize("mode", MODES),
            pytest.mark.parametrize("k", [2, 3])):
        test = mark(test)
    return test


@replay_cases
def test_segment_replays_bitwise_with_row_wise_pieces(make_mesh, mode, k,
                                                      monkeypatch):
    # the column-wise sweep against its row-wise forms: sort-based simplex
    # projection, np.linalg.norm row norms and lengths broadcast over the
    # channels before the transposed gradient
    mesh = make_mesh()
    f = feature_field(mesh, k).values
    params = SolverParams(k=k, mode=mode, max_outer=8, seed=1)
    got = segment(mesh, f, params)
    for module, name, old in (
            (msseg.solver, "project_simplex", project_simplex_sort),
            (msseg.calculus, "row_norms", row_norms_linalg),
            (msseg.calculus, "divergence", divergence_prescaled),
            (msseg.solver, "divergence", divergence_prescaled),
            (msseg.solver, "solve_u", solve_u_prescaled),
            (msseg.solver, "solve_v", solve_v_prescaled),
            (msseg.calculus, "tv_energy", tv_energy_prescaled),
            (msseg.calculus, "vectorial_rtgv", vectorial_rtgv_prescaled)):
        monkeypatch.setattr(module, name, old)  # raises if name is gone
    want = segment(mesh, f, params)
    assert_same_run(got, want)


def assert_same_run(got, want):
    assert got.alpha == want.alpha
    for name in ("u", "b", "mu", "labels", "error_trace", "energy_trace"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.kkt == want.kkt


class InlineLane:
    """An executor that runs each submitted call at once, on the caller's
    thread: the serial sweep order z, u, v, b, ..."""

    def __init__(self, max_workers):
        assert max_workers == 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def admm_inner_plain(mesh, f, state, systems, lane):
    """The ADMM sweeps through the reference steps, b solved serially (z,
    u, v, b, p, ...) and the misfit formed every sweep."""
    params = systems.params
    r_p, r_q, r_z = params.r_p, params.r_q, params.r_z
    for _ in range(params.inner_iters):
        s = s_field(f, state.b, state.mu)
        state.z = update_z(state.u, state.lam_z, s, params.alpha, r_z)
        state.u = solve_u_prescaled(mesh, state.z, state.lam_z, state.p,
                                    state.v, state.lam_p, systems)
        gu = mesh.grad @ state.u
        if systems.v_solve is not None:
            state.v = solve_v_prescaled(mesh, gu, state.p, state.lam_p,
                                        state.q, state.lam_q, systems)
        if systems.b_solve is not None:
            b = systems.b_solve(mesh.face_areas[:, None] * (
                params.alpha * (f - state.z @ state.mu)))
        state.p = prox_p(gu - state.v - state.lam_p / r_p, r_p)
        state.lam_p = state.lam_p + r_p * (state.p + state.v - gu)
        if systems.v_solve is not None:
            dv = divergence_prescaled(mesh, state.v)
            state.q = prox_q(dv - state.lam_q / r_q, r_q, params.alpha0)
            state.lam_q = state.lam_q + r_q * (state.q - dv)
        state.lam_z = state.lam_z + r_z * (state.z - state.u)
        if systems.b_solve is not None:
            state.b = b
    return state


@replay_cases
def test_segment_replays_bitwise_with_the_plain_sweep(make_mesh, mode, k,
                                                      monkeypatch):
    # the sweep as split into _sweep, with one grad u for the v- and
    # p-steps, against the reference steps with b solved serially; both
    # form the misfit anew in every sweep, pcms's too
    mesh = make_mesh()
    f = feature_field(mesh, k).values
    params = SolverParams(k=k, mode=mode, max_outer=8, seed=1)
    got = segment(mesh, f, params)
    monkeypatch.setattr(msseg.solver, "admm_inner", admm_inner_plain)
    assert_same_run(got, segment(mesh, f, params))


@replay_cases
def test_segment_replays_bitwise_with_b_solved_inline(make_mesh, mode, k,
                                                      monkeypatch):
    # b's solve on the lane, beside u and v, against the serial order; a
    # short switch interval makes the two threads interleave more finely
    mesh = make_mesh()
    f = feature_field(mesh, k).values
    params = SolverParams(k=k, mode=mode, max_outer=8, seed=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = segment(mesh, f, params)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(msseg.solver, "ThreadPoolExecutor", InlineLane)
    assert_same_run(got, segment(mesh, f, params))


def test_segment_joins_its_lane_on_return_and_on_error(monkeypatch):
    mesh = random_patch(200, 5)
    f = feature_field(mesh, 3).values
    params = SolverParams(k=3, mode="gpsms", max_outer=3, seed=1)
    before = threading.enumerate()
    segment(mesh, f, params)
    assert threading.enumerate() == before
    # every b factor solves (P + (c + dc) W) b = r, which the gate of the
    # stored c rejects on the lane; the error reaches the caller.  With
    # |B| = self.norm, the gate's bound of |P + c W|, and dc = |B| /
    # min(W), the backward error |dc W b| / (|B| |b| + |r|) is at least
    # dc min(W) / (2 |B| + dc max(W)) = 1 / (2 + max(W) / min(W)), for
    # any beta and c.  The factor is of (A - i s' W) scaled by s / s', so
    # that the stored division by s = sqrt(c) returns that b.
    areas = mesh.face_areas
    assert 1 / (2 + areas.max() / areas.min()) >= 100 * _SOLVE_RTOL
    build = BiharmonicPrior.__init__

    def off(self, mesh, beta, c=None):
        build(self, mesh, beta, c)
        if c is not None:
            wrong = c + self.norm / mesh.face_areas.min()
            matrix = np.sqrt(beta * c / wrong) * mesh.S \
                - 1j * np.sqrt(c) * sp.diags(mesh.face_areas)
            self._lu = _DirectSolve(matrix, matrix.__matmul__)._lu

    monkeypatch.setattr(BiharmonicPrior, "__init__", off)
    with pytest.raises(NumericError, match="residual"):
        segment(mesh, f, params)
    assert threading.enumerate() == before


def test_segment_factors_on_the_calling_thread_and_solves_b_beside_it(
        monkeypatch):
    factored, b_solved = [], []
    build, solve = msseg.calculus._factor, BiharmonicPrior.__call__

    def recording_build(matrix):
        factored.append(threading.get_ident())
        return build(matrix)

    def recording_solve(self, rhs):
        b_solved.append(threading.get_ident())
        return solve(self, rhs)

    mesh = random_patch(200, 5)
    f = feature_field(mesh, 3).values
    params = SolverParams(k=3, mode="gpsms", max_outer=3, seed=1)
    monkeypatch.setattr(msseg.calculus, "_factor", recording_build)
    monkeypatch.setattr(BiharmonicPrior, "__call__", recording_solve)
    result = segment(mesh, f, params)
    main = threading.get_ident()
    assert factored == [main] * 3  # the u, v and b factors
    assert len(b_solved) == len(result.error_trace) * params.inner_iters
    assert len(set(b_solved)) == 1 and b_solved[0] != main


def test_segment_non_convergence_is_flagged_not_raised():
    mesh, f, _ = piecewise_constant_instance()
    params = SolverParams(k=2, alpha=100.0, max_outer=1, outer_tol=1e-300)
    result = segment(mesh, f, params)
    assert not result.converged
    assert len(result.error_trace) == 1


def test_segment_channel_count_mismatch():
    mesh, f, _ = piecewise_constant_instance()
    with pytest.raises(ParameterError, match="channels"):
        segment(mesh, f, SolverParams(k=3, alpha=1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_segment_rejects_non_finite_features(bad):
    mesh, f, _ = piecewise_constant_instance()
    f = np.column_stack([f, f])
    f[[7, 9], 1] = bad
    with pytest.raises(ParameterError,
                       match="feature field row 7 has a non-finite entry"):
        segment(mesh, f, SolverParams(k=3))


@pytest.mark.parametrize("alpha", [None, 1.0])
def test_segment_row_count_mismatch(alpha):
    mesh, f, _ = piecewise_constant_instance()
    T = mesh.n_faces
    with pytest.raises(DimensionError, match=f"{T + 5} rows, mesh has {T} "):
        segment(mesh, np.vstack([f, f[:5]]), SolverParams(k=2, alpha=alpha))


def test_gpsms_with_frozen_v_matches_psms_bitwise_small(monkeypatch):
    mesh, f, _ = piecewise_constant_instance()
    kw = dict(k=2, alpha=100.0, max_outer=4, outer_tol=1e-300, seed=0)
    res_p = segment(mesh, f, SolverParams(mode="psms", **kw))
    # gpsms with the v-step frozen at v = 0 runs psms's operations
    monkeypatch.setattr(msseg.solver, "solve_v",
                        lambda mesh, u, p, *rest: np.zeros_like(p))
    res_g = segment(mesh, f, SolverParams(mode="gpsms", **kw))
    assert np.array_equal(res_g.u, res_p.u)
    assert np.array_equal(res_g.b, res_p.b)
    assert np.array_equal(res_g.labels, res_p.labels)
    assert res_g.error_trace == res_p.error_trace


def _same_run(a, b):
    for name in ("labels", "u", "b", "mu"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.error_trace == b.error_trace
    assert a.energy_trace == b.energy_trace
    assert a.kkt == b.kkt


def test_segment_one_dimensional_field_is_the_one_column_field():
    mesh = random_closed(40, seed=21)
    f = np.random.default_rng(23).normal(size=(mesh.n_faces, 1))
    params = SolverParams(k=2, mode="gpsms", max_outer=5, seed=3)
    _same_run(segment(mesh, f[:, 0], params), segment(mesh, f, params))


def test_segment_resolved_alpha_replays_bitwise():
    mesh = random_closed(40, seed=21)
    f = np.random.default_rng(24).normal(size=(mesh.n_faces, 1))
    params = SolverParams(k=2, mode="gpsms", max_outer=5, seed=3)
    auto = segment(mesh, f, params)
    assert params.alpha is None  # the caller's params are left as given
    given = segment(mesh, f, SolverParams(k=2, mode="gpsms", max_outer=5,
                                          seed=3, alpha=auto.alpha))
    assert given.alpha == auto.alpha
    _same_run(auto, given)


@pytest.mark.parametrize("mode", MODES)
def test_segment_keeps_boundary_edge_rows_zero(mode):
    # v, p and lam_p start at 0, and each sweep maps boundary rows of 0 to
    # 0: v = -lam_p / r_p - p, p = prox(-v - lam_p / r_p), lam_p += r_p (p + v)
    mesh = random_patch(300, 3)
    assert mesh.boundary_edge.any()
    f = feature_field(mesh, 3).values
    state = segment(mesh, f, SolverParams(k=3, mode=mode)).state
    for name in ("v", "p", "lam_p"):
        assert np.all(getattr(state, name)[mesh.boundary_edge] == 0.0), name


def test_pcms_mode_keeps_b_zero():
    mesh, f, _ = piecewise_constant_instance()
    result = segment(mesh, f, SolverParams(k=2, mode="pcms", alpha=100.0))
    assert np.all(result.b == 0.0)


# -- prefactorized systems -------------------------------------------------------


@pytest.mark.parametrize("mode, factored", [
    ("pcms", (True, False, False)),
    ("psms", (True, False, True)),
    ("gpsms", (True, True, True)),
])
def test_systems_factor_only_what_the_mode_solves(mode, factored):
    params = SolverParams(k=2, mode=mode, alpha=2.0, beta_ratio=3.0 / 2.0)
    systems = Systems(strip10(), params)
    got = (systems.u_solve, systems.v_solve, systems.b_solve)
    assert tuple(s is not None for s in got) == factored


def test_systems_needs_a_resolved_alpha():
    with pytest.raises(ParameterError, match="alpha"):
        Systems(strip10(), SolverParams(k=2))


# -- energy and KKT diagnostics ---------------------------------------------------


def test_energy_single_class_is_weighted_variance():
    mesh = load_off(TETRA_OFF)
    rng = np.random.default_rng(19)
    f = rng.normal(size=(4, 1))
    A = mesh.face_areas
    m = float(A @ f[:, 0] / A.sum())
    u = np.zeros((4, 2))
    u[:, 0] = 1.0
    mu = np.array([[m], [7.0]])
    alpha = 3.0
    params = SolverParams(k=2, mode="psms", alpha=alpha,
                          beta_ratio=1.0 / alpha)
    val = energy(mesh, u, np.zeros((6, 2)), np.zeros((4, 1)), mu, f, params)
    expected = 0.5 * alpha * float(A @ (f[:, 0] - m) ** 2)
    assert val == pytest.approx(expected, rel=1e-12)


def test_energy_exact_fit_is_tv_only():
    # with v = 0, as the TV modes keep it, the one regularizer of energy
    # is the vectorial TV of u: the edge-length weighted row norm of its
    # gradient, which the row-wise prox_p minimizes
    mesh = strip10()
    labels = (mesh.vertices[mesh.faces].mean(axis=1)[:, 0] > 2.5).astype(int)
    mu = np.array([[0.3], [0.9]])
    f = mu[labels]
    u = np.zeros((10, 2))
    u[np.arange(10), labels] = 1.0
    for mode in MODES:
        params = SolverParams(k=2, mode=mode, alpha=5.0, beta_ratio=1.0 / 5.0)
        val = energy(mesh, u, np.zeros((mesh.n_edges, 2)), np.zeros((10, 1)),
                     mu, f, params)
        tv = np.sum(mesh.edge_lengths
                    * np.linalg.norm(gradient(mesh, u), axis=1))
        assert val == pytest.approx(tv, rel=1e-15) and tv > 0, mode
        # a one-hot interface jumps by +1 and -1: sqrt 2, per-entry 2
        assert val == pytest.approx(tv_energy(mesh, u) / np.sqrt(2),
                                    rel=1e-15), mode


def test_energy_class_permutation_invariance():
    mesh = strip10()
    rng = np.random.default_rng(20)
    f = rng.normal(size=(10, 2))
    u = project_simplex(rng.normal(size=(10, 3)))
    b = 0.1 * rng.normal(size=(10, 2))
    mu = rng.normal(size=(3, 2))
    v = np.zeros((mesh.n_edges, 3))
    params = SolverParams(k=3, mode="gpsms", alpha=2.0, beta_ratio=1.0 / 2.0)
    perm = [2, 0, 1]
    a = energy(mesh, u, v, b, mu, f, params)
    b_val = energy(mesh, u[:, perm], v[:, perm], b, mu[perm], f, params)
    assert a == pytest.approx(b_val, rel=1e-12)


@pytest.mark.parametrize("make_mesh, mode, alpha", [
    (lambda: random_patch(800, 11), "psms", 1e4),
    (bumpy_revolution, "gpsms", None),
], ids=["patch-psms", "bumpy-gpsms"])
def test_energy_trace_is_the_energy_of_a_feasible_point(make_mesh, mode,
                                                          alpha):
    # z lies on the simplex, so every term of its energy is non-negative;
    # u does not, and its data term went negative on both meshes
    mesh = make_mesh()
    f = feature_field(mesh, 3).values
    params = SolverParams(k=3, mode=mode, alpha=alpha)
    result = segment(mesh, f, params)
    assert min(result.energy_trace) >= 0
    state = result.state
    params = SolverParams(k=3, mode=mode, alpha=result.alpha)
    assert result.energy_trace[-1] == energy(
        mesh, state.z, state.v, state.b, state.mu, f, params)


def test_kkt_residuals_vanish_at_constructed_point():
    mesh = square_axis_pair()
    state = make_fixed_point_state(mesh)
    f = np.zeros((2, 1))
    params = SolverParams(k=2, mode="gpsms", alpha=1.0)
    res = kkt_residuals(mesh, f, state, params)
    for name, val in res.items():
        assert val <= 1e-10, (name, val)


def test_kkt_residuals_positive_at_fresh_init():
    mesh, f, _ = piecewise_constant_instance()
    params = SolverParams(k=2, alpha=10.0)
    state = initial_state(mesh, f, params)
    res = kkt_residuals(mesh, f, state, params)
    assert res["primal_z"] > 0.0
    assert res["b_stationarity"] > 0.0


def test_classification_is_argmax_of_u():
    mesh, f, _ = piecewise_constant_instance()
    result = segment(mesh, f, SolverParams(k=2, alpha=100.0))
    assert np.array_equal(result.labels, np.argmax(result.u, axis=1))


def test_mu_stationarity_matches_update_mu():
    # after the outer loop ends with an up-to-date mu, its stationarity
    # residual is tiny even when other residuals are not
    mesh, f, _ = piecewise_constant_instance()
    result = segment(mesh, f, SolverParams(k=2, alpha=100.0))
    assert result.kkt["mu_stationarity"] < 1e-8
