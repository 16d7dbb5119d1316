"""Acceptance gate: one test per release criterion, at the stated
tolerances.  Each test prints a single pass line on success; the pytest
-v report likewise shows one PASSED/FAILED line per criterion."""

import time

import numpy as np
import pytest

import msseg.solver
from msseg.calculus import divergence, gradient, inner_U, inner_V
from msseg.evaluation import rand_index_dissimilarity
from msseg.features import build_laplacian, feature_field
from msseg.mesh import load_off
from msseg.solver import (
    SolverParams,
    SolverState,
    Systems,
    admm_inner,
    estimate_alpha,
    project_simplex,
    prox_p,
    prox_q,
    s_field,
    segment,
    solve_b,
    solve_u,
    solve_v,
    update_mu,
)

from _meshes import (
    bumpy_revolution,
    dumbbell,
    dumbbell_ground_truth,
    fan5,
    path_strip,
    random_closed,
    random_meshes,
    random_patch,
    square_axis_pair,
    two_components,
    unit_area_pair,
)
from _reference import (fd_gradient, one_admm_sweep, prox_norm_oracle,
                        simplex_bisect)


def ok(n, text):
    print(f"criterion {n:02d} PASS: {text}")


# -- shared dumbbell runs ---------------------------------------------------------


@pytest.fixture(scope="module")
def dumbbell_case():
    mesh = dumbbell()
    features = feature_field(mesh, 2)
    truth = dumbbell_ground_truth(mesh)
    return mesh, features.values, truth


@pytest.fixture(scope="module")
def gpsms_run(dumbbell_case):
    mesh, f, _ = dumbbell_case
    t0 = time.perf_counter()
    result = segment(mesh, f, SolverParams(k=2, mode="gpsms"))
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def psms_run(dumbbell_case):
    mesh, f, _ = dumbbell_case
    return segment(mesh, f, SolverParams(k=2, mode="psms"))


# -- criteria ---------------------------------------------------------------------


def test_criterion_01_operator_adjointness():
    meshes = random_meshes(50, seed=101, max_faces=2000)
    sizes = [m.n_faces for m in meshes]
    assert min(sizes) >= 4 and max(sizes) <= 2000
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for mesh in meshes:
        u = rng.normal(size=(mesh.n_faces, 3))
        p = rng.normal(size=(mesh.n_edges, 3))
        p[mesh.boundary_edge] = 0.0  # edge fields live in the range of grad
        lhs = inner_V(mesh, gradient(mesh, u), p)
        rhs = inner_U(mesh, u, divergence(mesh, p))
        err = abs(lhs + rhs) / (1.0 + abs(lhs))
        worst = max(worst, err)
        assert err <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    ok(1, f"adjointness on 50 meshes, worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_prox_oracles():
    rng = np.random.default_rng(1)
    r_p, r_q, alpha0 = 1.4, 0.7, 2.0
    n = 1000
    rows = rng.normal(size=(n, 3)) * rng.choice(
        [0.05, 0.5, 1.0, 4.0], size=(n, 1)
    )
    got_p = prox_p(rows, r_p)
    got_q = prox_q(rows, r_q, alpha0)
    worst = 0.0
    for i in range(n):
        want_p = prox_norm_oracle(rows[i], 1.0, r_p)
        want_q = prox_norm_oracle(rows[i], alpha0, r_q)
        worst = max(worst, np.abs(got_p[i] - want_p).max(),
                    np.abs(got_q[i] - want_q).max())
    assert worst <= 1e-6
    ok(2, f"prox maps vs numeric oracle on {n} rows, worst {worst:.2e}")


def test_criterion_03_simplex_projection():
    rng = np.random.default_rng(2)
    worst = 0.0
    total = 0
    for k in (2, 3, 4, 5, 6):
        rows = rng.normal(size=(200, k)) * rng.choice(
            [0.1, 1.0, 100.0], size=(200, 1)
        )
        out = project_simplex(rows)
        worst = max(worst, np.abs(out - simplex_bisect(rows)).max())
        assert np.abs(project_simplex(out) - out).max() <= 1e-12
        assert (out >= 0.0).all()
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12
        total += len(rows)
    assert worst <= 1e-6
    ok(3, f"simplex projection vs bisection oracle on {total} rows, "
          f"worst {worst:.2e}")


def test_fd_gradient_of_a_quadratic_at_a_fortran_ordered_point():
    # fd_gradient must step the point it is given whatever its memory
    # order; ravel() of a Fortran-ordered array is a copy
    rng = np.random.default_rng(3)
    c = rng.random((6, 3)) + 0.5
    d = rng.normal(size=(6, 3))
    x = np.asfortranarray(rng.normal(size=(6, 3)))
    g = fd_gradient(lambda y: 0.5 * np.sum(c * y * y) + np.sum(d * y), x)
    assert np.abs(g - (c * x + d)).max() <= 1e-8


def test_criterion_04_subproblem_stationarity(lane):
    r_p, r_q, r_z = 1.0, 1.0, 100.0
    alpha, beta, eta = 2.0, 1.5, 1e-5
    K = 3
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        mesh = random_closed(int(rng.integers(8, 15)), seed=seed)
        T, E = mesh.n_faces, mesh.n_edges
        z = project_simplex(rng.normal(size=(T, K)))
        lam_z = rng.normal(size=(T, K))
        p = rng.normal(size=(E, K))
        v = rng.normal(size=(E, K))
        lam_p = rng.normal(size=(E, K))
        q = rng.normal(size=(T, K))
        lam_q = rng.normal(size=(T, K))
        f = rng.normal(size=(T, K - 1))
        mu = rng.normal(size=(K, K - 1))

        def obj_u(u):
            a = u - z - lam_z / r_z
            d = gradient(mesh, u) - (p + v + lam_p / r_p)
            return 0.5 * r_z * inner_U(mesh, a, a) \
                + 0.5 * r_p * inner_V(mesh, d, d)

        def obj_v(vv):
            a = vv - (gradient(mesh, u_sol) - p - lam_p / r_p)
            d = divergence(mesh, vv) - (q + lam_q / r_q)
            return 0.5 * r_p * inner_V(mesh, a, a) \
                + 0.5 * r_q * inner_U(mesh, d, d)

        def obj_b(bb):
            lap = divergence(mesh, gradient(mesh, bb))
            return 0.5 * beta * inner_U(mesh, lap, lap) \
                + 0.5 * eta * inner_U(mesh, bb, bb) \
                + 0.5 * alpha * inner_U(mesh, z, s_field(f, bb, mu))

        systems = Systems(
            mesh, SolverParams(k=K, r_p=r_p, r_q=r_q, r_z=r_z, eta=eta,
                               alpha=alpha, beta_ratio=beta / alpha))
        u_sol = solve_u(mesh, z, lam_z, p, v, lam_p, systems)
        v_sol = solve_v(mesh, gradient(mesh, u_sol), p, lam_p, q, lam_q,
                        systems)
        b_sol = solve_b(mesh, f, z, mu, systems, lane).result()
        for fun, x in ((obj_u, u_sol), (obj_v, v_sol), (obj_b, b_sol)):
            g = fd_gradient(fun, x)
            bound = 1e-4 * (1.0 + abs(fun(x)))
            rel = np.linalg.norm(g) / bound
            worst = max(worst, rel)
            assert np.linalg.norm(g) <= bound
    ok(4, f"u/v/b stationarity on 20 instances, worst {worst:.2e} of bound")


def test_criterion_05_transliteration_oracle(lane):
    mesh = square_axis_pair()
    rng = np.random.default_rng(23)
    T, E, K = mesh.n_faces, mesh.n_edges, 2
    f = rng.normal(size=(T, K - 1))
    arrays = {
        "u": project_simplex(rng.normal(size=(T, K))),
        "z": project_simplex(rng.normal(size=(T, K))),
        "b": 0.1 * rng.normal(size=(T, K - 1)),
        "v": rng.normal(size=(E, K)),
        "p": rng.normal(size=(E, K)),
        "q": rng.normal(size=(T, K)),
        "lam_p": rng.normal(size=(E, K)),
        "lam_q": rng.normal(size=(T, K)),
        "lam_z": rng.normal(size=(T, K)),
        "mu": rng.normal(size=(K, K - 1)),
    }
    alpha, beta = 1.5, 2.0
    expected = one_admm_sweep(mesh, f, arrays, alpha, beta)
    state = SolverState(**{k: v.copy() for k, v in arrays.items()})
    params = SolverParams(k=K, mode="gpsms", alpha=alpha,
                          beta_ratio=beta / alpha, inner_iters=1)
    admm_inner(mesh, f, state, Systems(mesh, params), lane)
    worst = 0.0
    for name, want in expected.items():
        err = np.abs(getattr(state, name) - want).max()
        worst = max(worst, err)
        assert err <= 1e-12, name
    ok(5, f"one-sweep transliteration, worst component error {worst:.2e}")


def test_criterion_06_mu_least_squares_oracle():
    mesh = fan5()
    A = mesh.face_areas
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        f = rng.normal(size=(5, 2))
        b = rng.normal(size=(5, 2))
        u = project_simplex(rng.random(size=(5, 3)))
        mu = update_mu(mesh, u, b, f)
        for k in range(3):
            for c in range(2):
                w = np.sqrt(np.array([u[i, k] * A[i] for i in range(5)]))
                design = w[:, None]
                target = np.array(
                    [w[i] * (f[i, c] - b[i, c]) for i in range(5)]
                )
                ref, *_ = np.linalg.lstsq(design, target, rcond=None)
                worst = max(worst, abs(mu[k, c] - ref[0]))
                assert abs(mu[k, c] - ref[0]) <= 1e-8
    ok(6, f"class-mean update vs least-squares oracle, worst {worst:.2e}")


def test_criterion_07_dumbbell_convergence(gpsms_run):
    result, seconds = gpsms_run
    assert result.converged
    assert len(result.error_trace) < 100
    assert result.error_trace[-1] < 1e-5
    for key in ("primal_p", "primal_q", "primal_z"):
        assert result.kkt[key] <= 1e-3, (key, result.kkt[key])
    assert seconds < 60.0
    ok(7, f"GPSMS dumbbell converged in {len(result.error_trace)} outer "
          f"iterations, {seconds:.1f}s, primal residuals "
          f"{max(result.kkt[k] for k in ('primal_p', 'primal_q', 'primal_z')):.2e}")


def test_criterion_08_dumbbell_segmentation(dumbbell_case, gpsms_run,
                                            psms_run):
    _, _, truth = dumbbell_case
    scores = {}
    for name, result in (("psms", psms_run), ("gpsms", gpsms_run[0])):
        labels = result.labels
        assert set(labels.tolist()) == {0, 1}
        scores[name] = rand_index_dissimilarity(labels, truth)
        assert scores[name] < 2.0, (name, scores[name])
    ok(8, f"dumbbell Rand-Index dissimilarity psms {scores['psms']:.3f}, "
          f"gpsms {scores['gpsms']:.3f}")


def test_criterion_09_mode_degeneracy_bitwise(dumbbell_case, monkeypatch):
    mesh, f, _ = dumbbell_case
    kw = dict(k=2, alpha=150.0, max_outer=10, outer_tol=1e-300, seed=0)
    psms = segment(mesh, f, SolverParams(mode="psms", **kw))
    # freeze the v-step of gpsms at v = 0
    monkeypatch.setattr(msseg.solver, "solve_v",
                        lambda mesh, u, p, *rest: np.zeros_like(p))
    frozen = segment(mesh, f, SolverParams(mode="gpsms", **kw))
    assert len(frozen.error_trace) == 10
    assert np.array_equal(frozen.u, psms.u)
    assert np.array_equal(frozen.b, psms.b)
    assert np.array_equal(frozen.mu, psms.mu)
    assert np.array_equal(frozen.labels, psms.labels)
    assert frozen.error_trace == psms.error_trace
    ok(9, "GPSMS with frozen v/q reproduces PSMS bitwise over 10 iterations")


def test_criterion_10_alpha_hand_value():
    mesh = unit_area_pair()
    f = np.array([[0.0], [1.0]])
    u0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    mu0 = np.array([[0.1], [0.9]])
    alpha = estimate_alpha(mesh, f, u0, mu0, SolverParams(k=2))
    err = abs(alpha - 200.0) / 200.0
    assert err <= 1e-12
    ok(10, f"hand-built 2-face alpha = {alpha!r} (rel err {err:.2e})")


def test_criterion_11_eigen_contract(dumbbell_case):
    mesh_d, _, _ = dumbbell_case
    cases = [
        (path_strip(), 2),
        (two_components(), 2),
        (random_closed(150, seed=33), 4),
        (random_patch(150, seed=34), 3),
        (mesh_d, 2),
    ]
    worst = 0.0
    for mesh, k in cases:
        L = build_laplacian(mesh)
        field = feature_field(mesh, k)
        for j in range(field.values.shape[1]):
            x = field.values[:, j]
            res = np.linalg.norm(L @ x - field.eigenvalues[j] * x)
            rel = res / np.linalg.norm(x)
            worst = max(worst, rel)
            assert rel <= 1e-8
    x = feature_field(path_strip(), 2).values[:, 0]
    fiedler = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    cos = abs(np.dot(x, fiedler)) / np.linalg.norm(x)
    assert cos > 1.0 - 1e-8
    ok(11, f"eigen residuals worst {worst:.2e}; path Fiedler cosine "
           f"{cos:.12f}")


def brute_force_dissimilarity(a, b):
    n = len(a)
    agreements = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (a[i] == a[j]) == (b[i] == b[j]):
                agreements += 1
    return 100.0 * (1.0 - agreements / (n * (n - 1) / 2))


def test_criterion_12_rand_index_brute_force():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 201))
        a = rng.integers(0, int(rng.integers(1, 8)) + 1, size=n)
        b = rng.integers(0, int(rng.integers(1, 8)) + 1, size=n)
        err = abs(rand_index_dissimilarity(a, b)
                  - brute_force_dissimilarity(a, b))
        worst = max(worst, err)
        assert err < 1e-9
    worked = rand_index_dissimilarity([0, 0, 1, 1], [0, 1, 0, 1])
    assert abs(worked - 66.67) <= 0.01
    ok(12, f"rand index vs brute force on 200 pairs, worst {worst:.2e}; "
           f"worked case {worked:.4f}")


def test_criterion_13_throughput():
    mesh = bumpy_revolution()
    assert 10000 <= mesh.n_faces <= 14000
    k = 9
    t0 = time.perf_counter()
    features = feature_field(mesh, k)
    result = segment(mesh, features.values, SolverParams(k=k, mode="gpsms"))
    elapsed = time.perf_counter() - t0
    assert elapsed <= 24.0
    assert len(set(result.labels.tolist())) > 1
    ok(13, f"GPSMS K={k} on {mesh.n_faces} faces in {elapsed:.1f}s "
           f"({'converged' if result.converged else 'max iterations'})")
