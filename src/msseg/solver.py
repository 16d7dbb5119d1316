"""Alternating-minimization / ADMM engine for piecewise-smooth
Mumford-Shah mesh segmentation.

Modes
-----
``pcms``
    Piecewise-constant baseline: TV regularizer, smooth part frozen at 0.
``psms``
    Piecewise-smooth with TV: splitting ``p = grad u``, ``z = u``.
``gpsms``
    Piecewise-smooth with relaxed second-order TGV: full splitting
    ``p = grad u - v``, ``q = div v``, ``z = u``.

The outer loop alternates the ADMM block (label field ``u``, smooth part
``b`` and auxiliaries) with the closed-form class-mean update, until the
area-weighted squared change of ``u`` drops below the tolerance.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import calculus as calc
from .calculus import divergence, gradient, inner_U, norm_U, norm_V, operators
from .errors import (DimensionError, InitializationError, NumericError,
                     ParameterError)

MODES = ("pcms", "psms", "gpsms")


@dataclass
class SolverParams:
    """Model and algorithmic parameters.

    ``alpha=None`` selects the data-term weight automatically from the
    initialization; ``beta`` is always specified as a ratio of alpha.
    """

    k: int = field(metadata={"help": "number of segments"})
    mode: str = "gpsms"
    alpha: float | None = field(default=None,
                                metadata={"help": "data weight, or 'auto'"})
    beta_ratio: float = 1.0
    alpha0: float = 2.0
    eta: float = 1e-5
    r_p: float = 1.0
    r_q: float = 1.0
    r_z: float = 100.0
    inner_iters: int = 5
    outer_tol: float = 1e-5
    max_outer: int = 100
    seed: int = 0
    fallback_alpha: float = 1.0
    freeze_v: bool = False  # diagnostic: disable v/q updates in gpsms mode

    def validate(self):
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.k < 2:
            raise ParameterError(f"need k >= 2 segments, got {self.k}")
        # written so that NaN fails too
        if self.alpha is not None and not 0 < self.alpha < np.inf:
            raise ParameterError("alpha must be positive and finite")
        for name in ("beta_ratio", "alpha0", "eta", "r_p", "r_q", "r_z",
                     "outer_tol", "fallback_alpha"):
            if not 0 < getattr(self, name) < np.inf:
                raise ParameterError(f"{name} must be positive and finite")
        if self.inner_iters < 1:
            raise ParameterError("inner_iters must be at least 1")
        if self.max_outer < 1:
            raise ParameterError("max_outer must be at least 1")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        return self


@dataclass
class SolverState:
    """Full ADMM state; shapes follow the mesh and segment count."""

    u: np.ndarray       # (T, K) label field
    z: np.ndarray       # (T, K)
    b: np.ndarray       # (T, K-1) smooth part, matching the feature field
    v: np.ndarray       # (E, K)
    p: np.ndarray       # (E, K)
    q: np.ndarray       # (T, K)
    lam_p: np.ndarray   # (E, K)
    lam_q: np.ndarray   # (T, K)
    lam_z: np.ndarray   # (T, K)
    mu: np.ndarray      # (K, K-1) class means
    outer: int = 0

    def copy(self):
        return SolverState(
            **{k: (v.copy() if isinstance(v, np.ndarray) else v)
               for k, v in self.__dict__.items()}
        )


@dataclass
class SegmentationResult:
    labels: np.ndarray
    mu: np.ndarray
    b: np.ndarray
    u: np.ndarray
    error_trace: list
    energy_trace: list
    kkt: dict
    seconds: float
    converged: bool
    alpha: float
    state: SolverState = field(repr=False, default=None)


# -- linear systems ----------------------------------------------------------


_SOLVE_RTOL = 1e-8  # residual bound of every direct solve, relative to 1 + |rhs|


class _SPDSolve:
    """Direct solve of an SPD sparse system, with a residual check.

    Direct only: one SuperLU factorization in symmetric mode (minimum
    degree ordering on the pattern of ``A' + A``, diagonal pivots) serves
    every later solve, at every size.
    """

    def __init__(self, matrix):
        self.matrix = matrix.tocsc()
        self._lu = spla.splu(self.matrix, permc_spec="MMD_AT_PLUS_A",
                             diag_pivot_thresh=0.0,
                             options={"SymmetricMode": True})

    def __call__(self, rhs):
        rhs = np.atleast_2d(rhs.T).T
        x = self._lu.solve(rhs)
        res = np.linalg.norm(self.matrix @ x - rhs)
        if res > _SOLVE_RTOL * (1.0 + np.linalg.norm(rhs)):
            raise NumericError(
                f"linear solve residual {res:.3e} above tolerance"
            )
        return x


class Systems:
    """Prefactorized per-channel SPD systems for the smooth updates.

    The one place the u, v and b systems are assembled and factored.  All
    coefficients are constant along a run, so each system is factorized
    once, direct only (see :class:`_SPDSolve`), and only the systems the
    mode solves with are built: ``v`` for gpsms without ``freeze_v`` on a
    mesh with interior edges, ``b`` for psms and gpsms; the others are
    ``None``.  The systems are the weighted-inner-product normal equations
    written in plain coordinates, with ``S = G' D G``:

    * ``u_solve``:  (r_p * S + r_z * W) u = W * rhs,
    * ``v_solve``:  interior-edge block of
      (r_q * DG W^-1 (DG)' + r_p * D) v = D * rhs, boundary rows reduce to
      ``r_p * v = rhs`` since the gradient annihilates them,
    * ``b_solve``:  (beta * S W^-1 S + (eta + alpha) * W) b = W * rhs.

    It also holds what the right-hand sides read: the coefficients ``r_p``,
    ``r_q``, ``r_z`` and ``alpha``, and the ``interior`` edge indices.
    """

    def __init__(self, mesh, params, alpha, beta):
        use_vq, use_b = _mode_flags(params)
        self.r_p, self.r_q, self.r_z = params.r_p, params.r_q, params.r_z
        self.alpha = alpha
        self.interior = np.nonzero(~mesh.boundary_edge)[0]
        ops = operators(mesh)
        W = sp.diags(ops.areas)
        Winv = sp.diags(1.0 / ops.areas)
        D = sp.diags(ops.lengths)
        S = ops.grad.T @ D @ ops.grad
        self.u_solve = _SPDSolve(self.r_p * S + self.r_z * W)
        self.v_solve = self.b_solve = None
        if use_vq and self.interior.size:
            DG = (D @ ops.grad).tocsr()[self.interior]
            Dint = sp.diags(ops.lengths[self.interior])
            self.v_solve = _SPDSolve(self.r_q * (DG @ Winv @ DG.T)
                                     + self.r_p * Dint)
        if use_b:
            self.b_solve = _SPDSolve(beta * (S @ Winv @ S)
                                     + (params.eta + alpha) * W)


# -- closed-form pieces ------------------------------------------------------


def s_field(f, b, mu):
    """Per-face, per-class squared misfit ||f - b - mu_k||^2."""
    f = np.atleast_2d(np.asarray(f, dtype=float).T).T
    b = np.atleast_2d(np.asarray(b, dtype=float).T).T
    mu = np.atleast_2d(np.asarray(mu, dtype=float).T).T
    g = f - b
    # one class at a time: no (T, K, n) temporary, and the same roundings
    # as subtracting f - b - mu_k in one broadcast
    out = np.empty((g.shape[0], mu.shape[0]))
    for k in range(mu.shape[0]):
        d = g - mu[k]
        d *= d
        out[:, k] = d.sum(axis=1)
    return out


def project_simplex(rows):
    """Euclidean projection of each row onto the probability simplex.

    Sort-based finite algorithm: with entries in decreasing order, the
    support is the longest prefix whose hyperplane shift keeps its last
    entry positive.
    """
    y = np.atleast_2d(np.asarray(rows, dtype=float))
    # the projection is invariant under a uniform shift of a row; centering
    # on the row max keeps the hyperplane offset (sum - 1) well conditioned
    # for rows of large magnitude (kept entries all lie within 1 of the max)
    x = y - y.max(axis=1, keepdims=True)
    K = x.shape[1]
    srt = -np.sort(-x, axis=1)
    css = np.cumsum(srt, axis=1) - 1.0
    keep = srt - css / np.arange(1, K + 1) > 0
    rho = K - 1 - np.argmax(keep[:, ::-1], axis=1)
    tau = css[np.arange(x.shape[0]), rho] / (rho + 1)
    x = np.maximum(x - tau[:, None], 0.0)
    if np.asarray(rows).ndim == 1:
        return x[0]
    return x


def prox_p(w, r_p):
    """Row-wise shrinkage for the edge splitting variable."""
    return _shrink_rows(w, 1.0 / r_p)


def prox_q(c, r_q, alpha0):
    """Row-wise shrinkage for the divergence splitting variable."""
    return _shrink_rows(c, alpha0 / r_q)


def _shrink_rows(w, threshold):
    w = np.asarray(w, dtype=float)
    flat = w.ndim == 1
    w = np.atleast_2d(w.T).T if flat else w
    norms = np.linalg.norm(w, axis=1)
    factor = np.zeros_like(norms)
    big = norms > threshold
    factor[big] = 1.0 - threshold / norms[big]
    out = w * factor[:, None]
    return out[:, 0] if flat else out


def update_z(u, lam_z, s, alpha, r_z):
    """Projected data-term step: rows land on the label simplex."""
    return project_simplex(u - (alpha * s + lam_z) / r_z)


def update_mu(mesh, u, b, f, prev_mu=None):
    """Area-weighted class means of ``f - b``; empty classes keep their
    previous mean (with a warning)."""
    f = np.atleast_2d(np.asarray(f, dtype=float).T).T
    b = np.atleast_2d(np.asarray(b, dtype=float).T).T
    A = mesh.face_areas
    mass = (u * A[:, None]).sum(axis=0)            # (K,)
    num = (u * A[:, None]).T @ (f - b)             # (K, n)
    mu = np.empty_like(num)
    for k in range(u.shape[1]):
        if mass[k] <= 0:
            if prev_mu is None:
                raise ParameterError(f"class {k} has zero mass and no fallback")
            warnings.warn(f"class {k} has zero mass; keeping previous mean",
                          RuntimeWarning)
            mu[k] = prev_mu[k]
        else:
            mu[k] = num[k] / mass[k]
    return mu


# -- smooth subproblem solves ------------------------------------------------


def solve_u(mesh, z, lam_z, p, v, lam_p, systems):
    """Quadratic label update: (r_p S + r_z W) u = W rhs with
    rhs = r_z z + lam_z - div(lam_p + r_p (p + v))."""
    ops = operators(mesh)
    edge_term = lam_p + systems.r_p * (p + v)
    rhs = ops.areas[:, None] * (systems.r_z * z + lam_z) \
        + ops.incidence.T @ (ops.lengths[:, None] * edge_term)
    return systems.u_solve(rhs)


def solve_v(mesh, u, p, lam_p, q, lam_q, systems):
    """Quadratic update of the slope field.

    Interior edges solve the SPD system
    ``(-r_q grad div + r_p I) v = -grad(lam_q + r_q q) - lam_p + r_p(grad u - p)``;
    on boundary edges the gradient vanishes and the rows reduce to
    ``r_p v = -lam_p - r_p p``.
    """
    ops = operators(mesh)
    r_p, r_q, interior = systems.r_p, systems.r_q, systems.interior
    gu = gradient(mesh, u)
    v = (-lam_p - r_p * p) / r_p
    v[interior] = 0.0
    if interior.size == 0:
        return v
    # interior equations couple to boundary values through div
    rhs_full = -gradient(mesh, lam_q + r_q * q) - lam_p + r_p * (gu - p) \
        + r_q * gradient(mesh, divergence(mesh, v))
    rhs = ops.lengths[interior, None] * rhs_full[interior]
    v[interior] = systems.v_solve(rhs)
    return v


def solve_b(mesh, f, z, mu, systems):
    """Smooth-part update: (beta L'L + (eta + alpha) I) b = alpha (f - z mu)
    in the weighted inner products, with L the face Laplacian."""
    ops = operators(mesh)
    f = np.atleast_2d(np.asarray(f, dtype=float).T).T
    rhs_field = systems.alpha * (f - z @ np.atleast_2d(mu.T).T)
    rhs = ops.areas[:, None] * rhs_field
    return systems.b_solve(rhs)


# -- initialization and alpha heuristic ---------------------------------------


def init_labels(f, areas, k, seed):
    """Seeded, area-weighted k-means on feature rows.

    Returns the class means and the one-hot nearest-center label field.
    Restarts (fresh RNG stream) on an empty cluster, up to 20 times.
    """
    f = np.atleast_2d(np.asarray(f, dtype=float).T).T
    T = f.shape[0]
    if not 2 <= k <= T:
        raise InitializationError(f"need 2 <= k <= {T}, got {k}")
    weights = np.asarray(areas, dtype=float)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        centers = _kmeans_pp(f, weights, k, rng)
        assign = None
        for _ in range(100):
            d2 = ((f[:, None, :] - centers[None]) ** 2).sum(axis=2)
            new_assign = np.argmin(d2, axis=1)
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
            ok = True
            for c in range(k):
                m = assign == c
                wsum = weights[m].sum()
                if wsum <= 0:
                    ok = False
                    break
                centers[c] = (weights[m, None] * f[m]).sum(axis=0) / wsum
            if not ok:
                break
        if assign is None:
            continue
        counts = np.bincount(assign, minlength=k)
        if (counts > 0).all():
            u0 = np.zeros((T, k))
            u0[np.arange(T), assign] = 1.0
            return centers, u0
    raise InitializationError("empty cluster after 20 restarts")


def _kmeans_pp(f, weights, k, rng):
    T = f.shape[0]
    probs = weights / weights.sum()
    centers = [f[rng.choice(T, p=probs)]]
    for _ in range(1, k):
        d2 = np.min(
            ((f[:, None, :] - np.array(centers)[None]) ** 2).sum(axis=2), axis=1
        )
        scores = weights * d2
        total = scores.sum()
        if total <= 0:
            idx = rng.choice(T, p=probs)
        else:
            idx = rng.choice(T, p=scores / total)
        centers.append(f[idx])
    return np.array(centers, dtype=float)


def estimate_alpha(mesh, f, u0, mu0, k, params):
    """Data-weight heuristic from the initialization.

    ``alpha = 2 K * Per(u0) / <u0, s(f, 0, mu0)>_U`` where ``Per`` is the
    label-boundary perimeter, i.e. half the total variation of the one-hot
    initial labeling (each interface shows up in two channels).  Degenerate
    numerator or denominator falls back to ``params.fallback_alpha``.
    """
    b0 = np.zeros((u0.shape[0], np.atleast_2d(np.asarray(f).T).T.shape[1]))
    numerator = 2.0 * k * (calc.tv_energy(mesh, u0) / 2.0)
    denominator = inner_U(mesh, u0, s_field(f, b0, mu0))
    if numerator <= 0 or denominator <= 0:
        warnings.warn(
            f"degenerate alpha estimate (num={numerator}, den={denominator}); "
            f"using fallback alpha={params.fallback_alpha}",
            RuntimeWarning,
        )
        return params.fallback_alpha
    return numerator / denominator


# -- ADMM inner loop and AMM outer loop ---------------------------------------


def _mode_flags(params):
    gpsms = params.mode == "gpsms" and not params.freeze_v
    smooth = params.mode in ("psms", "gpsms")
    return gpsms, smooth


def admm_inner(mesh, f, state, params, alpha, beta, systems=None):
    """Run ``inner_iters`` ADMM sweeps in place and return the state.

    Sweep order: z, u, v, b, p, q, multipliers.  TV modes keep ``v``,
    ``q`` and their multiplier at zero; the piecewise-constant mode also
    freezes ``b``.  Without ``systems``, one :class:`Systems` is built
    here from ``alpha`` and ``beta`` and serves every sweep; the sweep
    reads its penalties and data weight from ``systems``.
    """
    use_vq, use_b = _mode_flags(params)
    if systems is None:
        systems = Systems(mesh, params, alpha, beta)
    r_p, r_q, r_z = systems.r_p, systems.r_q, systems.r_z
    for _ in range(params.inner_iters):
        s = s_field(f, state.b, state.mu)
        state.z = update_z(state.u, state.lam_z, s, systems.alpha, r_z)
        state.u = solve_u(mesh, state.z, state.lam_z, state.p, state.v,
                          state.lam_p, systems)
        if use_vq:
            state.v = solve_v(mesh, state.u, state.p, state.lam_p,
                              state.q, state.lam_q, systems)
        if use_b:
            state.b = solve_b(mesh, f, state.z, state.mu, systems)
        gu = gradient(mesh, state.u)
        state.p = prox_p(gu - state.v - state.lam_p / r_p, r_p)
        if use_vq:
            dv = divergence(mesh, state.v)
            state.q = prox_q(dv - state.lam_q / r_q, r_q, params.alpha0)
        state.lam_p = state.lam_p + r_p * (state.p + state.v - gu)
        if use_vq:
            state.lam_q = state.lam_q + r_q * (state.q - dv)
        state.lam_z = state.lam_z + r_z * (state.z - state.u)
    return state


def initial_state(mesh, f, params):
    """k-means initialization plus all-zero splitting variables."""
    f2 = np.atleast_2d(np.asarray(f, dtype=float).T).T
    T, E = mesh.n_faces, mesh.n_edges
    k = params.k
    mu0, u0 = init_labels(f2, mesh.face_areas, k, params.seed)
    return SolverState(
        u=u0,
        z=np.zeros((T, k)),
        b=np.zeros((T, f2.shape[1])),
        v=np.zeros((E, k)),
        p=np.zeros((E, k)),
        q=np.zeros((T, k)),
        lam_p=np.zeros((E, k)),
        lam_q=np.zeros((T, k)),
        lam_z=np.zeros((T, k)),
        mu=mu0,
    )


def energy(mesh, u, v, b, mu, f, params, alpha, beta):
    """Model energy: regularizer + smooth-part terms + data term."""
    if params.mode == "gpsms":
        reg = calc.rtgv_value(mesh, u, v, params.alpha0)
    else:
        reg = calc.tv_energy(mesh, u)
    lap = calc.laplace(mesh, b)
    return (
        reg
        + 0.5 * beta * inner_U(mesh, lap, lap)
        + 0.5 * params.eta * inner_U(mesh, b, b)
        + 0.5 * alpha * inner_U(mesh, u, s_field(f, b, mu))
    )


def kkt_residuals(mesh, f, state, params, alpha, beta):
    """Named KKT residual norms (primal feasibility, multiplier
    identities and the stationarity of the smooth part and means)."""
    u, v, b, p, q, z = state.u, state.v, state.b, state.p, state.q, state.z
    lam_p, lam_q, lam_z, mu = state.lam_p, state.lam_q, state.lam_z, state.mu
    f2 = np.atleast_2d(np.asarray(f, dtype=float).T).T
    gu = gradient(mesh, u)
    dv = divergence(mesh, v)
    res = {
        "primal_p": norm_V(mesh, p - (gu - v)),
        "primal_q": norm_U(mesh, q - dv),
        "primal_z": norm_U(mesh, z - u),
        "dual_pz": norm_U(mesh, -lam_z + divergence(mesh, lam_p)),
        "dual_pq": norm_V(mesh, lam_p + gradient(mesh, lam_q)),
    }
    lap2 = calc.laplace(mesh, calc.laplace(mesh, b))
    b_res = beta * lap2 + (params.eta + alpha) * b \
        - alpha * (f2 - z @ np.atleast_2d(mu.T).T)
    res["b_stationarity"] = norm_U(mesh, b_res)
    A = mesh.face_areas
    mass = (u * A[:, None]).sum(axis=0)
    mu_res = mu * mass[:, None] - (u * A[:, None]).T @ (f2 - b)
    res["mu_stationarity"] = float(np.linalg.norm(alpha * mu_res))
    return res


def segment(mesh, f, params):
    """Full pipeline from a feature field: initialize, pick alpha, run the
    outer loop, classify.

    Hitting ``max_outer`` without reaching the tolerance is reported via
    ``converged=False``, not an error.
    """
    params.validate()
    f2 = np.atleast_2d(np.asarray(f, dtype=float).T).T
    if f2.shape[1] != params.k - 1:
        raise ParameterError(
            f"feature field has {f2.shape[1]} channels, expected k-1 = "
            f"{params.k - 1}"
        )
    if f2.shape[0] != mesh.n_faces:
        raise DimensionError(f"feature field has {f2.shape[0]} rows, mesh "
                             f"has {mesh.n_faces} faces")
    t0 = time.perf_counter()
    state = initial_state(mesh, f2, params)
    if params.alpha is None:
        alpha = estimate_alpha(mesh, f2, state.u, state.mu, params.k, params)
    else:
        alpha = params.alpha
    beta = params.beta_ratio * alpha

    systems = Systems(mesh, params, alpha, beta)
    error_trace = []
    energy_trace = []
    converged = False
    for outer in range(params.max_outer):
        u_prev = state.u.copy()
        admm_inner(mesh, f2, state, params, alpha, beta, systems)
        state.mu = update_mu(mesh, state.u, state.b, f2, prev_mu=state.mu)
        state.outer = outer + 1
        err = inner_U(mesh, state.u - u_prev, state.u - u_prev)
        error_trace.append(err)
        energy_trace.append(
            energy(mesh, state.u, state.v, state.b, state.mu, f2, params,
                   alpha, beta)
        )
        if err < params.outer_tol:
            converged = True
            break
    labels = np.argmax(state.u, axis=1)
    return SegmentationResult(
        labels=labels,
        mu=state.mu,
        b=state.b,
        u=state.u,
        error_trace=error_trace,
        energy_trace=energy_trace,
        kkt=kkt_residuals(mesh, f2, state, params, alpha, beta),
        seconds=time.perf_counter() - t0,
        converged=converged,
        alpha=alpha,
        state=state,
    )
