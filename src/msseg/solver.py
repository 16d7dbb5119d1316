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

import numbers
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import calculus as calc
from .calculus import divergence, gradient, inner_U, norm_U, norm_V
from .errors import (DimensionError, InitializationError, ParameterError,
                     check_integer)

MODES = ("pcms", "psms", "gpsms")
_FALLBACK_ALPHA = 1.0  # alpha when the estimate from the init degenerates


@dataclass(frozen=True)
class SolverParams:
    """Model and algorithmic parameters, checked when built, and so also
    when copied by ``dataclasses.replace``, and frozen after.

    ``alpha=None`` selects the data-term weight from the initialization,
    which :func:`segment` resolves.  A numeric alpha, ``beta = beta_ratio
    * alpha`` and ``c = eta + alpha`` (the b system's) are checked as the
    weights are.
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

    # in Python floats, which overflow to inf with no numpy warning
    beta = property(lambda self: float(self.beta_ratio) * float(self.alpha))
    c = property(lambda self: float(self.eta) + float(self.alpha))

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        # the type before the range, so that no comparison raises TypeError
        for name, least in (("k", 2), ("inner_iters", 1), ("max_outer", 1),
                            ("seed", 0)):
            value = getattr(self, name)
            check_integer(name, value)
            if value < least:
                raise ParameterError(f"{name} must be at least {least}, got {value}")
        weights = ("beta_ratio", "alpha0", "eta", "r_p", "r_q", "r_z",
                   "outer_tol")
        resolved = () if self.alpha is None else ("alpha", "beta", "c")
        for name in weights + resolved:
            value = getattr(self, name)
            # written so that NaN fails too
            if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                    or not 0 < value < np.inf:
                raise ParameterError(f"{name} must be positive and finite, "
                                     f"got {value!r}")


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

    def copy(self):
        return SolverState(**{k: v.copy() for k, v in self.__dict__.items()})


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


class Systems:
    """Prefactorized per-channel systems for the smooth updates.

    The one place the u, v and b systems are assembled and factored.  All
    coefficients are constant along a run, so each system is factorized
    once (``calculus._factor``; every solve passes ``calculus._gate``),
    and only the systems the mode solves with are built: ``v`` for gpsms,
    ``b`` for psms and gpsms; the others are ``None``.  This is the one
    place that acts on ``params.mode``: :func:`admm_inner` runs a block
    exactly when its system is built.  The systems are the
    weighted-inner-product normal equations written in plain coordinates,
    with ``G`` the gradient and ``S = G' D G``, which the mesh holds as
    ``mesh.S``:

    * ``u_solve``:  (r_p * S + r_z * W) u = W * rhs,
    * ``v_solve``:  (S + (r_p / r_q) * W) w = G' D y, the face form of the
      edge system (r_p * D + r_q * DG W^-1 (DG)') v = D y (see solve_v),
    * ``b_solve``:  (P + c * W) b = W * rhs, c = eta + alpha, with ``P``
      the operator of the smooth prior: a
      :class:`msseg.calculus.BiharmonicPrior` factored at ``c``.

    All three factors share the face pattern of ``S``, and no solve keeps
    an assembled matrix: each holds its factor, and its gate forms ``B x``
    from ``mesh.S`` and the face areas (``a (S x) + c (W x)`` for u and v;
    the prior's ``P b + c W b`` for b).  ``params`` carries a resolved
    alpha; the right-hand sides read their coefficients from it.
    Every factor is built on the thread that builds the ``Systems``,
    which also drops the last reference to it: the b system is solved on
    the one-worker lane of :func:`segment` (sweep order z, b↗, u, v, p,
    λp, q, λq, λz, b↙; see :func:`admm_inner`), but never factored there,
    since a SuperLU factor freed on another thread than its own is never
    freed.
    """

    def __init__(self, mesh, params):
        if params.alpha is None:
            raise ParameterError("Systems needs a resolved alpha, got None")
        self.params = params
        self.u_solve = _face_solve(mesh, params.r_p, params.r_z)
        self.v_solve = self.b_solve = None
        if params.mode == "gpsms":
            self.v_solve = _face_solve(mesh, 1.0, params.r_p / params.r_q)
        if params.mode != "pcms":
            self.b_solve = calc.BiharmonicPrior(mesh, params.beta, params.c)


def _face_solve(mesh, a, c):
    """Gated solve of ``(a S + c W) x = r`` that keeps only its factor: the
    gate forms ``a (S x) + c (W x)`` from ``mesh.S`` and the areas."""
    S, areas = mesh.S, mesh.face_areas[:, None]

    def image(x):
        return a * (S @ x) + c * (areas * x)

    return calc._DirectSolve(a * S + c * sp.diags(mesh.face_areas), image)


# -- closed-form pieces ------------------------------------------------------


def s_field(f, b, mu):
    """Per-face, per-class squared misfit ||f - b - mu_k||^2; ``b`` may be 0.

    One class at a time and channel by channel, each step over all faces
    at once: no (T, K, n) temporary.  The squares add in channel order,
    numpy's own order below 8 channels, so there the result is bitwise
    that of summing ``(f - b - mu_k) ** 2`` along the rows.
    """
    g = np.ascontiguousarray((f - b).T)  # one contiguous row per channel
    out = np.empty((g.shape[1], mu.shape[0]))
    for k, m in enumerate(mu):
        d = g - m[:, None]
        d *= d
        for row in d[1:]:
            d[0] += row
        out[:, k] = d[0]
    return out


def project_simplex(rows):
    """Euclidean projection of each row of a (rows, K) array onto the
    probability simplex.

    Sort-based finite algorithm (Duchi et al. 2008): with entries in
    decreasing order, the support is the longest prefix whose hyperplane
    shift keeps its last entry positive.  Every step runs on the K
    columns, over all rows at once.  An odd-even transposition network of
    ``np.maximum`` and ``np.minimum`` sorts the rows; it only moves
    entries, so it is exact like ``np.sort``.  The prefix sums are running
    column sums, the additions ``np.cumsum`` makes in the same order, and
    each prefix that keeps its last entry overwrites the shift, so the
    longest one sets it.  For finite rows the result is bitwise that of
    the row-wise sort, for every K.
    """
    y = np.asarray(rows, dtype=float)
    K = y.shape[1]
    # the projection is invariant under a uniform shift of a row; centering
    # on the row max keeps the hyperplane offset (sum - 1) well conditioned
    # for rows of large magnitude (kept entries all lie within 1 of the max)
    top = y[:, 0]
    for j in range(1, K):
        top = np.maximum(top, y[:, j])
    x = y - top[:, None]
    col = [x[:, j] for j in range(K)]
    for phase in range(K):
        for j in range(phase % 2, K - 1, 2):
            col[j], col[j + 1] = (np.maximum(col[j], col[j + 1]),
                                  np.minimum(col[j], col[j + 1]))
    total = col[0]
    tau = total - 1.0  # the first entry, the row max, is always kept
    for j in range(1, K):
        total = total + col[j]
        shift = (total - 1.0) / (j + 1)
        np.copyto(tau, shift, where=col[j] > shift)
    return np.maximum(x - tau[:, None], 0.0)


def prox_p(w, r_p):
    """Row-wise shrinkage of the (E, K) edge splitting variable."""
    return _shrink_rows(w, 1.0 / r_p)


def prox_q(c, r_q, alpha0):
    """Row-wise shrinkage of the (T, K) divergence splitting variable."""
    return _shrink_rows(c, alpha0 / r_q)


def _shrink_rows(w, threshold):
    norms = calc.row_norms(w)
    factor = np.zeros_like(norms)
    big = norms > threshold
    factor[big] = 1.0 - threshold / norms[big]
    return w * factor[:, None]


def update_z(u, lam_z, s, alpha, r_z):
    """Projected data-term step: rows land on the label simplex."""
    return project_simplex(u - (alpha * s + lam_z) / r_z)


def update_mu(mesh, u, b, f, prev_mu=None):
    """Area-weighted class means of ``f - b``; empty classes keep their
    previous mean (with a warning)."""
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
    edge_term = lam_p + systems.params.r_p * (p + v)
    rhs = mesh.face_areas[:, None] * (systems.params.r_z * z + lam_z) \
        + mesh.grad_tl @ edge_term
    return systems.u_solve(rhs)


def solve_v(mesh, gu, p, lam_p, q, lam_q, systems):
    """Quadratic update of the slope field, given ``gu``, the gradient of
    the label field ``u``.

    Solves the edge system ``M v = D y``, ``M = r_p D + r_q DG W^-1 (DG)'``,
    with ``y = -grad(lam_q + r_q q) - lam_p + r_p(grad u - p)``.  By the
    Woodbury identity ``v = (y - G w) / r_p`` with the face system
    ``(S + (r_p / r_q) W) w = G' D y``.  The gradient ``G`` has empty
    boundary rows, so there ``v = -lam_p / r_p - p``.  If ``e`` is the
    residual of the face solve, ``M v - D y = -(r_q / r_p) D G W^-1 e``, so
    the residual gate of the face solve bounds that of the edge system.
    """
    r_p, r_q = systems.params.r_p, systems.params.r_q
    y = -gradient(mesh, lam_q + r_q * q) - lam_p + r_p * (gu - p)
    w = systems.v_solve(mesh.grad_tl @ y)
    return (y - mesh.grad @ w) / r_p


def solve_b(mesh, f, z, mu, systems, lane):
    """Smooth-part update: (beta L'L + (eta + alpha) I) b = alpha (f - z mu)
    in the weighted inner products, with L the face Laplacian, solved by
    ``systems.b_solve``, a factored :class:`msseg.calculus.BiharmonicPrior`.

    Hands the update to ``lane``, an executor, and returns its future: the
    right side ``alpha W (f - z mu)``, the complex solve and its residual
    gate run there, and ``result()`` gives ``b`` or raises the gate's
    ``NumericError``.  In the sweep (z, b↗, u, v, p, λp, q, λq, λz, b↙)
    this call is b↗ and the ``result()`` of :func:`admm_inner` is b↙;
    until then the caller must not change ``f``, ``z`` or ``mu``.
    """
    return lane.submit(_solve_b, mesh.face_areas, f, z, mu, systems)


def _solve_b(areas, f, z, mu, systems):
    rhs = areas[:, None] * (systems.params.alpha * (f - z @ mu))
    return systems.b_solve(rhs)


# -- initialization and alpha heuristic ---------------------------------------


def init_labels(f, areas, k, seed):
    """Seeded, area-weighted k-means on feature rows.

    Returns the class means and the one-hot nearest-center label field of
    one k-means++ draw (``seed`` picks it) and its Lloyd steps, with no
    restart.  ``InitializationError`` when fewer than ``k`` distinct rows
    carry weight, the draw's scores overflow or a step empties a class.
    """
    T = f.shape[0]
    if not 2 <= k <= T:
        raise InitializationError(f"need 2 <= k <= {T}, got {k}")
    weights = np.asarray(areas, dtype=float)
    centers = _kmeans_pp(f, weights, k, np.random.default_rng(seed))
    assign = None
    for _ in range(100):
        new_assign = np.argmin(s_field(f, 0.0, centers), axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        masks = [assign == c for c in range(k)]
        mass = [weights[m].sum() for m in masks]
        if min(mass) <= 0:
            raise InitializationError("a Lloyd step left a class with no mass")
        for c, m in enumerate(masks):
            centers[c] = (weights[m, None] * f[m]).sum(axis=0) / mass[c]
    return centers, np.eye(k)[assign]


def _kmeans_pp(f, weights, k, rng):
    T = f.shape[0]
    centers = [f[rng.choice(T, p=weights / weights.sum())]]
    for _ in range(1, k):
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            scores = weights * s_field(f, 0.0, np.array(centers)).min(axis=1)
            total = scores.sum()
        if not np.isfinite(total):
            raise InitializationError(f"k-means++ scores sum to {total}")
        if total <= 0:  # the weighted rows are drawn centers, or underflow
            few = len(np.unique(f[weights > 0], axis=0)) < k
            raise InitializationError(
                f"fewer than k = {k} distinct feature rows carry weight"
                if few else "k-means++ scores underflow to 0")
        centers.append(f[rng.choice(T, p=scores / total)])
    return np.array(centers, dtype=float)


def estimate_alpha(mesh, f, u0, mu0, params):
    """Data-weight heuristic from the initialization.

    ``alpha = 2 K * Per(u0) / <u0, s(f, 0, mu0)>_U`` where ``Per`` is the
    label-boundary perimeter, i.e. half the total variation of the one-hot
    initial labeling (each interface shows up in two channels).  A
    quotient that is not positive and finite (a degenerate numerator or
    denominator, or an overflow) falls back to ``_FALLBACK_ALPHA``.
    """
    numerator = 2.0 * params.k * (calc.tv_energy(mesh, u0) / 2.0)
    denominator = inner_U(mesh, u0, s_field(f, 0.0, mu0))
    alpha = numerator / denominator if denominator > 0 else 0.0
    if not 0 < alpha < np.inf:
        warnings.warn(
            f"degenerate alpha estimate (num={numerator}, den={denominator}); "
            f"using fallback alpha={_FALLBACK_ALPHA}",
            RuntimeWarning,
        )
        return _FALLBACK_ALPHA
    return alpha


# -- ADMM inner loop and AMM outer loop ---------------------------------------


def admm_inner(mesh, f, state, systems, lane):
    """Run ``inner_iters`` ADMM sweeps in place and return the state.

    Sweep order: z, b↗, u, v, p, λp, q, λq, λz, b↙.  The smooth
    part ``b`` reads only ``z`` and ``mu``, and no later step of the sweep
    reads ``b``, so :func:`solve_b` hands its update to ``lane``, a
    one-worker executor, after the z-step (b↗), and the sweep takes the
    result as its last step (b↙).  b's solve thus runs beside the u and
    v solves, and every array is the one the serial order z, u, v, b, p,
    ... gives.  All other steps run on the calling thread.  A block runs
    exactly when :class:`Systems` built its system: without ``v_solve``
    (TV modes) ``v``, ``q`` and ``lam_q`` stay zero, and without
    ``b_solve`` (the piecewise-constant mode) ``b`` does and nothing is
    handed to ``lane``.  Every coefficient, the data weight included,
    comes from ``systems.params``, which carries a resolved alpha.
    """
    for _ in range(systems.params.inner_iters):
        _sweep(mesh, f, state, systems, lane)
    return state


def _sweep(mesh, f, state, systems, lane):
    """One sweep of :func:`admm_inner`.  The sweep's temporaries (``grad
    u``, ``div v``, the misfit) end with it, so none is held through the
    next sweep's solves."""
    params = systems.params
    r_p, r_q, r_z = params.r_p, params.r_q, params.r_z
    s = s_field(f, state.b, state.mu)
    state.z = update_z(state.u, state.lam_z, s, params.alpha, r_z)
    if systems.b_solve is not None:
        b_next = solve_b(mesh, f, state.z, state.mu, systems, lane)
    state.u = solve_u(mesh, state.z, state.lam_z, state.p, state.v,
                      state.lam_p, systems)
    gu = gradient(mesh, state.u)
    if systems.v_solve is not None:
        state.v = solve_v(mesh, gu, state.p, state.lam_p, state.q,
                          state.lam_q, systems)
    state.p = prox_p(gu - state.v - state.lam_p / r_p, r_p)
    state.lam_p = state.lam_p + r_p * (state.p + state.v - gu)
    if systems.v_solve is not None:
        dv = divergence(mesh, state.v)
        state.q = prox_q(dv - state.lam_q / r_q, r_q, params.alpha0)
        state.lam_q = state.lam_q + r_q * (state.q - dv)
    state.lam_z = state.lam_z + r_z * (state.z - state.u)
    if systems.b_solve is not None:
        state.b = b_next.result()


def initial_state(mesh, f, params):
    """k-means initialization plus all-zero splitting variables."""
    T, E = mesh.n_faces, mesh.n_edges
    k = params.k
    mu0, u0 = init_labels(f, mesh.face_areas, k, params.seed)
    return SolverState(
        u=u0,
        z=np.zeros((T, k)),
        b=np.zeros((T, f.shape[1])),
        v=np.zeros((E, k)),
        p=np.zeros((E, k)),
        q=np.zeros((T, k)),
        lam_p=np.zeros((E, k)),
        lam_q=np.zeros((T, k)),
        lam_z=np.zeros((T, k)),
        mu=mu0,
    )


def energy(mesh, u, v, b, mu, f, params):
    """Model energy: relaxed TGV (TV where ``v`` = 0) + smooth-part terms +
    data term, weighted by ``params``, which carries a resolved alpha.

    The regularizer takes the row norm across the K channels, as the
    row-wise prox steps do (:func:`msseg.calculus.vectorial_rtgv`), so
    this is the objective the iterations minimize.  :func:`segment`
    evaluates it at the simplex iterate ``z``, a feasible point, where
    every term is non-negative; ``u`` is off the simplex until ADMM
    converges, so its data term can be negative.  The prior of ``b`` is
    an unfactored :class:`msseg.calculus.BiharmonicPrior`."""
    return (
        calc.vectorial_rtgv(mesh, u, v, params.alpha0)
        + calc.BiharmonicPrior(mesh, params.beta).energy(b)
        + 0.5 * params.eta * inner_U(mesh, b, b)
        + 0.5 * params.alpha * inner_U(mesh, u, s_field(f, b, mu))
    )


def kkt_residuals(mesh, f, state, params):
    """Named KKT residual norms (primal feasibility, multiplier
    identities and the stationarity of the smooth part and means), with
    the weights of ``params``, which carries a resolved alpha.  The prior
    of ``b`` is an unfactored :class:`msseg.calculus.BiharmonicPrior`."""
    u, v, b, p, q, z = state.u, state.v, state.b, state.p, state.q, state.z
    lam_p, lam_q, lam_z, mu = state.lam_p, state.lam_q, state.lam_z, state.mu
    gu = gradient(mesh, u)
    dv = divergence(mesh, v)
    res = {
        "primal_p": norm_V(mesh, p - (gu - v)),
        "primal_q": norm_U(mesh, q - dv),
        "primal_z": norm_U(mesh, z - u),
        "dual_pz": norm_U(mesh, -lam_z + divergence(mesh, lam_p)),
        "dual_pq": norm_V(mesh, lam_p + gradient(mesh, lam_q)),
    }
    A = mesh.face_areas
    prior = calc.BiharmonicPrior(mesh, params.beta)
    b_res = prior.apply(b) / A[:, None] + params.c * b \
        - params.alpha * (f - z @ mu)
    res["b_stationarity"] = norm_U(mesh, b_res)
    mass = (u * A[:, None]).sum(axis=0)
    mu_res = mu * mass[:, None] - (u * A[:, None]).T @ (f - b)
    res["mu_stationarity"] = float(np.linalg.norm(params.alpha * mu_res))
    return res


def segment(mesh, f, params):
    """Full pipeline from a feature field: initialize, pick alpha, run the
    outer loop, classify.  The one place a run is resolved: a 1-D field
    becomes (T, 1), and ``alpha=None`` the estimate that ``params`` carries.
    A feature row with a NaN or infinite entry raises ``ParameterError``.

    Hitting ``max_outer`` without reaching the tolerance is reported via
    ``converged=False``, not an error.

    The run owns one worker thread, the lane on which :func:`admm_inner`
    solves for ``b``; it starts with the first such solve (never in pcms)
    and is joined before ``segment`` returns or raises.
    """
    f2 = np.atleast_2d(np.asarray(f, dtype=float).T).T
    if f2.ndim != 2:
        raise DimensionError(f"feature field must be (T, k-1), got {f2.shape}")
    if f2.shape[1] != params.k - 1:
        raise ParameterError(
            f"feature field has {f2.shape[1]} channels, expected k-1 = "
            f"{params.k - 1}"
        )
    if f2.shape[0] != mesh.n_faces:
        raise DimensionError(f"feature field has {f2.shape[0]} rows, mesh "
                             f"has {mesh.n_faces} faces")
    nonfinite = np.flatnonzero(~np.isfinite(f2).all(axis=1))
    if nonfinite.size:
        raise ParameterError(
            f"feature field row {nonfinite[0]} has a non-finite entry")
    t0 = time.perf_counter()
    state = initial_state(mesh, f2, params)
    if params.alpha is None:
        params = replace(params, alpha=estimate_alpha(mesh, f2, state.u,
                                                      state.mu, params))
    systems = Systems(mesh, params)
    error_trace = []
    energy_trace = []
    converged = False
    with ThreadPoolExecutor(max_workers=1) as lane:
        for _ in range(params.max_outer):
            u_prev = state.u.copy()
            admm_inner(mesh, f2, state, systems, lane)
            state.mu = update_mu(mesh, state.u, state.b, f2,
                                 prev_mu=state.mu)
            err = inner_U(mesh, state.u - u_prev, state.u - u_prev)
            error_trace.append(err)
            energy_trace.append(
                energy(mesh, state.z, state.v, state.b, state.mu, f2, params)
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
        kkt=kkt_residuals(mesh, f2, state, params),
        seconds=time.perf_counter() - t0,
        converged=converged,
        alpha=params.alpha,
        state=state,
    )
