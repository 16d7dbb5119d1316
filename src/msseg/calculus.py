"""Discrete differential operators and variation energies on mesh fields.

Face fields are ``(n_faces, n)`` arrays, edge fields ``(n_edges, n)``
arrays.  The gradient jumps a face field across interior edges and is
zero on boundary edges.  The divergence maps edge fields back to faces
by the transpose of the same matrix, ``TriMesh.grad``, with the 1/area
factor that makes ``-div`` the exact adjoint of the gradient under the
area/length weighted inner products below, for every edge field.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionError, NumericError, ParameterError


_SOLVE_RTOL = 1e-8  # backward error bound of every solve and eigenpair


def _factor(matrix):
    """The package's one sparse factorization (see :class:`_DirectSolve`);
    ``NumericError`` when SuperLU finds it singular."""
    try:
        return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0, relax=1, panel_size=1,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise NumericError(f"sparse factorization failed: {exc}") from exc


def _gate(x, image, rhs, norm):
    """``x`` if it is finite and its normwise backward error in ``B x =
    rhs``, with ``image = B x`` and ``norm`` a bound of ``|B|``, is within
    ``_SOLVE_RTOL`` (see :class:`_DirectSolve`); else ``NumericError``."""
    res = np.linalg.norm(image - rhs)
    bound = norm * np.linalg.norm(x) + np.linalg.norm(rhs)
    # a NaN or inf in x makes res and bound NaN or inf, and then no
    # comparison of the two rejects x
    if not np.isfinite(x).all() or res > _SOLVE_RTOL * bound:
        raise NumericError(f"residual {res:.3e} above tolerance "
                           f"({_SOLVE_RTOL:.0e} of {bound:.3e})")
    return x


class _DirectSolve:
    """Gated direct solve of the sparse real system ``(a M + diag(d)) x =
    r``: the u and v systems, ``M = mesh.S`` and ``d`` a multiple of the
    areas, and the features' shifted Laplacian, ``M = L`` and ``d = -sigma``.

    Every factor, these and :class:`BiharmonicPrior`'s, comes from
    :func:`_factor`: SuperLU in symmetric mode (minimum degree ordering on
    the pattern of ``A' + A``, diagonal pivots), safe for an SPD matrix and
    for a complex one that a unit multiple gives a positive definite
    Hermitian part (the prior's), all built on ``mesh.S``.  On the face
    graph, of degree 3, supernodes are a few columns wide: ``relax=1`` and
    ``panel_size=1`` skip SuperLU's relaxed supernodes and shrink its panel
    workspace from 20 n entries to n, for the same fill in less time and
    memory.  Solutions are C-ordered (SuperLU returns Fortran order), so
    the products and row-wise steps that read them do not copy or stride.

    Every solution and eigenpair passes :func:`_gate`, a normwise backward
    error within ``_SOLVE_RTOL`` (Rigal & Gaches): ``|B x - r| <=
    _SOLVE_RTOL * (|B| |x| + |r|)``, with ``|B|`` the infinity norm of the
    checked system (here of ``a M + diag(d)``), a bound of its 2-norm for
    the symmetric matrices factored here, and Frobenius norms of ``x`` and
    ``r``.  A backward-stable solve meets it however ill-conditioned ``B``
    is; a wrong factor does not.

    The assembled matrix is factored and dropped: the solve keeps its
    factor, its norm and ``M``, ``a`` and ``d``, from which the gate forms
    ``B x = a (M x) + d x``, row by row for a ``(T, k)`` right side (the
    sweep's) as for a ``(T,)`` one (ARPACK's).  ``M`` is a matrix the
    caller keeps anyway (``mesh.S``, or the features' Laplacian).
    """

    def __init__(self, M, a, d):
        matrix = (a * M + sp.diags(d)).tocsc()
        self._lu = _factor(matrix)
        self.norm = spla.norm(matrix, np.inf)
        self.M, self.a, self.d = M, a, d

    def __call__(self, rhs):
        x = np.ascontiguousarray(self._lu.solve(rhs))
        d = self.d if x.ndim == 1 else self.d[:, None]
        return _gate(x, self.a * (self.M @ x) + d * x, rhs, self.norm)


class BiharmonicPrior:
    """The smooth part's prior ``(beta / 2) |Delta b|_U^2``, with the face
    Laplacian ``Delta = -W^-1 S``, ``S = mesh.S`` and ``W`` the areas: its
    operator ``P = beta S W^-1 S``, value and norm bound, and with a
    coefficient ``c`` the gated solve of ``(P + c W) b = r``.

    With ``A = sqrt(beta) S`` and ``s = sqrt(c)``, ``P + c W = (A - i s W)
    W^-1 (A + i s W)``, so ``b = Im((A - i s W)^-1 r) / s`` through one
    complex factor on the pattern of ``S``, which times ``i`` has the
    positive definite Hermitian part ``s W``.  Only the factor is kept: the
    gate checks the real system ``P b + c W b``.  ``S W^-1 S`` is never
    formed: ``W`` and ``W^-1`` are row scalings by the areas.
    """

    def __init__(self, mesh, beta, c=None):
        self.S, self.beta = mesh.S, beta
        self.areas = mesh.face_areas[:, None]
        if c is not None:
            self.c = c
            W = sp.diags(mesh.face_areas)
            self._lu = _factor(np.sqrt(beta) * self.S - 1j * np.sqrt(c) * W)
            self.norm = self.norm_bound() + c * mesh.face_areas.max()

    def apply(self, b):
        """``P b = beta S W^-1 S b``."""
        return self.beta * (self.S @ ((self.S @ b) / self.areas))

    def energy(self, b):
        """``(beta / 2) <S b, W^-1 S b>``, the prior's value."""
        Sb = self.S @ b
        return 0.5 * self.beta * float(np.sum(Sb * (Sb / self.areas)))

    def norm_bound(self):
        """``beta |S| |W^-1 S|``, a bound of ``|P|`` (infinity norms)."""
        rows = np.asarray(abs(self.S).sum(axis=1)).ravel()  # |S| = max(rows)
        return self.beta * rows.max() * (rows / self.areas[:, 0]).max()

    def __call__(self, rhs):
        # divide into a C-ordered array: one pass over the strided Im(x)
        b = np.divide(self._lu.solve(rhs).imag, np.sqrt(self.c), order="C")
        return _gate(b, self.apply(b) + self.c * (self.areas * b), rhs,
                     self.norm)


def _field(x, rows, kind, name):
    """``x`` as a ``(rows, n)`` array; a 1-D ``x`` becomes one column."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != rows:
        raise DimensionError(
            f"{name}: expected ({rows}, n) {kind} field, got {x.shape}")
    return x


def gradient(mesh, u):
    """Signed jump of a face field across each interior edge.

    Boundary edge rows are zero.
    """
    u = _field(u, mesh.n_faces, "face", "u")
    return mesh.grad @ u


def divergence(mesh, p):
    """Divergence of an edge field, ``-(grad' diag(l) p) / A``: the
    sgn-weighted sum of p*l over the interior edges of each face.

    ``mesh.grad_tl`` holds ``grad' diag(l)``, so each term is the product
    ``+-l_e * p_e`` and the terms of a face add up in edge order, as in
    ``grad' @ (l * p)``.  ``<grad u, p>_V = -<u, div p>_U`` holds for
    every edge field ``p``.
    """
    p = _field(p, mesh.n_edges, "edge", "p")
    return -(mesh.grad_tl @ p) / mesh.face_areas[:, None]


def inner_U(mesh, a, b):
    """Area-weighted inner product of two face fields."""
    return _inner(mesh.face_areas, "face", a, b)


def inner_V(mesh, a, b):
    """Length-weighted inner product of two edge fields."""
    return _inner(mesh.edge_lengths, "edge", a, b)


def _inner(weights, kind, a, b):
    a = _field(a, len(weights), kind, "a")
    b = _field(b, len(weights), kind, "b")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(weights[:, None] * a * b))


def norm_U(mesh, a):
    return float(np.sqrt(max(inner_U(mesh, a, a), 0.0)))


def norm_V(mesh, a):
    return float(np.sqrt(max(inner_V(mesh, a, a), 0.0)))


def tv_energy(mesh, u):
    """First-order total variation: sum_e sum_i |(grad u)_ei| * l_e."""
    g = np.abs(gradient(mesh, u))
    return inner_V(mesh, g, np.ones_like(g))


def vectorial_rtgv(mesh, u, v, alpha0):
    """Relaxed TGV with the Euclidean norm of each row across channels:
    ``sum ||grad u - v||_2 * l  +  alpha0 * sum ||div v||_2 * A``.

    The vectorial (channel-isotropic) form that the solver's row-wise
    shrinkages ``prox_p`` and ``prox_q`` minimize.
    """
    if not alpha0 > 0:  # NaN included
        raise ParameterError(f"alpha0 must be positive, got {alpha0}")
    u = _field(u, mesh.n_faces, "face", "u")
    v = _field(v, mesh.n_edges, "edge", "v")
    g = gradient(mesh, u)
    if g.shape != v.shape:
        raise DimensionError(f"shape mismatch: grad u {g.shape} vs v {v.shape}")
    # each part is <|x|, 1>, with |x| the row norm of a field
    first = row_norms(g - v)
    second = row_norms(divergence(mesh, v))
    return inner_V(mesh, first, np.ones_like(first)) \
        + alpha0 * inner_U(mesh, second, np.ones_like(second))


def row_norms(x):
    """Euclidean norm of each row of a ``(rows, n)`` array.

    The squares are summed column by column in channel order, each step
    over all rows at once, where a reduction along the short row axis runs
    row by row.  Below 8 columns that is numpy's own order, so the result
    equals ``np.linalg.norm(x, axis=1)`` bitwise; from 8 on numpy sums
    pairwise and the two differ by rounding.
    """
    squares = np.square(x.T, out=np.empty(x.shape[::-1]))  # a row each
    for row in squares[1:]:
        squares[0] += row
    return np.sqrt(squares[0])
