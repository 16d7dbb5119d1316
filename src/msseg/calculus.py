"""Discrete differential operators and variation energies on mesh fields.

Face fields are ``(n_faces, n)`` arrays, edge fields ``(n_edges, n)``
arrays.  The gradient jumps a face field across interior edges and is
zero on boundary edges.  The divergence maps edge fields back to faces
by the transpose of the same matrix, ``TriMesh.grad``, with the 1/area
factor that makes ``-div`` the exact adjoint of the gradient under the
area/length weighted inner products below, for every edge field.
"""

import numpy as np
import scipy.sparse.linalg as spla

from .errors import DimensionError, NumericError, ParameterError


_SOLVE_RTOL = 1e-8  # residual bound of every direct solve, relative to 1 + |rhs|


class _SPDSolve:
    """Direct solve of an SPD sparse system, with a residual check.

    The one sparse factorization of the package: the solver's u, v and b
    systems and the features' shift-invert eigensolve all use it.  One
    SuperLU factorization in symmetric mode (minimum degree ordering on
    the pattern of ``A' + A``, diagonal pivots) serves every later solve.
    """

    def __init__(self, matrix):
        self.matrix = matrix.tocsc()
        self._lu = spla.splu(self.matrix, permc_spec="MMD_AT_PLUS_A",
                             diag_pivot_thresh=0.0,
                             options={"SymmetricMode": True})

    def __call__(self, rhs):
        x = self._lu.solve(rhs)
        res = np.linalg.norm(self.matrix @ x - rhs)
        if res > _SOLVE_RTOL * (1.0 + np.linalg.norm(rhs)):
            raise NumericError(
                f"linear solve residual {res:.3e} above tolerance"
            )
        return x


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
    """Divergence of an edge field, ``-(1/A) grad' (l p)``: the sgn-weighted
    sum of p*l over the interior edges of each face.

    ``<grad u, p>_V = -<u, div p>_U`` holds for every edge field ``p``.
    """
    p = _field(p, mesh.n_edges, "edge", "p")
    return -(mesh.grad.T @ (mesh.edge_lengths[:, None] * p)) \
        / mesh.face_areas[:, None]


def laplace(mesh, u):
    """Face-based Laplacian: divergence of the gradient."""
    return divergence(mesh, gradient(mesh, u))


def inner_U(mesh, a, b):
    """Area-weighted inner product of two face fields."""
    a = _field(a, mesh.n_faces, "face", "a")
    b = _field(b, mesh.n_faces, "face", "b")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(mesh.face_areas[:, None] * a * b))


def inner_V(mesh, a, b):
    """Length-weighted inner product of two edge fields."""
    a = _field(a, mesh.n_edges, "edge", "a")
    b = _field(b, mesh.n_edges, "edge", "b")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(mesh.edge_lengths[:, None] * a * b))


def norm_U(mesh, a):
    return float(np.sqrt(max(inner_U(mesh, a, a), 0.0)))


def norm_V(mesh, a):
    return float(np.sqrt(max(inner_V(mesh, a, a), 0.0)))


def tv_energy(mesh, u):
    """First-order total variation: sum_e sum_i |(grad u)_ei| * l_e."""
    g = gradient(mesh, u)
    return float(np.sum(mesh.edge_lengths[:, None] * np.abs(g)))


def rtgv_value(mesh, u, v, alpha0):
    """Relaxed second-order TGV objective evaluated at a given edge field.

    Returns ``sum |grad u - v| * l  +  alpha0 * sum |div v| * A``.  The
    minimum over ``v`` is realized by the solver; this is the evaluator.
    """
    if alpha0 <= 0:
        raise ParameterError(f"alpha0 must be positive, got {alpha0}")
    u = _field(u, mesh.n_faces, "face", "u")
    v = _field(v, mesh.n_edges, "edge", "v")
    g = gradient(mesh, u)
    if g.shape != v.shape:
        raise DimensionError(f"shape mismatch: grad u {g.shape} vs v {v.shape}")
    first = np.sum(mesh.edge_lengths[:, None] * np.abs(g - v))
    second = np.sum(mesh.face_areas[:, None] * np.abs(divergence(mesh, v)))
    return float(first + alpha0 * second)
