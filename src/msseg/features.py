"""Normal-affinity face Laplacian and spectral feature fields.

The Laplacian ``grad.T @ diag(w) @ grad`` couples edge-adjacent faces
with weights ``w_e = l_e * exp(-d_e / dbar)`` where ``d_e`` is the squared
distance between the (smoothed) unit normals of the faces of edge ``e``
and ``dbar`` its mean over interior edges.  The segmentation input signal
is built from the low end of its spectrum.  Its kernel is spanned by the
indicators of the mesh's components (``mesh.components``); their
contrasts are written down in closed form, not computed.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .calculus import _DirectSolve, _gate
from .errors import FeatureError, NumericError, check_integer
from .mesh import DEFAULT_RING, smoothed_normals


def build_laplacian(mesh, ring=DEFAULT_RING):
    """The symmetric PSD face Laplacian ``grad.T @ diag(w) @ grad``, with
    ``grad = mesh.grad``: zero row sums, ``-w_e`` off the diagonal.

    On a perfectly flat mesh (mean normal distance below 1e-12) every
    exponential is taken as 1.
    """
    interior = ~mesh.boundary_edge
    if not interior.any():
        raise FeatureError("mesh has no interior edges; cannot build Laplacian")
    normals = smoothed_normals(mesh, ring)
    # the normal jump across each edge; boundary rows of grad are empty
    d = np.sum((mesh.grad @ normals) ** 2, axis=1)
    dbar = float(d[interior].mean())
    w = mesh.edge_lengths * (np.exp(-d / dbar) if dbar >= 1e-12 else 1.0)
    return (mesh.grad.T @ sp.diags(w) @ mesh.grad).tocsr()


@dataclass
class FeatureField:
    """Spectral features: one column per retained eigenvector.

    ``values`` has ``n_segments - 1`` columns, each rescaled to unit
    area-weighted variance (the applied factors are kept in ``scales``).
    Eigenvectors have zero plain mean by construction, so rescaling
    preserves the eigenpair property recorded in ``eigenvalues``.
    """

    values: np.ndarray
    eigenvalues: np.ndarray
    scales: np.ndarray


def feature_field(mesh, n_segments, ring=DEFAULT_RING):
    """Low-spectrum feature signal: ``n_segments - 1`` channels.

    The uninformative global-constant direction is skipped.  Remaining
    kernel directions of a disconnected mesh come first: for component
    k = 1, 2, ... the normalized contrast ``1_k - (n_k / N_k) 1_{R_k}``,
    where ``R_k`` is component 0 together with components k, k+1, ...,
    and ``n_k``, ``N_k`` count the faces of component k and of ``R_k``.
    That is Gram-Schmidt of the indicators against the constant, in
    component order; only the contrasts used are built.  Eigenvectors of
    increasing positive eigenvalue follow.  Every channel gets a
    deterministic sign (first entry of magnitude above tolerance is
    positive).  The eigenpairs come from a shift-invert ARPACK solve
    through ``_DirectSolve`` at every size; a dense ``eigh`` serves only a
    request that covers the whole spectrum.  Every eigenpair passes the
    solves' gate, ``calculus._gate``, or ``NumericError`` names its channel.
    """
    check_integer("n_segments", n_segments)
    if n_segments < 2:
        raise FeatureError(f"need at least 2 segments, got {n_segments}")
    T = mesh.n_faces
    k_needed = n_segments - 1
    if k_needed >= T:
        raise FeatureError(
            f"{n_segments} segments need {k_needed} channels but mesh has "
            f"only {T} faces"
        )
    L = build_laplacian(mesh, ring)
    max_diag = float(L.diagonal().max())

    comp = mesh.components
    size = np.bincount(comp)
    n_comp = len(size)
    # the contrasts of the docstring; rest[k] is N_k
    rest = size[0] + np.cumsum(size[::-1])[::-1]
    channels = []
    for k in range(1, min(n_comp - 1, k_needed) + 1):
        x = (comp == k) - size[k] / rest[k] * ((comp == 0) | (comp >= k))
        channels.append(x / np.linalg.norm(x))
    eigvals = [0.0] * len(channels)
    vecs_needed = k_needed - len(channels)

    if vecs_needed > 0:
        # the indicator span contributes one (uninformative) kernel vector
        # per component on top of the channels we still need
        k_solve = vecs_needed + n_comp + 2
        if k_solve >= T:
            # ARPACK needs k < T; the request covers the whole spectrum
            w, V = np.linalg.eigh(L.toarray())
        else:
            sigma = -1e-6 * max(max_diag, 1.0)
            shifted = _DirectSolve(L - sigma * sp.identity(T),
                                   lambda x: L @ x - sigma * x)
            try:
                w, V = spla.eigsh(
                    L, k=k_solve, sigma=sigma, which="LM",
                    v0=np.full(T, 1.0 / np.sqrt(T)),
                    OPinv=spla.LinearOperator((T, T), matvec=shifted),
                )
            except (spla.ArpackNoConvergence, RuntimeError) as exc:
                raise NumericError(f"eigensolver failed to converge: {exc}")
            order = np.argsort(w)
            w, V = w[order], V[:, order]
        # keep eigenvectors outside the component-indicator span; the ones
        # inside it are the near-constant kernel directions (one per
        # component) whose informative contrasts are already channels
        kept = 0
        for idx in range(V.shape[1]):
            x = V[:, idx]
            outside = x - (np.bincount(comp, x) / size)[comp]
            if np.linalg.norm(outside) < 0.5:
                continue
            channels.append(x)
            eigvals.append(float(w[idx]))
            kept += 1
            if kept == vecs_needed:
                break
        if kept < vecs_needed:
            raise FeatureError(
                f"only {kept} informative eigenpairs available, "
                f"need {vecs_needed}"
            )

    values = np.column_stack(channels)
    eigvals = np.array(eigvals)

    # the solves' gate, with |L|_inf = 2 max_diag exact (zero row sums,
    # off-diagonals <= 0)
    for j, lam in enumerate(eigvals):
        x = values[:, j]
        try:
            _gate(x, L @ x - lam * x, 0.0, 2 * max_diag + abs(lam))
        except NumericError as exc:
            raise NumericError(f"eigenpair of channel {j} (eigenvalue "
                               f"{lam:.6e}): {exc}") from None

    # unit area-weighted variance; sign: first sizable entry positive
    areas = mesh.face_areas
    total = areas.sum()
    scales = np.empty(values.shape[1])
    for j in range(values.shape[1]):
        x = values[:, j]
        mean = float(areas @ x) / total
        var = float(areas @ (x - mean) ** 2) / total
        s = 1.0 / np.sqrt(var) if var > 0 else 1.0
        x = x * s
        nz = np.nonzero(np.abs(x) > 1e-8 * np.abs(x).max())[0]
        if nz.size and x[nz[0]] < 0:
            x = -x
            s = -s
        values[:, j] = x
        scales[j] = s
    return FeatureField(values=values, eigenvalues=eigvals, scales=scales)
