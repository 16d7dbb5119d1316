"""Independent straight-line reference implementations used as oracles.

Everything here is built directly from the mesh incidence arrays with
dense numpy linear algebra or plain per-face loops, deliberately sharing
no code with the package's mesh construction, operators or solver.
"""

import numpy as np
from scipy.optimize import minimize_scalar


def dense_operators(mesh):
    """Dense incidence, gradient and divergence matrices plus weights.

    The gradient is the incidence with its boundary-edge rows zeroed; the
    divergence is built from the gradient, so boundary edges carry no
    flux."""
    T, E = mesh.n_faces, mesh.n_edges
    A = np.array(mesh.face_areas)
    l = np.array(mesh.edge_lengths)
    Ginc = np.zeros((E, T))
    for t in range(T):
        for s in range(3):
            Ginc[mesh.face_edges[t, s], t] += mesh.face_edge_signs[t, s]
    Gb = Ginc.copy()
    Gb[np.array(mesh.boundary_edge)] = 0.0
    Dmat = -(Gb.T * l) / A[:, None]
    return A, l, Ginc, Gb, Dmat


def fd_gradient(fun, x, step=1e-5):
    """Central-difference gradient of the scalar ``fun`` at ``x``.

    Perturbs a C-ordered copy of ``x`` one entry at a time: ``ravel`` of a
    Fortran-ordered array is a copy, and writes to it would never reach
    the point ``fun`` reads.
    """
    x = np.array(x, dtype=float, order="C")
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + step
        hi = fun(x)
        flat[i] = old - step
        lo = fun(x)
        flat[i] = old
        gflat[i] = (hi - lo) / (2.0 * step)
    return g


def simplex_bisect(rows, iters=400):
    """Projection onto the probability simplex by bisection on the
    hyperplane offset tau solving sum(max(x - tau, 0)) = 1."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    lo = rows.min(axis=1) - 1.0
    hi = rows.max(axis=1)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        s = np.maximum(rows - mid[:, None], 0.0).sum(axis=1)
        hi = np.where(s <= 1.0, mid, hi)
        lo = np.where(s > 1.0, mid, lo)
    tau = 0.5 * (lo + hi)
    return np.maximum(rows - tau[:, None], 0.0)


def shrink_rows_ref(w, threshold):
    """Row-wise soft shrinkage of Euclidean row norms, by explicit loop."""
    out = np.zeros_like(w)
    for i in range(w.shape[0]):
        n = np.sqrt(np.sum(w[i] ** 2))
        if n > threshold:
            out[i] = w[i] * (1.0 - threshold / n)
    return out


def prox_norm_oracle(row, weight, penalty):
    """Numeric minimizer of weight*||x|| + penalty/2*||x - row||^2.

    The minimizer lies on the segment [0, row]; reduce to the 1-D radial
    problem and solve it by bounded scalar minimization.
    """
    n = np.sqrt(np.sum(row ** 2))
    if n == 0.0:
        return np.zeros_like(row)
    res = minimize_scalar(
        lambda t: weight * t + 0.5 * penalty * (t - n) ** 2,
        bounds=(0.0, n + 1.0),
        method="bounded",
        options={"xatol": 1e-12},
    )
    t = max(res.x, 0.0)
    return row * (t / n)


def one_admm_sweep(mesh, f, st, alpha, beta,
                   r_p=1.0, r_q=1.0, r_z=100.0, alpha0=2.0, eta=1e-5):
    """One full inner sweep (z, u, v, b, p, q, multipliers) transliterated
    with dense solves; returns a dict of the new state arrays."""
    A, l, _, Gb, Dmat = dense_operators(mesh)
    E = mesh.n_edges
    f = np.atleast_2d(np.asarray(f, dtype=float).T).T
    u, z, b = st["u"].copy(), st["z"].copy(), st["b"].copy()
    v, p, q = st["v"].copy(), st["p"].copy(), st["q"].copy()
    lam_p, lam_q, lam_z = (st["lam_p"].copy(), st["lam_q"].copy(),
                           st["lam_z"].copy())
    mu = st["mu"].copy()

    s = ((f[:, None, :] - b[:, None, :] - mu[None]) ** 2).sum(axis=2)
    z = simplex_bisect(u - (alpha * s + lam_z) / r_z)

    Mu = r_p * Gb.T @ (l[:, None] * Gb) + r_z * np.diag(A)
    rhs_u = A[:, None] * (r_z * z + lam_z) \
        + Gb.T @ (l[:, None] * (lam_p + r_p * (p + v)))
    u = np.linalg.solve(Mu, rhs_u)

    gu = Gb @ u
    Mv = -r_q * (Gb @ Dmat) + r_p * np.eye(E)
    rhs_v = -Gb @ (lam_q + r_q * q) - lam_p + r_p * (gu - p)
    v = np.linalg.solve(Mv, rhs_v)

    b = biharmonic_b(mesh, f, z, mu, alpha, beta, eta)

    p = shrink_rows_ref(gu - v - lam_p / r_p, 1.0 / r_p)
    dv = Dmat @ v
    q = shrink_rows_ref(dv - lam_q / r_q, alpha0 / r_q)

    lam_p = lam_p + r_p * (p + v - gu)
    lam_q = lam_q + r_q * (q - dv)
    lam_z = lam_z + r_z * (z - u)
    return {"u": u, "z": z, "b": b, "v": v, "p": p, "q": q,
            "lam_p": lam_p, "lam_q": lam_q, "lam_z": lam_z, "mu": mu}


def biharmonic_b(mesh, f, z, mu, alpha, beta, eta):
    """Smooth-part update by a dense solve of the real biharmonic system
    ``(beta Delta' W Delta + (eta + alpha) W) b = alpha W (f - z mu)``,
    with ``Delta = div grad`` the face Laplacian and ``W`` the areas.

    The system is ill-conditioned on small meshes (1e10 on a sliver-faced
    patch at scale 0.01), so the double solve is refined against the
    system and residual formed in ``np.longdouble``.
    """
    A, l, _, Gb, Dmat = dense_operators(mesh)
    Delta = Dmat @ Gb
    M = beta * (Delta.T * A) @ Delta + (eta + alpha) * np.diag(A)
    Al = A.astype(np.longdouble)[:, None]
    Dl = -(Gb.T * l.astype(np.longdouble)) / Al

    def matvec(x):
        lap = Dl @ (Gb @ x)
        return beta * (Gb.T @ (Dl.T @ (Al * lap))) + (eta + alpha) * Al * x

    rhs = alpha * (Al * (f - z @ mu))
    b = np.linalg.solve(M, rhs.astype(float))
    for _ in range(3):
        b = b + np.linalg.solve(M, (rhs - matvec(b)).astype(float))
    return b


def dense_prior(mesh, beta):
    """The smooth prior ``(beta / 2) |Delta b|_U^2`` in dense form, with
    ``Delta = div grad`` the face Laplacian and ``W`` the areas.

    Returns its operator ``beta Delta' W Delta``, the gradient of the
    prior in plain coordinates, and a function giving its value.
    """
    A, _, _, Gb, Dmat = dense_operators(mesh)
    Delta = Dmat @ Gb

    def value(b):
        lap = Delta @ b
        return 0.5 * beta * float(np.sum(A[:, None] * lap * lap))

    return beta * (Delta.T * A) @ Delta, value


def interior_edge_v(mesh, u, p, lam_p, q, lam_q, r_p, r_q):
    """Slope update by a direct solve on the interior edges alone.

    Boundary edges take ``r_p v = -lam_p - r_p p``; the divergence does
    not read them.  The interior rows of
    ``(-r_q grad div + r_p I) v = -grad(lam_q + r_q q) - lam_p + r_p(grad u - p)``
    are solved as the symmetric interior-edge system
    ``(r_q DG W^-1 (DG)' + r_p D) v = D rhs``.
    """
    A, l, _, Gb, _ = dense_operators(mesh)
    inner = ~np.array(mesh.boundary_edge)
    v = np.where(inner[:, None], 0.0, -lam_p / r_p - p)
    rhs = -Gb @ (lam_q + r_q * q) - lam_p + r_p * (Gb @ u - p)
    DG = l[inner, None] * Gb[inner]
    M = r_q * (DG / A) @ DG.T + r_p * np.diag(l[inner])
    v[inner] = np.linalg.solve(M, l[inner, None] * rhs[inner])
    return v


def dense_spectral_channels(laplacian, areas, n_channels):
    """Smallest nonzero eigenpairs of a connected mesh's face Laplacian
    by dense ``np.linalg.eigh`` of the full matrix.

    Skips the constant kernel vector and returns ``n_channels``
    eigenvalues plus their eigenvectors scaled to unit area-weighted
    variance (sign left as eigh returns it).
    """
    w, V = np.linalg.eigh(laplacian.toarray())
    w, V = w[1:n_channels + 1], V[:, 1:n_channels + 1]
    A = np.asarray(areas, dtype=float)
    mean = A @ V / A.sum()
    var = A @ (V - mean) ** 2 / A.sum()
    return w, V / np.sqrt(var)


def indicator_bases(mesh):
    """Component indicators and their contrasts by Gram-Schmidt.

    Components come from the interior edges of ``mesh.edge_faces``.
    Returns the unit indicator columns, in component order, and the
    indicators 1..C-1 orthonormalized against the global constant and
    each other in that order (no columns for a connected mesh).
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n_faces = mesh.n_faces
    f0, f1 = mesh.edge_faces[~mesh.boundary_edge].T
    graph = coo_matrix((np.ones(len(f0)), (f0, f1)), shape=(n_faces, n_faces))
    n_comp, labels = connected_components(graph, directed=False)
    indicators = np.zeros((n_faces, n_comp))
    indicators[np.arange(n_faces), labels] = 1.0
    indicators /= np.linalg.norm(indicators, axis=0)
    contrasts = []
    prev = [np.full(n_faces, 1.0 / np.sqrt(n_faces))]
    for k in range(1, n_comp):
        x = indicators[:, k].copy()
        for b in prev:
            x -= b * (b @ x)
        x /= np.linalg.norm(x)
        prev.append(x)
        contrasts.append(x)
    return indicators, np.column_stack([np.zeros((n_faces, 0))] + contrasts)


def dense_feature_field(laplacian, areas, indicators, contrasts, n_channels):
    """Feature channels of a possibly disconnected mesh by dense ``eigh``.

    The contrasts come first; the eigenvectors of increasing eigenvalue
    that lie outside the indicator span follow.  Each channel is scaled
    to unit area-weighted variance and signed so that its first entry of
    magnitude above 1e-8 of its largest is positive.  Returns the
    channels and their eigenvalues.
    """
    channels = [contrasts[:, j] for j in range(contrasts.shape[1])]
    channels = channels[:n_channels]
    eigvals = [0.0] * len(channels)
    w, V = np.linalg.eigh(laplacian.toarray())
    for lam, x in zip(w, V.T):
        if len(channels) == n_channels:
            break
        if np.linalg.norm(x - indicators @ (indicators.T @ x)) >= 0.5:
            channels.append(x)
            eigvals.append(lam)
    A = np.asarray(areas, dtype=float)
    out = []
    for x in channels:
        mean = A @ x / A.sum()
        x = x / np.sqrt(A @ (x - mean) ** 2 / A.sum())
        first = np.flatnonzero(np.abs(x) > 1e-8 * np.abs(x).max())[0]
        out.append(x if x[first] > 0 else -x)
    return np.column_stack(out), np.array(eigvals)


# -- mesh construction by per-face loops ------------------------------------


def incidence_loops(faces):
    """Edges, face edges, signs and edge faces by a dict over face sides.

    Edges are numbered in order of first appearance (face-major, sides
    (v0,v1), (v1,v2), (v2,v0)).  Raises ``TopologyError`` at the first side
    that gives an edge a third face, and returns the interior edges whose
    two faces traverse them in the same direction (inconsistent winding).
    """
    from msseg.errors import TopologyError

    faces = np.asarray(faces, dtype=np.int64)
    edge_index = {}
    edges = []
    edge_faces = []
    face_edges = np.empty((len(faces), 3), dtype=np.int64)
    face_signs = np.empty((len(faces), 3), dtype=np.int64)
    for t, (a, b, c) in enumerate(faces.tolist()):
        for s, (u, v) in enumerate(((a, b), (b, c), (c, a))):
            key = (u, v) if u < v else (v, u)
            e = edge_index.setdefault(key, len(edges))
            if e == len(edges):
                edges.append(key)
                edge_faces.append([])
            if len(edge_faces[e]) >= 2:
                raise TopologyError(
                    f"edge {key} is non-manifold (3 or more incident faces)"
                )
            edge_faces[e].append(t)
            face_edges[t, s] = e
            face_signs[t, s] = 1 if (u, v) == key else -1
    ef = np.full((len(edges), 2), -1, dtype=np.int64)
    for e, fl in enumerate(edge_faces):
        ef[e, : len(fl)] = fl
    bad = []
    for e, (f0, f1) in enumerate(ef.tolist()):
        if f1 >= 0 and (face_signs[f0, face_edges[f0] == e][0]
                        == face_signs[f1, face_edges[f1] == e][0]):
            bad.append(e)
    return {"edges": np.array(edges, dtype=np.int64).reshape(-1, 2),
            "face_edges": face_edges, "face_edge_signs": face_signs,
            "edge_faces": ef, "bad_winding": bad}


def orient_loop(faces):
    """Faces with every connected component wound like its lowest-index
    face, by breadth-first search over shared edges.

    A face is reversed by swapping its last two vertices.  Returns the
    faces and the number reversed, or ``None`` when a component is
    non-orientable.
    """
    faces = np.asarray(faces, dtype=np.int64).tolist()
    by_edge = {}
    for t, (a, b, c) in enumerate(faces):
        for u, v in ((a, b), (b, c), (c, a)):
            by_edge.setdefault(frozenset((u, v)), []).append((t, (u, v)))
    reverse = [None] * len(faces)
    for root in range(len(faces)):
        if reverse[root] is not None:
            continue
        reverse[root] = False
        queue = [root]
        while queue:
            t = queue.pop(0)
            a, b, c = faces[t]
            for u, v in ((a, b), (b, c), (c, a)):
                mine = (v, u) if reverse[t] else (u, v)
                for s, side in by_edge[frozenset((u, v))]:
                    if s == t:
                        continue
                    # agreeing faces traverse a shared edge in opposite
                    # directions
                    want = side == mine
                    if reverse[s] is None:
                        reverse[s] = want
                        queue.append(s)
                    elif reverse[s] != want:
                        return None
    out = [[a, c, b] if flip else [a, b, c]
           for (a, b, c), flip in zip(faces, reverse)]
    return np.array(out, dtype=np.int64).reshape(-1, 3), sum(reverse)


def neighbor_lists(mesh, ring):
    """Per-face sorted ``n1`` (edge-adjacent) or ``n2`` (vertex-adjacent)
    neighborhoods, the face itself included, built from Python sets."""
    lists = [{t} for t in range(mesh.n_faces)]
    if ring == "n1":
        for f0, f1 in mesh.edge_faces.tolist():
            if f1 >= 0:
                lists[f0].add(f1)
                lists[f1].add(f0)
    else:
        vert_faces = [[] for _ in range(mesh.n_vertices)]
        for t, f in enumerate(mesh.faces.tolist()):
            for vid in f:
                vert_faces[vid].append(t)
        for t, f in enumerate(mesh.faces.tolist()):
            for vid in f:
                lists[t].update(vert_faces[vid])
    return [np.array(sorted(s), dtype=np.int64) for s in lists]


def smoothed_normals_loop(mesh, ring):
    """Area-weighted neighborhood normals, one face at a time."""
    out = np.empty((mesh.n_faces, 3))
    tables = neighbor_lists(mesh, ring)
    for tau, nb in enumerate(tables):
        avg = (mesh.face_areas[nb, None] * mesh.face_normals[nb]).sum(axis=0)
        out[tau] = avg / np.linalg.norm(avg)
    return out


def seg_text_loop(labels):
    """.seg text with one formatted row per face."""
    return "".join(f"{int(lab)}\n" for lab in labels)


def colored_ply_loop(mesh, labels, label_color):
    """ASCII PLY text with one flat color per face, a color call and a
    formatted row per face."""
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {mesh.n_vertices}",
        "property float x",
        "property float y",
        "property float z",
        f"element face {mesh.n_faces}",
        "property list uchar int vertex_indices",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    for v in mesh.vertices:
        lines.append(f"{v[0]:.9g} {v[1]:.9g} {v[2]:.9g}")
    for f, lab in zip(mesh.faces, np.asarray(labels)):
        r, g, b = label_color(int(lab))
        lines.append(f"3 {f[0]} {f[1]} {f[2]} {r} {g} {b}")
    return "\n".join(lines) + "\n"


# -- row-wise forms of the ADMM sweep, bitwise oracles of the column-wise ones
#
# The package's earlier forms of these steps.  Unlike the oracles above they
# read the mesh's ``grad`` and the solver's factored systems: they pin the
# order of every floating-point operation, not the mathematics.


def project_simplex_sort(rows):
    """Simplex projection by a row-wise sort: ``np.sort``, ``np.cumsum``
    and the last kept prefix by ``argmax`` along each row, after centering
    each row on its max."""
    y = np.atleast_2d(np.asarray(rows, dtype=float))
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


def row_norms_linalg(x):
    """Row norms by ``np.linalg.norm`` along the row axis."""
    return np.linalg.norm(x, axis=1)


def _column_field(x):
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 else x


def divergence_prescaled(mesh, p):
    """``-(grad' (l p)) / A``: the lengths scaled into ``p`` before the
    transposed gradient."""
    p = _column_field(p)
    return -(mesh.grad.T @ (mesh.edge_lengths[:, None] * p)) \
        / mesh.face_areas[:, None]


def solve_u_prescaled(mesh, z, lam_z, p, v, lam_p, systems):
    """The label update with its edge term scaled before ``grad'``."""
    edge_term = lam_p + systems.params.r_p * (p + v)
    rhs = mesh.face_areas[:, None] * (systems.params.r_z * z + lam_z) \
        + mesh.grad.T @ (mesh.edge_lengths[:, None] * edge_term)
    return systems.u_solve(rhs)


def solve_v_prescaled(mesh, gu, p, lam_p, q, lam_q, systems):
    """The slope update with its face right-hand side scaled before
    ``grad'``."""
    r_p, r_q = systems.params.r_p, systems.params.r_q
    y = -(mesh.grad @ (lam_q + r_q * q)) - lam_p + r_p * (gu - p)
    w = systems.v_solve(mesh.grad.T @ (mesh.edge_lengths[:, None] * y))
    return (y - mesh.grad @ w) / r_p


def tv_energy_prescaled(mesh, u):
    """``sum |grad u| * l`` with the lengths broadcast over the channels."""
    g = mesh.grad @ _column_field(u)
    return float(np.sum(mesh.edge_lengths[:, None] * np.abs(g)))


def vectorial_rtgv_prescaled(mesh, u, v, alpha0):
    """``sum ||grad u - v|| * l + alpha0 * sum ||div v|| * A`` with
    ``np.linalg.norm`` row norms and the weights broadcast."""
    g = mesh.grad @ _column_field(u)
    dv = divergence_prescaled(mesh, v)
    first = np.sum(mesh.edge_lengths[:, None]
                   * np.linalg.norm(g - _column_field(v), axis=1,
                                    keepdims=True))
    second = np.sum(mesh.face_areas[:, None]
                    * np.linalg.norm(dv, axis=1, keepdims=True))
    return float(first + alpha0 * second)
