"""Triangle mesh loading and oriented incidence structure.

A :class:`TriMesh` stores, besides vertices and faces, one fixed direction
per edge (from the lower to the higher vertex index), the signed
face/edge incidence sgn(face, edge) and the gradient, face areas, edge
lengths, unit face normals and boundary flags.  Its faces are wound
consistently on each connected component.  All arrays are frozen after
construction; instances are safe to share between threads.
"""

import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    DegenerateGeometryError,
    MeshFormatError,
    ParameterError,
    TopologyError,
)

RINGS = ("raw", "n1", "n2")
DEFAULT_RING = "n2"


class TriMesh:
    """Immutable triangle mesh with oriented edge/face incidence.

    Parameters
    ----------
    vertices : (V, 3) array_like
        3D vertex positions.
    faces : (T, 3) array_like
        Vertex index triples; winding order defines face orientation.  A
        face wound against the lowest-index face of its connected
        component has its last two vertices swapped, with a
        ``RuntimeWarning`` giving the number reversed; a non-orientable
        component raises ``TopologyError`` naming a face.

    Attributes
    ----------
    vertices : (V, 3) float array
    faces : (T, 3) int array
        The faces as repaired.
    edges : (E, 2) int array
        Endpoint indices; each row is (low, high), which fixes the edge
        direction low -> high.
    face_edges : (T, 3) int array
        Edge index of each face side, ordered as (v0,v1), (v1,v2), (v2,v0).
    face_edge_signs : (T, 3) int array
        +1 where the stored edge direction agrees with the face's
        counterclockwise boundary traversal, -1 otherwise.
    edge_faces : (E, 2) int array
        Incident face indices, -1 padding for boundary edges.
    boundary_edge : (E,) bool array
    face_areas : (T,) float array
    edge_lengths : (E,) float array
    face_normals : (T, 3) float array
        Unit normals following winding order.
    incidence : (E, T) csr matrix
        Signed incidence: row e holds sgn(tau, e) for each face tau.
    grad : (E, T) csr matrix
        The gradient: ``incidence`` with the boundary-edge rows empty.
    """

    def __init__(self, vertices, faces):
        # copies: the mesh freezes its arrays, and not the caller's
        vertices = np.array(vertices, dtype=float)
        faces = np.array(faces, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise TopologyError("vertices must be an (V, 3) array")
        nonfinite = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
        if nonfinite.size:
            raise DegenerateGeometryError(
                f"vertex {nonfinite[0]} has a non-finite coordinate")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise TopologyError("faces must be an (T, 3) array of vertex triples")
        if faces.size and (faces.min() < 0 or faces.max() >= len(vertices)):
            raise TopologyError("face vertex index out of range")
        a, b, c = faces.T
        repeated = np.flatnonzero((a == b) | (b == c) | (a == c))
        if repeated.size:
            raise TopologyError(f"face {repeated[0]} has repeated vertices")

        self.vertices = vertices
        self.faces = faces
        self._build_incidence()
        flip = self._misoriented_faces()
        if flip.size:
            faces[flip] = faces[flip][:, [0, 2, 1]]
            self._build_incidence()
            warnings.warn(f"reversed the winding of {flip.size} face(s) to "
                          "orient every connected component like its "
                          "lowest-index face", RuntimeWarning)
        self.grad = (sp.diags((~self.boundary_edge).astype(float))
                     @ self.incidence).tocsr()
        self._build_geometry()
        self._patterns = {}
        for arr in (self.vertices, self.faces, self.edges, self.face_edges,
                    self.face_edge_signs, self.edge_faces, self.boundary_edge,
                    self.face_areas, self.edge_lengths, self.face_normals):
            arr.setflags(write=False)
        _freeze(self.incidence)
        _freeze(self.grad)

    # -- construction ------------------------------------------------------

    def _build_incidence(self):
        faces = self.faces
        T = len(faces)
        # the 3T face sides, face-major: (v0,v1), (v1,v2), (v2,v0)
        tail = faces.ravel()
        head = faces[:, [1, 2, 0]].ravel()
        lo = np.minimum(tail, head)
        hi = np.maximum(tail, head)
        _, first, inverse, counts = np.unique(
            lo * len(self.vertices) + hi, return_index=True,
            return_inverse=True, return_counts=True)
        # number the edges in order of first appearance among the sides
        order = np.argsort(first)
        first, counts = first[order], counts[order]
        renumber = np.empty_like(order)
        renumber[order] = np.arange(len(order))
        side_edge = renumber[inverse]

        # sides grouped by edge, each group in face order
        by_edge = np.argsort(side_edge, kind="stable")
        start = np.cumsum(counts) - counts
        rank = np.arange(3 * T) - np.repeat(start, counts)
        third = by_edge[rank >= 2]
        if third.size:
            s = third.min()
            raise TopologyError(
                f"edge {(int(lo[s]), int(hi[s]))} is non-manifold "
                "(3 or more incident faces)"
            )

        self.edges = np.column_stack([lo[first], hi[first]])
        self.face_edges = side_edge.reshape(T, 3)
        self.face_edge_signs = np.where(tail < head, 1, -1).reshape(T, 3)
        interior = np.flatnonzero(counts == 2)
        ef = np.full((len(counts), 2), -1, dtype=np.int64)
        ef[:, 0] = by_edge[start] // 3
        ef[interior, 1] = by_edge[start[interior] + 1] // 3
        self.edge_faces = ef
        self.boundary_edge = ef[:, 1] < 0
        self.incidence = sp.csr_matrix(
            (self.face_edge_signs.ravel().astype(float),
             (self.face_edges.ravel(), np.repeat(np.arange(T), 3))),
            shape=(len(counts), T))

    def _misoriented_faces(self):
        """Faces wound against the lowest-index face of their component.

        Node t of the double cover is face t, node t + T face t reversed;
        faces that traverse their shared edge in the same direction join
        t to t' + T.  A face joined to its own reversal is non-orientable.
        """
        T = self.n_faces
        interior = ~self.boundary_edge
        f0, f1 = self.edge_faces[interior].T
        # the incidence row of such an edge sums to +-2
        cross = T * (np.abs(self.incidence @ np.ones(T))[interior] == 2)
        cover = sp.csr_matrix(
            (np.ones(2 * len(f0)), (np.r_[f0, f0 + T],
                                    np.r_[f1 + cross, f1 + T - cross])),
            shape=(2 * T, 2 * T))
        label = connected_components(cover, directed=False)[1]
        same, other = label[:T], label[T:]
        twisted = np.flatnonzero(same == other)
        if twisted.size:
            raise TopologyError(
                f"face {twisted[0]} lies on a non-orientable component")
        component = np.minimum(same, other)  # the pair of its two sheets
        lowest = np.full(len(label), T)
        np.minimum.at(lowest, component, np.arange(T))
        return np.flatnonzero(same != same[lowest[component]])

    def _build_geometry(self):
        v = self.vertices
        p0, p1, p2 = (v[self.faces[:, i]] for i in range(3))
        cross = np.cross(p1 - p0, p2 - p0)
        cnorm = np.linalg.norm(cross, axis=1)
        scale = np.linalg.norm(p1 - p0, axis=1) * np.linalg.norm(p2 - p0, axis=1)
        bad = np.nonzero(cnorm <= 1e-14 * np.maximum(scale, 1e-300))[0]
        if bad.size:
            raise DegenerateGeometryError(f"face {bad[0]} has zero area")
        self.face_areas = 0.5 * cnorm
        self.face_normals = cross / cnorm[:, None]
        d = v[self.edges[:, 1]] - v[self.edges[:, 0]]
        self.edge_lengths = np.linalg.norm(d, axis=1)

    # -- counts ------------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def n_edges(self):
        return len(self.edges)

    # -- neighborhoods -----------------------------------------------------

    def neighborhoods(self, ring):
        """(T, T) CSR matrix of ones whose row tau holds the neighborhood of
        face tau in ascending column order; built on first use and kept
        with the mesh.

        ``"raw"`` is just ``{tau}``, ``"n1"`` adds the edge-adjacent faces
        and ``"n2"`` the vertex-adjacent ones.  The face itself is always
        included.
        """
        if ring not in RINGS:
            raise ParameterError(f"ring must be one of {RINGS}, got {ring!r}")
        pattern = self._patterns.get(ring)
        if pattern is None:
            T = self.n_faces
            if ring == "raw":
                pattern = sp.identity(T, format="csr")
            elif ring == "n1":
                # consistent winding: adjacent faces meet with opposite
                # signs on every shared edge, so nothing cancels
                pattern = self.incidence.T @ self.incidence
            else:
                # faces sharing a vertex: the pattern of F F^T, with F the
                # face-vertex incidence
                incidence = sp.csr_matrix(
                    (np.ones(3 * T), self.faces.ravel(),
                     np.arange(0, 3 * T + 1, 3)),
                    shape=(T, self.n_vertices))
                pattern = incidence @ incidence.T
            pattern.sum_duplicates()
            pattern.sort_indices()
            pattern.data[:] = 1.0
            self._patterns[ring] = _freeze(pattern)
        return pattern


def _freeze(matrix):
    for arr in (matrix.data, matrix.indices, matrix.indptr):
        arr.setflags(write=False)
    return matrix


def smoothed_normals(mesh, ring=DEFAULT_RING):
    """Area-weighted average normal over each face's neighborhood (see
    :meth:`TriMesh.neighborhoods`), unit length, one row per face.

    Raises
    ------
    DegenerateGeometryError
        Naming the first face whose averaged vector has norm below 1e-12
        of its neighborhood's area, a test that does not depend on units.
    """
    pattern = mesh.neighborhoods(ring)
    avg = pattern @ (mesh.face_areas[:, None] * mesh.face_normals)
    # one dot product per row, so a row rounds as ``np.linalg.norm`` of
    # that row alone does
    norm = np.sqrt((avg[:, None, :] @ avg[:, :, None])[:, 0, 0])
    degenerate = np.flatnonzero(norm < 1e-12 * (pattern @ mesh.face_areas))
    if degenerate.size:
        raise DegenerateGeometryError(
            f"averaged normal of face {degenerate[0]} (ring {ring}) "
            "is degenerate"
        )
    return avg / norm[:, None]


# -- file formats ----------------------------------------------------------


def _as_text(source):
    if isinstance(source, bytes):
        return source.decode("utf-8", errors="replace")
    if isinstance(source, str):
        return source
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    return data


def _strip(line):
    return line.split("#", 1)[0].strip()


def load_off(source):
    """Parse an OFF byte stream into a :class:`TriMesh`."""
    lines = _as_text(source).splitlines()
    rows = [(i + 1, _strip(ln)) for i, ln in enumerate(lines)]
    rows = [(n, ln) for n, ln in rows if ln]
    if not rows:
        raise MeshFormatError("empty OFF file")
    n, header = rows[0]
    body = rows[1:]
    # "OFF", or "OFF" and the counts on one line: "OFF 8 6 0", "OFF8 6 0"
    if header[:3] != "OFF" or not (header[3:4].strip() or "0").isdigit():
        raise MeshFormatError("missing OFF header", line=n)
    if header != "OFF":
        body = [(n, header[3:].strip())] + body
    if not body:
        raise MeshFormatError("missing counts line")
    n, counts = body[0]
    parts = counts.split()
    if len(parts) < 2:
        raise MeshFormatError("expected vertex/face counts", line=n)
    try:
        nv, nf = int(parts[0]), int(parts[1])
        if nv < 0 or nf < 0:
            raise ValueError
    except ValueError:
        raise MeshFormatError("bad counts line", line=n) from None

    body = body[1:]
    if len(body) < nv + nf:
        raise MeshFormatError(f"expected {nv} vertex and {nf} face lines")
    if len(body) > nv + nf:
        raise MeshFormatError("more lines than the counts declare",
                              line=body[nv + nf][0])
    verts = np.empty((nv, 3))
    for i in range(nv):
        n, ln = body[i]
        parts = ln.split()
        try:
            verts[i] = [float(parts[0]), float(parts[1]), float(parts[2])]
        except (ValueError, IndexError):
            raise MeshFormatError("bad vertex line", line=n) from None
    faces = np.empty((nf, 3), dtype=np.int64)
    for i in range(nf):
        n, ln = body[nv + i]
        parts = ln.split()
        try:
            cnt = int(parts[0])
            idx = [int(x) for x in parts[1 : 1 + cnt]]
        except (ValueError, IndexError):
            raise MeshFormatError("bad face line", line=n) from None
        if cnt != 3 or len(idx) != 3:
            raise TopologyError(f"line {n}: only triangle faces are supported")
        faces[i] = idx
    return TriMesh(verts, faces)


def load_obj(source):
    """Parse a Wavefront OBJ byte stream (v/f records only, 1-based)."""
    verts = []
    faces = []
    for n, raw in enumerate(_as_text(source).splitlines(), start=1):
        ln = _strip(raw)
        if not ln:
            continue
        parts = ln.split()
        tag = parts[0]
        if tag == "v":
            try:
                verts.append([float(parts[1]), float(parts[2]), float(parts[3])])
            except (ValueError, IndexError):
                raise MeshFormatError("bad vertex line", line=n) from None
        elif tag == "f":
            refs = parts[1:]
            if len(refs) != 3:
                raise TopologyError(
                    f"line {n}: only triangle faces are supported"
                )
            idx = []
            for ref in refs:
                head = ref.split("/", 1)[0]
                try:
                    i = int(head)
                except ValueError:
                    raise MeshFormatError("bad face line", line=n) from None
                if i < 1:
                    raise MeshFormatError(
                        "only positive 1-based indices supported", line=n
                    )
                idx.append(i - 1)
            faces.append(idx)
        # normals, texcoords, materials and groups are ignored
    if not verts:
        raise MeshFormatError("no vertices in OBJ input")
    return TriMesh(np.array(verts), np.array(faces, dtype=np.int64).reshape(-1, 3))


def load_mesh(source, fmt):
    """Load a TriMesh from OFF or OBJ bytes/text."""
    fmt = fmt.lower()
    if fmt == "off":
        return load_off(source)
    if fmt == "obj":
        return load_obj(source)
    raise MeshFormatError(f"unsupported format {fmt!r}")


def load_mesh_file(path):
    """Load a mesh file, inferring the format from the extension."""
    path = str(path)
    fmt = path.rsplit(".", 1)[-1].lower()
    with open(path, "rb") as fh:
        return load_mesh(fh.read(), fmt)
