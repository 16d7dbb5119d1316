"""Triangle mesh loading and oriented incidence structure.

A :class:`TriMesh` stores, besides vertices and faces, one fixed direction
per edge (from the lower to the higher vertex index), the gradient (the
signed face/edge incidence sgn(face, edge) on interior edges), face areas,
edge lengths, unit face normals and boundary flags.  Its faces are wound
consistently on each connected component.  Every attribute is a frozen
array or sparse matrix set at construction and nothing is cached, so
instances are safe to share between threads.
"""

import re
import warnings
from itertools import chain
from pathlib import Path

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
    """Immutable triangle mesh with oriented edge/face incidence: the
    attributes below, each a read-only array or a sparse matrix whose
    arrays are read-only, and nothing else.

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
        direction low -> high.  Numbered in order of first appearance
        among the face sides (v0,v1), (v1,v2), (v2,v0), face by face.
    boundary_edge : (E,) bool array
        True on an edge with one incident face.
    face_areas : (T,) float array
    edge_lengths : (E,) float array
    face_normals : (T, 3) float array
        Unit normals following winding order.
    grad : (E, T) csr matrix
        The gradient, the signed incidence on interior edges: row e holds
        sgn(tau, e) for each of its two faces tau, +1 where the edge
        direction agrees with the face's counterclockwise traversal and
        -1 otherwise, and is empty on a boundary edge.
    grad_tl : (T, E) csr matrix
        ``grad.T @ diag(edge_lengths)``, indices sorted: the length-weighted
        transpose that the divergence and the solver's right-hand sides
        apply, each entry ``+-l_e``.
    S : (T, T) csr matrix
        ``grad_tl @ grad``, canonical: the length-weighted face Laplacian
        times ``-A``, on which the u and v systems and the smooth prior
        (:class:`msseg.calculus.BiharmonicPrior`) are built.
    components : (T,) int array
        Connected component of each face (edge adjacency), numbered
        0, 1, ... in order of each component's lowest-index face.
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
        self.components, flip = self._orient(self._build_incidence())
        if flip.size:
            faces[flip] = faces[flip][:, [0, 2, 1]]
            self._build_incidence()
            warnings.warn(f"reversed the winding of {flip.size} face(s) to "
                          "orient every connected component like its "
                          "lowest-index face", RuntimeWarning)
        self._build_geometry()
        self.grad_tl = (self.grad.T @ sp.diags(self.edge_lengths)).tocsr()
        self.grad_tl.sort_indices()
        self.S = self.grad_tl @ self.grad
        self.S.sum_duplicates()  # canonical: also sorts the indices
        for arr in (self.vertices, self.faces, self.edges, self.boundary_edge,
                    self.face_areas, self.edge_lengths, self.face_normals,
                    self.components):
            arr.setflags(write=False)
        for matrix in (self.grad, self.grad_tl, self.S):
            _freeze(matrix)

    # -- construction ------------------------------------------------------

    def _build_incidence(self):
        """Set ``edges``, ``boundary_edge`` and ``grad``; return the two
        faces of each interior edge, in edge order, as an (I, 2) array.
        The side tables they are built from are not kept."""
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
        self.boundary_edge = counts < 2
        incidence = sp.csr_matrix(
            (np.where(tail < head, 1.0, -1.0),
             (side_edge, np.repeat(np.arange(T), 3))),
            shape=(len(counts), T))
        self.grad = (sp.diags((~self.boundary_edge).astype(float))
                     @ incidence).tocsr()
        interior = start[~self.boundary_edge]
        return np.column_stack([by_edge[interior], by_edge[interior + 1]]) // 3

    def _orient(self, pairs):
        """Component labels, numbered by lowest face, and the faces wound
        against the lowest-index face of their component, from the face
        ``pairs`` of the interior edges.

        Node t of the double cover is face t, node t + T face t reversed;
        faces that traverse their shared edge in the same direction join
        t to t' + T.  A face joined to its own reversal is non-orientable.
        """
        T = self.n_faces
        f0, f1 = pairs.T
        # the gradient row of such an edge sums to +-2
        cross = T * (np.abs(self.grad @ np.ones(T))[~self.boundary_edge] == 2)
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
        return (np.unique(component, return_inverse=True)[1],
                np.flatnonzero(same != same[lowest[component]]))

    def _build_geometry(self):
        v = self.vertices
        p0, p1, p2 = (v[self.faces[:, i]] for i in range(3))
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            cross = np.cross(p1 - p0, p2 - p0)
            cnorm = np.linalg.norm(cross, axis=1)
            sides = np.linalg.norm([p1 - p0, p2 - p0, p2 - p1], axis=2)
        overflow = np.flatnonzero(~np.isfinite(cnorm)
                                  | ~np.isfinite(sides).all(axis=0))
        if overflow.size:  # each edge is a side of a face
            raise DegenerateGeometryError(
                f"face {overflow[0]} has a non-finite area or edge length")
        bad = np.flatnonzero(cnorm <= 1e-14 * sides[0] * sides[1])
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
        """(T, T) sparse matrix of ones whose row tau holds the neighborhood of
        face tau in ascending column order; built and frozen on every call,
        and not kept with the mesh.

        ``"raw"`` is just ``{tau}``, ``"n1"`` adds the edge-adjacent faces
        and ``"n2"`` the vertex-adjacent ones.  The face itself is always
        included.
        """
        if ring not in RINGS:
            raise ParameterError(f"ring must be one of {RINGS}, got {ring!r}")
        T = self.n_faces
        if ring == "raw":
            pattern = sp.identity(T, format="csr")
        elif ring == "n1":
            # adjacent faces meet with opposite signs on each shared edge
            # (consistent winding), and I keeps a face with no interior edge
            pattern = self.grad.T @ self.grad + sp.identity(T)
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
        return _freeze(pattern)


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
    """The one decoder of text input: bytes as UTF-8, a bad byte as U+FFFD
    for the input's checks to reject; one leading byte-order mark dropped."""
    if not isinstance(source, (bytes, str)):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8", errors="replace")
    return source.removeprefix("\ufeff")


def _records(text):
    """Line numbers and text of the lines of an OFF, OBJ or config text left
    with a token once their ``#`` comment is cut, as two lists; nothing is
    split.  A line is blank by the whitespace test of ``str.strip``."""
    numbers, lines = [], []
    for n, line in enumerate(text.splitlines(), start=1):
        line = line.partition("#")[0]
        if line and not line.isspace():
            numbers.append(n)
            lines.append(line)
    return numbers, lines


def _table(lines, numbers, width, dtype, what):
    """The first ``width`` tokens of each line as one (n, width) array,
    converted in one call that splits each line as it reads it, so no
    line's tokens outlive that line; ``width=None`` converts each whole
    line as one value.  Only if that fails are the lines split again, in
    step with their ``numbers``, to name the first that is short or has a
    token that does not convert: one beyond int64, or a finite number
    beyond float64 (a spelled-out ``inf`` converts)."""
    whole = width is None
    width = width or 1
    try:
        table = np.fromiter(
            lines if whole else chain.from_iterable(
                line.split()[:width] for line in lines),
            dtype, count=len(lines) * width).reshape(-1, width)
        if not np.isinf(table).any():
            return table
    except (ValueError, OverflowError):
        pass
    for n, line in zip(numbers, lines):
        tokens = [line] if whole else line.split()
        try:
            row = np.array(tokens[:width], dtype=dtype)
        except (ValueError, OverflowError):
            row = ()
        if len(row) < width or any(np.isinf(x) and "inf" not in t.lower()
                                   for x, t in zip(row, tokens)):
            raise MeshFormatError(f"bad {what} line", line=n)
    return table


def load_off(source):
    """Parse an OFF byte stream into a :class:`TriMesh`.

    ``#`` starts a comment; blank lines are skipped.  A vertex line is read
    for three numbers and a face line for its count and three indices, so
    trailing colours are ignored.  Each line is split only as its block is
    converted.  The first short or unconvertible line of the vertex block,
    then of the face block, raises ``MeshFormatError``; then the first face
    whose count is not 3 raises ``TopologyError``.
    """
    numbers, lines = _records(_as_text(source))
    if not lines:
        raise MeshFormatError("empty OFF file")
    # "OFF", or "OFF" and the counts on one line: "OFF 8 6 0", "OFF8 6 0"
    header = lines[0].lstrip()
    head = header.split(None, 1)[0]
    if head[:3] != "OFF" or not (head[3:4] or "0").isdigit():
        raise MeshFormatError("missing OFF header", line=numbers[0])
    counts = header[3:]
    if not counts or counts.isspace():
        numbers, lines = numbers[1:], lines[1:]
    else:
        lines[0] = counts
    if not lines:
        raise MeshFormatError("missing counts line")
    nv, nf = _table(lines[:1], numbers, 2, np.int64, "counts")[0].tolist()
    if nv < 0 or nf < 0:
        raise MeshFormatError("bad counts line", line=numbers[0])

    numbers, lines = numbers[1:], lines[1:]
    if len(lines) < nv + nf:
        raise MeshFormatError(f"expected {nv} vertex and {nf} face lines")
    if len(lines) > nv + nf:
        raise MeshFormatError("more lines than the counts declare",
                              line=numbers[nv + nf])
    verts = _table(lines[:nv], numbers, 3, float, "vertex")
    faces = _table(lines[nv:], numbers[nv:], 4, np.int64, "face")
    other = np.flatnonzero(faces[:, 0] != 3)
    if other.size:
        raise TopologyError(f"line {numbers[nv + other[0]]}: only triangle "
                            "faces are supported")
    return TriMesh(verts, faces[:, 1:])


# the tail of each a/b/c reference; a reference with no head keeps its
# slash, so that it stays a token and does not convert
_REF_TAIL = re.compile(r"(?<=\S)/\S*")


def load_obj(source):
    """Parse a Wavefront OBJ byte stream (v/f records only, 1-based).

    Comments and vertices are read as by :func:`load_off`; an ``f`` record
    takes the head of each ``a/b/c`` reference.  Each record is split for
    its keyword, and again only as its block is converted.  The first bad
    vertex, then the first face of other than three references
    (``TopologyError``), then the first unconvertible face and the first
    index below 1 are reported, each naming its line.
    """
    vert_numbers, verts, face_numbers, faces = [], [], [], []
    for n, line in zip(*_records(_as_text(source))):
        key, *rest = line.split(None, 1)
        rest = rest[0] if rest else ""
        if key == "v":
            vert_numbers.append(n)
            verts.append(rest)
        elif key == "f":
            face_numbers.append(n)
            faces.append(_REF_TAIL.sub("", rest))
    verts = _table(verts, vert_numbers, 3, float, "vertex")
    other = [n for n, refs in zip(face_numbers, faces)
             if len(refs.split()) != 3]
    if other:
        raise TopologyError(f"line {other[0]}: only triangle faces are "
                            "supported")
    index = _table(faces, face_numbers, 3, np.int64, "face")
    low = np.flatnonzero((index < 1).any(axis=1))
    if low.size:
        raise MeshFormatError("only positive 1-based indices supported",
                              line=face_numbers[low[0]])
    if not len(verts):
        raise MeshFormatError("no vertices in OBJ input")
    return TriMesh(verts, index - 1)


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
    fmt = Path(path).suffix[1:]
    if not fmt:
        raise MeshFormatError(f"no file extension in {Path(path).name!r}")
    return load_mesh(Path(path).read_bytes(), fmt)
