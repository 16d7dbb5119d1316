"""Mesh loading, incidence structure, geometry and smoothed normals."""

import io
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from msseg.errors import (
    DegenerateGeometryError,
    MeshFormatError,
    MeshSegError,
    TopologyError,
)
from msseg.mesh import (
    TriMesh,
    load_mesh,
    load_mesh_file,
    load_obj,
    load_off,
    smoothed_normals,
)

from _meshes import (
    RIGHT_TRIANGLE_OFF,
    SQUARE_DIAGONAL_OFF,
    TETRA_OFF,
    equilateral,
    flat_patch,
    folded_pair,
    mobius_strip,
    random_closed,
    random_patch,
    write_off,
)
from _reference import dense_operators, orient_loop


# -- loading -----------------------------------------------------------------


def test_right_triangle_counts_and_area():
    mesh = load_off(RIGHT_TRIANGLE_OFF)
    assert mesh.n_faces == 1
    assert mesh.n_edges == 3
    assert mesh.boundary_edge.all()
    assert mesh.face_areas[0] == pytest.approx(0.5, abs=1e-15)


def test_tetrahedron_counts():
    mesh = load_off(TETRA_OFF)
    assert mesh.n_faces == 4
    assert mesh.n_edges == 6
    assert not mesh.boundary_edge.any()
    # Euler characteristic of a sphere
    assert mesh.n_vertices - mesh.n_edges + mesh.n_faces == 2


def test_square_diagonal_pair_incidence():
    mesh = load_off(SQUARE_DIAGONAL_OFF)
    assert mesh.n_faces == 2
    assert mesh.n_edges == 5
    interior = np.nonzero(~mesh.boundary_edge)[0]
    assert interior.size == 1
    e = interior[0]
    # the interior row of the gradient holds the edge's sign in each face
    row = mesh.grad[e]
    assert sorted(row.indices.tolist()) == [0, 1]
    s0, s1 = row.data
    assert s0 == -s1


def test_off_bytes_and_stream_inputs():
    a = load_off(RIGHT_TRIANGLE_OFF.encode())
    b = load_off(io.StringIO(RIGHT_TRIANGLE_OFF))
    assert np.array_equal(a.faces, b.faces)
    assert np.array_equal(a.vertices, b.vertices)


def test_obj_with_a_byte_order_mark_keeps_its_first_vertex():
    # were the mark left on the first "v" keyword, that record would be
    # skipped and every index would name the next vertex: a quietly
    # different triangle
    mesh = load_obj(b"\xef\xbb\xbfv 0 0 0\nv 1 0 0\nv 0 1 0\nv 5 5 5\n"
                    b"f 1 2 3\n")
    assert mesh.vertices.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0],
                                      [5, 5, 5]]
    assert mesh.faces.tolist() == [[0, 1, 2]]


def test_off_counts_on_header_line():
    text = "OFF 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
    mesh = load_off(text)
    assert mesh.n_faces == 1


def test_off_comments_and_blank_lines():
    text = "OFF\n# a comment\n\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
    assert load_off(text).n_faces == 1


def test_off_bad_vertex_line_reports_line_number():
    text = "OFF\n3 1 0\n0 0 0\nnot a vertex\n0 1 0\n3 0 1 2\n"
    with pytest.raises(MeshFormatError, match="line 4"):
        load_off(text)


def test_off_missing_header():
    with pytest.raises(MeshFormatError):
        load_off("3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")


def test_off_truncated_body():
    with pytest.raises(MeshFormatError):
        load_off("OFF\n3 1 0\n0 0 0\n1 0 0\n")


def test_off_non_triangle_face_rejected():
    text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    with pytest.raises(TopologyError):
        load_off(text)


def test_zero_area_face_names_face():
    text = "OFF\n3 1 0\n0 0 0\n1 0 0\n2 0 0\n3 0 1 2\n"
    with pytest.raises(DegenerateGeometryError, match="^face 0 has zero area$"):
        load_off(text)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_vertex_names_vertex(bad):
    verts = [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"]]
    verts[1][2] = verts[3][0] = bad
    with pytest.raises(DegenerateGeometryError,
                       match="vertex 1 has a non-finite coordinate"):
        TriMesh(np.array(verts, dtype=float), [(0, 1, 2), (1, 3, 2)])
    text = "OFF\n4 2 0\n" + "".join(" ".join(v) + "\n" for v in verts) \
        + "3 0 1 2\n3 1 3 2\n"
    with pytest.raises(DegenerateGeometryError,
                       match="vertex 1 has a non-finite coordinate"):
        load_off(text)


def test_non_manifold_edge_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)]
    faces = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    with pytest.raises(TopologyError, match="non-manifold"):
        TriMesh(verts, faces)


def test_repeated_vertex_in_face_rejected():
    with pytest.raises(TopologyError, match="repeated"):
        TriMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 0, 1)])


def test_face_index_out_of_range():
    with pytest.raises(TopologyError):
        TriMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 5)])


def test_inconsistent_winding_warns():
    verts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    faces = [(0, 1, 2), (0, 3, 2)]  # second face wound the wrong way
    with pytest.warns(RuntimeWarning,
                      match="reversed the winding of 1 face\\(s\\)"):
        mesh = TriMesh(verts, faces)
    twin = load_off(SQUARE_DIAGONAL_OFF)
    assert np.array_equal(mesh.faces, twin.faces)
    assert np.array_equal(mesh.edges, twin.edges)
    assert (mesh.grad != twin.grad).nnz == 0
    # a constant has no jump across the repaired interior edge
    assert not (mesh.grad @ np.ones(2)).any()


def test_each_component_keeps_its_own_winding():
    # the second patch is wound the other way round as a whole; it is
    # oriented consistently on its own, so nothing is reversed
    verts = [(0, 0, 0), (0, 1, 0), (-1, 0, 0), (1, 0, 0)]
    verts += [(10 + x, y, z) for x, y, z in verts]
    faces = [(0, 1, 2), (0, 3, 1), (4, 6, 5), (4, 5, 7)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mesh = TriMesh(verts, faces)
    assert np.array_equal(mesh.faces, faces)


def test_mobius_strip_raises():
    verts, faces = mobius_strip()
    assert orient_loop(faces) is None
    with pytest.raises(TopologyError,
                       match="face 0 lies on a non-orientable component"):
        TriMesh(verts, faces)


def test_obj_parsing_with_slashes_and_ignored_records():
    text = (
        "# comment\nv 0 0 0\nv 1 0 0\nv 0 1 0\n"
        "vn 0 0 1\nvt 0 0\nusemtl m\n"
        "f 1/1/1 2/2/1 3/3/1\n"
    )
    mesh = load_obj(text)
    assert mesh.n_faces == 1
    assert np.array_equal(mesh.faces, [[0, 1, 2]])


def test_obj_bad_face_index():
    with pytest.raises(MeshFormatError, match="line 4"):
        load_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n")


def test_obj_non_positive_index_rejected():
    with pytest.raises(MeshFormatError):
        load_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -1 2 3\n")


def test_obj_quad_rejected():
    text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
    with pytest.raises(TopologyError):
        load_obj(text)


# The loaders' error contract: one fault per input, each pinned to the
# error type and the 1-based line it names (None: no line in the message),
# and where given to a pattern its message matches.
_TRI = "0 0 0\n1 0 0\n0 1 0\n"
_OBJ_TRI = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"


@pytest.mark.parametrize("load, text, error, line, match", [
    (load_off, "", MeshFormatError, None, None),
    (load_off, "# only\n\n# comments\n", MeshFormatError, None, None),
    (load_off, "3 1 0\n" + _TRI + "3 0 1 2\n", MeshFormatError, 1,
     "missing OFF header"),
    (load_off, "OFFX\n3 1 0\n" + _TRI + "3 0 1 2\n", MeshFormatError, 1,
     "missing OFF header"),
    (load_off, "OFF\n# no counts\n", MeshFormatError, None, None),
    (load_off, "OFF\n3\n" + _TRI + "3 0 1 2\n", MeshFormatError, 2, None),
    (load_off, "OFF\n3 x 0\n" + _TRI + "3 0 1 2\n", MeshFormatError, 2, None),
    (load_off, "OFF\n-1 1 0\n" + _TRI + "3 0 1 2\n", MeshFormatError, 2, None),
    (load_off, "OFF\n3 -1 0\n" + _TRI + "3 0 1 2\n", MeshFormatError, 2, None),
    (load_off, "OFF\n3 1 0\n" + _TRI, MeshFormatError, None, None),
    (load_off, "OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n",
     MeshFormatError, 4, None),
    (load_off, "OFF\n3 1 0\n0 0 0\n1 a 0\n0 1 0\n3 0 1 2\n",
     MeshFormatError, 4, None),
    (load_off, "OFF\n3 1 0\n" + _TRI + "3 0 x 2\n", MeshFormatError, 6, None),
    (load_off, "OFF\n3 1 0\n" + _TRI + "3 0 1 2.0\n", MeshFormatError, 6, None),
    (load_off, "OFF\n4 1 0\n" + _TRI + "1 1 0\n4 0 1 3 2\n",
     TopologyError, 7, None),
    (load_off, "OFF\n4 1 0\n" + _TRI + "1 1 0\n3 0 1 2\n3 0 2 3\n",
     MeshFormatError, 8, None),
    (load_off, "OFF\n3 1 0\n" + _TRI + "3 0 1 2\n# end\nhello world\n",
     MeshFormatError, 8, None),
    (load_obj, _OBJ_TRI + "f 1 x 3\n", MeshFormatError, 4, None),
    (load_obj, _OBJ_TRI + "f 0 1 2\n", MeshFormatError, 4, None),
    (load_obj, _OBJ_TRI + "f -1 1 2\n", MeshFormatError, 4, None),
    (load_obj, _OBJ_TRI + "v 1 1 0\nf 1 2 4 3\n", TopologyError, 5, None),
    (load_obj, "# none\nvn 0 0 1\n", MeshFormatError, None, None),
    (load_obj, "v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n",
     MeshFormatError, 2, None),
], ids=[
    "off-empty", "off-comments-only", "off-no-header", "off-OFFX",
    "off-no-counts", "off-short-counts", "off-counts-x", "off-counts-neg-v",
    "off-counts-neg-f", "off-truncated", "off-short-vertex",
    "off-vertex-not-a-number", "off-face-x", "off-face-float", "off-quad",
    "off-extra-face", "off-trailing-text",
    "obj-face-x", "obj-face-0", "obj-face-neg", "obj-quad", "obj-no-vertices",
    "obj-short-vertex",
])
def test_loader_error_contract(load, text, error, line, match):
    with pytest.raises(MeshSegError, match=match) as info:
        load(text)
    assert type(info.value) is error
    if error is MeshFormatError:
        assert info.value.line == line
    if line is None:
        assert not str(info.value).startswith("line ")
    else:
        assert str(info.value).startswith(f"line {line}: ")


@pytest.mark.parametrize("load, text", [
    (load_off, "OFF 3 1 0\n" + _TRI + "3 0 1 2\n"),
    (load_off, "OFF3 1 0\n" + _TRI + "3 0 1 2\n"),
    (load_off, "OFF # h\n3 1 0 # c\n0 0 0 # v\n1 0 0\n0 1 0\n3 0 1 2 # f\n"),
    (load_off, "OFF\n3 1 0\n0 0 0 255 0 0\n1 0 0 0 255 0\n0 1 0 0 0 255\n"
               "3 0 1 2\n"),
    (load_off, "OFF\n3 1 0\n" + _TRI + "3 0 1 2 10 20 30\n"),
    # a UTF-8 byte-order mark, in bytes or decoded, is dropped
    (load_off, b"\xef\xbb\xbfOFF\n3 1 0\n" + _TRI.encode() + b"3 0 1 2\n"),
    (load_off, "\ufeffOFF\n3 1 0\n" + _TRI + "3 0 1 2\n"),
    (load_obj, "v 0 0 0 1\nv 1 0 0 1\nv 0 1 0 1\nf 1 2 3\n"),
    (load_obj, _OBJ_TRI + "vt 0 0\nvn 0 0 1\nf 1/1/1 2/1/1 3/1/1\n"),
], ids=["off-counts-on-header", "off-OFF3", "off-inline-comments",
        "off-vertex-colours", "off-face-colours", "off-bom-bytes",
        "off-bom-str", "obj-v-with-w",
        "obj-f-slashes"])
def test_loader_accepted_forms(load, text):
    mesh = load(text)
    assert np.array_equal(mesh.vertices, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert np.array_equal(mesh.faces, [[0, 1, 2]])


_BIG = "99999999999999999999"  # beyond int64


# A token that does not fit its array (an integer beyond int64, a finite
# number beyond float64) is a format error on its line, not an
# OverflowError or an infinite coordinate.
@pytest.mark.parametrize("load, text, line, what", [
    (load_off, "OFF\n3 1 0\n0 0 0\n1 0 1e400\n0 1 0\n3 0 1 2\n", 4,
     "vertex"),
    (load_off, "OFF\n3 1 0\n" + _TRI + f"3 0 1 {_BIG}\n", 6, "face"),
    (load_off, "OFF\n3 1 0\n" + _TRI + f"{_BIG} 0 1 2\n", 6, "face"),
    (load_off, f"OFF\n{_BIG} 1 0\n" + _TRI + "3 0 1 2\n", 2, "counts"),
    (load_obj, _OBJ_TRI + f"f 1 2 {_BIG}\n", 4, "face"),
    (load_obj, "v 0 0 0\nv 1 -1e400 0\nv 0 1 0\nf 1 2 3\n", 2, "vertex"),
], ids=["off-vertex", "off-face-index", "off-face-count", "off-counts",
        "obj-face", "obj-vertex"])
def test_overflowing_token_names_its_line(load, text, line, what):
    with pytest.raises(MeshFormatError,
                       match=f"^line {line}: bad {what} line$") as info:
        load(text)
    assert info.value.line == line


# Under the default warning filters of a command-line run, not this suite's
# "error": numpy's int64 conversion of a text line reads "2.0" as 2 with
# only a DeprecationWarning, and the loader must still reject such a face.
@pytest.mark.filterwarnings("default")
@pytest.mark.parametrize("index", ["2.0", "2.7", "9223372036854775808"])
def test_face_index_not_an_int64_is_rejected_under_default_warnings(index):
    with pytest.raises(MeshFormatError, match="^line 6: bad face line$"):
        load_off("OFF\n3 1 0\n" + _TRI + f"3 0 1 {index}\n")


# Each block is converted whole and then checked, so in a file with several
# faults the first failing line of the first failing check is named.
@pytest.mark.parametrize("load, text, error, line", [
    # a face line short of four tokens does not convert
    (load_off, "OFF\n3 1 0\n" + _TRI + "3 0 1\n", MeshFormatError, 6),
    # only the count and three indices are converted, then the count checked
    (load_off, "OFF\n3 1 0\n" + _TRI + "4 0 1 2 x\n", TopologyError, 6),
    # every face line is converted before any count is checked
    (load_off, "OFF\n4 2 0\n" + _TRI + "1 1 0\n4 0 1 2 3\n3 0 x 2\n",
     MeshFormatError, 8),
    # OBJ: vertices, then references per face, face tokens, index range
    (load_obj, _OBJ_TRI + "v 1 1 0\nf 1 x 3\nf 1 2 3 4\n", TopologyError, 6),
    (load_obj, _OBJ_TRI + "f 0 2 3\nf 1 x 3\n", MeshFormatError, 5),
    (load_obj, _OBJ_TRI + "f 1 2 3 4\nv 1 x 0\n", MeshFormatError, 5),
], ids=["off-short-face", "off-quad-then-x", "off-quad-before-x",
        "obj-x-before-quad", "obj-0-before-x", "obj-quad-before-bad-v"])
def test_loader_reports_each_check_in_turn(load, text, error, line):
    with pytest.raises(MeshSegError, match=f"^line {line}: ") as info:
        load(text)
    assert type(info.value) is error


def test_load_mesh_format_dispatch():
    assert load_mesh(RIGHT_TRIANGLE_OFF, "off").n_faces == 1
    with pytest.raises(MeshFormatError):
        load_mesh(RIGHT_TRIANGLE_OFF, "ply")


def test_load_mesh_file_infers_format(tmp_path):
    path = tmp_path / "tri.off"
    path.write_text(RIGHT_TRIANGLE_OFF)
    assert load_mesh_file(path).n_faces == 1
    upper = tmp_path / "MODEL.OFF"
    upper.write_text(RIGHT_TRIANGLE_OFF)
    assert load_mesh_file(str(upper)).n_faces == 1


@pytest.mark.parametrize("parent", ["scans", "scans.v2"])
def test_load_mesh_file_without_extension(tmp_path, parent):
    # the format comes from the file name alone, not from a dot further up
    # the path
    path = tmp_path / parent / "bunny"
    path.parent.mkdir()
    path.write_text(RIGHT_TRIANGLE_OFF)
    for name in (path, str(path)):
        with pytest.raises(MeshFormatError,
                           match=r"^no file extension in 'bunny'$"):
            load_mesh_file(name)


def test_loading_is_deterministic():
    a = load_off(TETRA_OFF)
    b = load_off(TETRA_OFF)
    assert np.array_equal(a.edges, b.edges)
    assert (a.grad != b.grad).nnz == 0


# -- incidence invariants ----------------------------------------------------


def test_edge_direction_convention():
    mesh = random_closed(30, seed=1)
    assert (mesh.edges[:, 0] < mesh.edges[:, 1]).all()


def test_edge_lengths_and_areas():
    mesh = load_off(SQUARE_DIAGONAL_OFF)
    d = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    assert np.allclose(mesh.edge_lengths, np.linalg.norm(d, axis=1))
    assert np.allclose(mesh.face_areas, [0.5, 0.5])


def test_incidence_signs_reproduce_face_loops():
    # un-flipping each edge of a face's gradient column by its sign
    # recovers the counterclockwise boundary traversal of the face; on a
    # closed mesh every edge is interior, so each column holds all three
    for mesh in (load_off(TETRA_OFF), random_closed(25, seed=3)):
        columns = mesh.grad.tocsc()
        for t, (a, b, c) in enumerate(mesh.faces.tolist()):
            col = slice(columns.indptr[t], columns.indptr[t + 1])
            directed = set()
            for e, sign in zip(columns.indices[col], columns.data[col]):
                lo, hi = mesh.edges[e].tolist()
                directed.add((lo, hi) if sign == 1 else (hi, lo))
            assert directed == {(a, b), (b, c), (c, a)}


def test_closed_mesh_signed_edge_vectors_cancel():
    for seed in (0, 1, 2):
        mesh = random_closed(40, seed=seed)
        v = mesh.vertices
        vec = v[mesh.edges[:, 1]] - v[mesh.edges[:, 0]]
        unit = vec / np.linalg.norm(vec, axis=1)[:, None]
        # every edge of a closed mesh is interior, so the gradient's
        # column of a face signs all three of its edges
        per_face = mesh.grad.T @ (unit * mesh.edge_lengths[:, None])
        assert np.linalg.norm(per_face, axis=1).max() < 1e-10
        assert np.linalg.norm(per_face.sum(axis=0)) < 1e-10


def test_caller_arrays_stay_writable_and_apart():
    v = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0)], dtype=float)
    f = np.array([(0, 1, 2)], dtype=np.int64)
    mesh = TriMesh(v, f)
    assert v.flags.writeable and f.flags.writeable
    v[1, 0] = 5.0
    f[0] = (0, 2, 1)
    assert np.array_equal(mesh.vertices[1], (1, 0, 0))
    assert np.array_equal(mesh.faces, [(0, 1, 2)])
    assert mesh.face_areas[0] == 0.5


def test_arrays_are_immutable():
    mesh = load_off(TETRA_OFF)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 9.0
    with pytest.raises(ValueError):
        mesh.face_areas[0] = 9.0
    for arr in (mesh.grad.data, mesh.grad.indices, mesh.grad.indptr):
        with pytest.raises(ValueError):
            arr[0] = 9


def test_mesh_holds_only_frozen_arrays_and_matrices():
    mesh = random_patch(90, 8)
    before = set(vars(mesh))
    smoothed_normals(mesh)  # builds its neighborhoods and keeps nothing
    assert set(vars(mesh)) == before
    assert {"vertices", "faces", "S", "components"} <= set(vars(mesh))
    for name, value in vars(mesh).items():
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, name
        else:
            assert sp.issparse(value), name
            for arr in (value.data, value.indices, value.indptr):
                assert not arr.flags.writeable, name


def test_docstring_attributes_are_the_mesh_attributes():
    # a removed attribute cannot linger in the docs, nor a new one be
    # left out of them
    doc = TriMesh.__doc__.split("Attributes\n    ----------\n", 1)[1]
    named = re.findall(r"^    (\w+) : ", doc, flags=re.M)
    assert sorted(named) == sorted(vars(random_patch(90, 8)))


@pytest.mark.parametrize("make_mesh", [lambda: random_closed(60, 7),
                                       lambda: random_patch(90, 8)],
                         ids=["closed", "open"])
def test_grad_tl_is_the_frozen_weighted_transpose(make_mesh):
    mesh = make_mesh()
    gtl = mesh.grad_tl
    assert gtl.format == "csr" and gtl.shape == (mesh.n_faces, mesh.n_edges)
    for lo, hi in zip(gtl.indptr[:-1], gtl.indptr[1:]):
        assert (np.diff(gtl.indices[lo:hi]) > 0).all()
    # grad holds +-1, so each entry is +-l_e exactly
    assert set(np.abs(mesh.grad.data)) == {1.0}
    _, lengths, _, Gb, _ = dense_operators(mesh)
    assert np.array_equal(gtl.toarray(), Gb.T * lengths)
    for arr in (gtl.data, gtl.indices, gtl.indptr):
        assert not arr.flags.writeable


# -- smoothed normals --------------------------------------------------------


def test_flat_patch_normal_is_plane_normal():
    assert np.allclose(smoothed_normals(flat_patch(3)), [0, 0, 1], atol=1e-12)


def test_single_triangle_normal_is_its_own():
    mesh = equilateral()
    assert np.allclose(smoothed_normals(mesh), mesh.face_normals)


def test_folded_pair_normal_is_bisector():
    mesh = folded_pair()
    n0, n1 = mesh.face_normals
    assert np.isclose(np.dot(n0, n1), 0.0, atol=1e-12)  # 90 degree fold
    expected = (mesh.face_areas[0] * n0 + mesh.face_areas[1] * n1)
    expected /= np.linalg.norm(expected)
    assert np.allclose(smoothed_normals(mesh), [expected, expected])


def test_degenerate_average_normal_raises():
    # two coincident triangles with opposite winding: normals cancel
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    faces = [(0, 1, 2), (1, 0, 2)]
    mesh = TriMesh(verts, faces)
    with pytest.raises(DegenerateGeometryError, match="face 0"):
        smoothed_normals(mesh)


def test_write_off_round_trip(tmp_path):
    mesh = random_closed(20, seed=11)
    path = tmp_path / "m.off"
    write_off(mesh, path)
    again = load_mesh_file(path)
    assert np.allclose(again.vertices, mesh.vertices)
    assert np.array_equal(again.faces, mesh.faces)


def test_components_are_found_only_in_mesh():
    # feature_field reads mesh.components; no second component pass
    src = Path(__file__).parents[1] / "src" / "msseg"
    sites = [path.name for path in sorted(src.glob("*.py"))
             if "connected_components" in path.read_text()]
    assert sites == ["mesh.py"]


def test_components_numbered_by_lowest_face_and_frozen():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    verts += [(10 + x, y, z) for x, y, z in verts]
    # the second patch's faces come first and last
    faces = [(4, 5, 6), (0, 1, 2), (2, 1, 3), (6, 5, 7)]
    mesh = TriMesh(verts, faces)
    assert mesh.components.tolist() == [0, 1, 1, 0]
    with pytest.raises(ValueError):
        mesh.components[0] = 1
