"""The OFF, OBJ and .seg readers against the record walk in ``_reference``
that keeps a token list for every line, and the readers' transient memory.

A stub stands in for ``TriMesh``, so a loader returns the vertex and face
arrays it read and only the reader is compared or measured.
"""

import re
import tracemalloc

import numpy as np
import pytest

from msseg import mesh as mesh_module
from msseg.errors import MeshSegError
from msseg.evaluation import parse_seg
from msseg.mesh import load_obj, load_off

from _meshes import (
    RIGHT_TRIANGLE_OFF,
    SQUARE_DIAGONAL_OFF,
    TETRA_OFF,
    bumpy_revolution,
    diagonal_pair,
    disjoint_triangles,
    dumbbell,
    dumbbell_ground_truth,
    equilateral,
    fan5,
    flat_patch,
    folded_pair,
    mobius_strip,
    path_strip,
    random_closed,
    random_patch,
    scattered_components,
    square_axis_pair,
    strip10,
    triangle_strip,
    two_components,
    unit_area_pair,
    with_loose_triangles,
    write_off,
)
from _reference import (
    obj_arrays_split,
    off_arrays_split,
    seg_labels_split,
    seg_text_loop,
)


@pytest.fixture
def arrays_only(monkeypatch):
    monkeypatch.setattr(mesh_module, "TriMesh",
                        lambda vertices, faces: (vertices, faces))


def _bits(arrays):
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


def _outcome(read, text):
    """The dtype, shape and bytes of each array ``read`` returns, or the
    type, line and message of the ``MeshSegError`` it raises."""
    try:
        out = read(text)
    except MeshSegError as err:
        return type(err), getattr(err, "line", None), str(err)
    return _bits(out if isinstance(out, tuple) else (out,))


# -- transient memory --------------------------------------------------------


def _dumbbell_texts():
    mesh = dumbbell()
    obj = "".join([f"v {x:.17g} {y:.17g} {z:.17g}\n"
                   for x, y, z in mesh.vertices]
                  + [f"f {a} {b} {c}\n" for a, b, c in mesh.faces + 1])
    return (write_off(mesh, None), seg_text_loop(dumbbell_ground_truth(mesh)),
            obj)


# The record walk kept a token list per line: 15x the OFF text and 63x the
# .seg text at its peak on this mesh.
@pytest.mark.parametrize("read, which, bound", [
    (load_off, 0, 8), (parse_seg, 1, 16), (load_obj, 2, 8)],
    ids=["load_off", "parse_seg", "load_obj"])
def test_reader_transient_memory_is_bounded(arrays_only, read, which, bound):
    text = _dumbbell_texts()[which]
    read(text)
    tracemalloc.start()
    try:
        read(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * len(text)


# -- the record walk as oracle ------------------------------------------------


def _arrays(made):
    return made if isinstance(made, tuple) else (made.vertices, made.faces)


_MESHES = {
    "square_axis_pair": square_axis_pair, "unit_area_pair": unit_area_pair,
    "fan5": fan5, "strip10": strip10, "diagonal_pair": diagonal_pair,
    "equilateral": equilateral, "folded_pair": folded_pair,
    "path_strip": path_strip, "triangle_strip": lambda: triangle_strip(9),
    "two_components": two_components,
    "disjoint_triangles": disjoint_triangles, "flat_patch": flat_patch,
    "mobius_strip": mobius_strip,
    "random_closed": lambda: random_closed(60, 3),
    "random_patch": lambda: random_patch(40, 4),
    "scattered_components": lambda: scattered_components(
        [flat_patch(2), random_closed(20, 1)], 5),
    "with_loose_triangles": lambda: with_loose_triangles(fan5(), 2),
    "dumbbell": dumbbell, "bumpy_revolution": bumpy_revolution,
}


def _decorated_off(verts, faces):
    """OFF text with CRLF endings, the counts on the header line, comments,
    blank lines and trailing vertex and face colours."""
    lines = [f"OFF {len(verts)} {len(faces)} 0 # counts", "", "# vertices"]
    for i, (x, y, z) in enumerate(verts):
        lines.append(f"{x:.17g}\t{y:.17g} {z:.17g} 0.5 0.25 1 # {i}")
        if i % 7 == 3:
            lines.append("  ")
    for a, b, c in faces:
        lines.append(f" 3 {a} {b} {c}  255 0 0")
    return "\r\n".join(lines) + "\r\n"


def _decorated_obj(verts, faces):
    """OBJ text with CRLF endings, comments, blank lines, ignored records
    and ``a/b/c`` references."""
    lines = ["# obj", "vt 0 0", "vn 0 0 1", ""]
    lines += [f"v {x:.17g} {y:.17g} {z:.17g} 1" for x, y, z in verts]
    lines += [f"f {a + 1}/1/1 {b + 1}//1 {c + 1} # face"
              for a, b, c in faces]
    return "\r\n".join(lines) + "\r\n"


@pytest.mark.parametrize("name", list(_MESHES))
def test_readers_match_the_record_walk_on_every_mesh(arrays_only, name):
    verts, faces = _arrays(_MESHES[name]())
    for read, ref, text in (
            (load_off, off_arrays_split, _decorated_off(verts, faces)),
            (load_obj, obj_arrays_split, _decorated_obj(verts, faces))):
        got = _outcome(read, text)
        assert got == _outcome(ref, text)
        assert got == _bits((np.asarray(verts, dtype=float),
                             np.asarray(faces, dtype=np.int64)))
    labels = np.arange(len(faces)) % 5 - 2
    text = seg_text_loop(labels).replace("\n", " \r\n\n", 3)
    assert _outcome(parse_seg, text) == _outcome(seg_labels_split, text)
    assert np.array_equal(parse_seg(text), labels)


@pytest.mark.parametrize("text", [RIGHT_TRIANGLE_OFF, SQUARE_DIAGONAL_OFF,
                                  TETRA_OFF],
                         ids=["right_triangle", "square_diagonal", "tetra"])
def test_off_constants_match_the_record_walk(arrays_only, text):
    assert _outcome(load_off, text) == _outcome(off_arrays_split, text)


_SMALL = {
    "off": (load_off, off_arrays_split,
            "OFF 4 2 0 # counts\r\n\r\n0 0 0 1 0 0\r\n1 0 0\r\n# c\r\n"
            "1 1 0\r\n0 1 0 255\r\n3 0 1 2 9 9 9\r\n3 0 2 3\r\n"),
    "obj": (load_obj, obj_arrays_split,
            "# obj\nv 0 0 0\nvt 0 0\nv 1 0 0 1\n\nv 1 1 0\nv 0 1 0\n"
            "f 1/1 2/1/1 3//1\nf 1 3 4 # c\n"),
    "seg": (parse_seg, seg_labels_split, "0\n 1 \n\n2\r\n1\n-3\n"),
}
# None inserts a blank line
_INSERTS = ["x", "2.0", "1e400", str(2**63), "#", "\x1c", None]


@pytest.mark.parametrize("fmt", list(_SMALL))
def test_single_token_edits_match_the_record_walk(arrays_only, fmt):
    read, ref, base = _SMALL[fmt]
    spans = [m.span() for m in re.finditer(r"\S+", base)]
    rng = np.random.default_rng(["off", "obj", "seg"].index(fmt))
    accepted = 0
    for _ in range(100):
        start, end = spans[rng.integers(len(spans))]
        op = rng.integers(len(_INSERTS) + 1)
        if op == len(_INSERTS):
            text = base[:start] + base[end:]
        elif _INSERTS[op] is None:
            line_start = base.rfind("\n", 0, start) + 1
            text = base[:line_start] + " \n" + base[line_start:]
        else:
            text = base[:start] + _INSERTS[op] + " " + base[start:]
        got = _outcome(read, text)
        assert got == _outcome(ref, text), repr(text)
        accepted += not isinstance(got[0], type)
    assert 0 < accepted < 100
