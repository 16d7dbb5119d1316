"""Command-line runner: load a mesh, build features, segment, export.

Outputs, for input ``foo.off`` written to the output directory:
``foo.seg`` (one label per face), ``foo_colored.ply`` (flat per-face
colors) and ``foo_report.json`` (resolved parameters plus traces).  A
previously written report can be passed back via ``--config`` to replay
a run exactly.
"""

import argparse
import colorsys
import json
import os
import sys
import time
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .errors import DimensionError, MeshSegError, ParameterError
from .evaluation import mean_dissimilarity, parse_seg
from .features import feature_field
from .mesh import _as_text, _records, load_mesh_file
from .solver import MODES, SolverParams, segment

# 19 visually distinct base colors; further labels step the hue by the
# golden ratio conjugate.
_PALETTE = [
    (228, 26, 28), (55, 126, 184), (77, 175, 74), (152, 78, 163),
    (255, 127, 0), (255, 255, 51), (166, 86, 40), (247, 129, 191),
    (153, 153, 153), (102, 194, 165), (252, 141, 98), (141, 160, 203),
    (231, 138, 195), (166, 216, 84), (255, 217, 47), (229, 196, 148),
    (179, 179, 179), (27, 158, 119), (217, 95, 2),
]


def label_color(label):
    """Deterministic RGB color for a label index."""
    if label < len(_PALETTE):
        return _PALETTE[label]
    h = (0.618033988749895 * (label - len(_PALETTE) + 1)) % 1.0
    r, g, b = colorsys.hsv_to_rgb(h, 0.75, 0.95)
    return int(255 * r), int(255 * g), int(255 * b)


def export_colored_mesh(mesh, labels, path):
    """Write an ASCII PLY with one flat color per face.

    Each block is one ``%`` format of all its rows: ``%.9g`` per vertex
    coordinate, ``%d`` per face index and color channel, the text a
    per-row f-string writer gives.  The first face with a negative label
    raises ``ParameterError`` before anything is written.
    """
    labels = np.asarray(labels)
    if len(labels) != mesh.n_faces:
        raise ParameterError(
            f"{len(labels)} labels for {mesh.n_faces} faces"
        )
    negative = np.flatnonzero(labels < 0)
    if negative.size:
        raise ParameterError(f"face {negative[0]} has negative label "
                             f"{labels[negative[0]]}")
    header = [
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
    uniq, inverse = np.unique(labels, return_inverse=True)
    colors = np.array([label_color(int(lab)) for lab in uniq.tolist()],
                      dtype=np.int64).reshape(-1, 3)
    faces = np.hstack([mesh.faces, colors[inverse]])
    vertex_rows = "%.9g %.9g %.9g\n" * mesh.n_vertices
    face_rows = "3 %d %d %d %d %d %d\n" * mesh.n_faces
    text = ("\n".join(header) + "\n"
            + vertex_rows % tuple(mesh.vertices.ravel().tolist())
            + face_rows % tuple(faces.ravel().tolist()))
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise MeshSegError(f"cannot write {path}: {exc}") from exc


# the only config keys and flags not spelled like their field or key
_KEYS = {"outer_tol": "tol"}
_FLAGS = {"r_p": "--rp", "r_q": "--rq", "r_z": "--rz"}
_CHOICES = {"mode": MODES}

# config key -> (SolverParams field, default, type, help): the one schema of
# the flags, the config file and the report's params block.  The run
# settings, which fill no field, come first; ``gt`` is a list of paths.
_SCHEMA = {
    "mesh": (None, MISSING, str, "input mesh (.off or .obj)"),
    "out": (None, ".", str, "output directory (default: .)"),
    "gt": (None, (), list, "ground-truth .seg file (repeatable)"),
} | {
    _KEYS.get(f.name, f.name):
        (f.name, f.default, f.type, f.metadata.get("help"))
    for f in fields(SolverParams)
}


def _cast(key, val):
    """The one conversion of a flag, config, report or library value; a
    text setting takes text or a path object, gt a list or a config line."""
    if val is MISSING:
        raise ParameterError(f"no {key} given")
    kind = _SCHEMA[key][2]
    try:
        # JSON true, false and null: no field takes a bool, only alpha None
        if isinstance(val, bool) or (val is None and kind != float | None):
            raise ValueError
        if kind == float | None:  # None or 'auto': estimated by the solver
            return None if val is None or str(val).lower() == "auto" \
                else float(val)
        if kind is list and isinstance(val, str):  # a config line
            val = [p.strip() for p in val.split(",") if p.strip()]
        paths = val if kind is list else [val] if kind is str else []
        if not isinstance(paths, list | tuple) or not all(
                isinstance(p, str | os.PathLike) for p in paths):
            raise TypeError  # text or path objects only
        if kind is list:
            return [os.fspath(p) for p in paths]
        if kind is int and isinstance(val, float) and not val.is_integer():
            raise ValueError
        val = os.fspath(val) if kind is str else kind(val)
    except (TypeError, ValueError):
        raise ParameterError(f"bad value {val!r} for {key}") from None
    if key in _CHOICES and val not in _CHOICES[key]:
        raise ParameterError(
            f"{key} must be one of {_CHOICES[key]}, got {val!r}")
    return val


def read_config(path):
    """Read a key=value config file, each key once, or the params block of
    a JSON report, decoded as a mesh file is; ``_complete`` checks the keys."""
    text = _as_text(Path(path).read_bytes())
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ParameterError(f"{path}: {exc}") from None
        config = doc.get("params", doc)
        if not isinstance(config, dict):
            raise ParameterError(f"{path}: params is not an object")
    else:
        config, lines = {}, {}
        for n, line in zip(*_records(text)):
            if "=" not in line:
                raise ParameterError(f"{path}:{n}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in lines:
                raise ParameterError(f"{path}:{n}: {key} already given "
                                     f"on line {lines[key]}")
            config[key], lines[key] = val, n
    return config


def build_parser():
    ap = argparse.ArgumentParser(
        prog="msseg",
        description="Piecewise-smooth Mumford-Shah mesh segmentation",
        argument_default=argparse.SUPPRESS,  # only given flags override
    )
    ap.add_argument("--config", help="key=value file or a prior run report")
    for key, (_, _, kind, help_text) in _SCHEMA.items():
        flag = _FLAGS.get(key, "--" + key.replace("_", "-"))
        how = ({"action": "append"} if kind is list  # cast by _complete
               else {"type": lambda val, key=key: _cast(key, val)})
        ap.add_argument(flag, dest=key, choices=_CHOICES.get(key),
                        help=help_text, **how)
    return ap


def _complete(config):
    """Cast every key's value or default; mesh and k have none.  A key
    outside the schema fails, except ``ring = n2``, which older reports
    record and which names the one normal ring, so it is dropped."""
    config = dict(config)
    ring = config.pop("ring", "n2")
    if ring != "n2":
        raise ParameterError(f"ring {ring!r} cannot be replayed: n2 is the "
                             "only normal ring")
    unknown = config.keys() - _SCHEMA.keys()
    if unknown:
        raise ParameterError(f"unknown config key {min(unknown, key=str)!r}")
    return {key: _cast(key, config.get(key, default))
            for key, (_, default, _, _) in _SCHEMA.items()}


def _solver_params(config):
    return SolverParams(**{name: config[key]
                           for key, (name, *_) in _SCHEMA.items() if name})


def resolve_config(args):
    """defaults < config file < command line."""
    given = dict(vars(args))
    path = given.pop("config", None)
    return _complete({**(read_config(path) if path else {}), **given})


def run(config):
    """Execute one segmentation run; returns the report dict.  ``config``
    is cast and completed with the defaults as a config file is."""
    config = _complete(config)
    params = _solver_params(config)
    mesh_path, out_dir = Path(config["mesh"]), Path(config["out"])
    stem = mesh_path.stem

    t0 = time.perf_counter()
    # read and check the ground truth and the mesh before the output
    # directory exists: a truth file may sit where an output goes, and a
    # run that fails on its input leaves nothing behind
    truths = [parse_seg(Path(p).read_bytes()) for p in config["gt"]]
    mesh = load_mesh_file(mesh_path)
    for path, truth in zip(config["gt"], truths):
        if len(truth) != mesh.n_faces:
            raise DimensionError(f"{path}: {len(truth)} labels for "
                                 f"{mesh.n_faces} faces")
    out_dir.mkdir(parents=True, exist_ok=True)
    features = feature_field(mesh, params.k)
    result = segment(mesh, features.values, params)

    seg_path = out_dir / f"{stem}.seg"
    seg_path.write_text("%d\n" * len(result.labels)
                        % tuple(result.labels.tolist()))
    ply_path = out_dir / f"{stem}_colored.ply"
    export_colored_mesh(mesh, result.labels, ply_path)

    rand_index = None
    if truths:
        mean, scores = mean_dissimilarity(result.labels, truths)
        rand_index = {"mean": mean, "scores": scores, "files": config["gt"]}

    report = {
        # the resolved alpha, so that a replay reuses it
        "params": {**config, "mesh": str(mesh_path), "out": str(out_dir),
                   "alpha": result.alpha},
        "n_faces": mesh.n_faces,
        "n_edges": mesh.n_edges,
        "converged": result.converged,
        "outer_iterations": len(result.error_trace),
        "error_trace": result.error_trace,
        "energy_trace": result.energy_trace,
        "kkt": result.kkt,
        "solver_seconds": result.seconds,
        "total_seconds": time.perf_counter() - t0,
        "rand_index": rand_index,
        "outputs": {"seg": str(seg_path), "ply": str(ply_path)},
    }
    report_path = out_dir / f"{stem}_report.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    report["outputs"]["report"] = str(report_path)
    return report


def main(argv=None):
    try:
        config = resolve_config(build_parser().parse_args(argv))
        report = run(config)
    except MeshSegError as exc:
        print(f"error\t{type(exc).__name__}\t{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error\tIOError\t{exc}", file=sys.stderr)
        return 1
    status = "converged" if report["converged"] else "max-iterations"
    print(
        f"{report['params']['mesh']}: {report['params']['k']} segments, "
        f"{report['outer_iterations']} outer iterations ({status}), "
        f"{report['solver_seconds']:.2f}s solver"
    )
    if report["rand_index"] is not None:
        print(f"rand-index dissimilarity: {report['rand_index']['mean']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
