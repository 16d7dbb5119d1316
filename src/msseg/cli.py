"""Command-line runner: load a mesh, build features, segment, export.

Outputs, for input ``foo.off`` written to the output directory:
``foo.seg`` (one label per face), ``foo_colored.ply`` (flat per-face
colors) and ``foo_report.json`` (resolved parameters plus traces).  A
previously written report can be passed back via ``--config`` to replay
a run exactly.
"""

import os

# honor the thread cap before any BLAS-backed import happens
if os.environ.get("MSSEG_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["MSSEG_THREADS"])

import argparse
import colorsys
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import MeshSegError, ParameterError
from .evaluation import mean_dissimilarity, parse_seg
from .features import feature_field
from .mesh import load_mesh_file
from .solver import SolverParams, segment

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
    """Write an ASCII PLY with one flat color per face."""
    labels = np.asarray(labels)
    if len(labels) != mesh.n_faces:
        raise ParameterError(
            f"{len(labels)} labels for {mesh.n_faces} faces"
        )
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
    lines.extend(f"{x:.9g} {y:.9g} {z:.9g}"
                 for x, y, z in mesh.vertices.tolist())
    uniq, inverse = np.unique(labels, return_inverse=True)
    colors = ["{} {} {}".format(*label_color(int(lab)))
              for lab in uniq.tolist()]
    lines.extend(f"3 {a} {b} {c} {colors[i]}"
                 for (a, b, c), i in zip(mesh.faces.tolist(), inverse.tolist()))
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise MeshSegError(f"cannot write {path}: {exc}") from exc


_CONFIG_KEYS = {
    "mesh": str, "mode": str, "k": int, "alpha": str, "beta_ratio": float,
    "alpha0": float, "eta": float, "r_p": float, "r_q": float, "r_z": float,
    "inner_iters": int, "tol": float, "max_outer": int, "seed": int,
    "ring": str, "out": str,
}


def read_config(path):
    """Read a flat key=value config file, or the params block of a
    previously written JSON report."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        raw = doc.get("params", doc)
    else:
        raw = {}
        for n, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{n}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            raw[key] = val
    config = {}
    for key, val in raw.items():
        if key in ("gt", "gts"):
            config["gt"] = list(val) if isinstance(val, list) else val.split(",")
            continue
        if key not in _CONFIG_KEYS:
            raise ParameterError(f"unknown config key {key!r}")
        config[key] = val
    return config


def build_parser():
    ap = argparse.ArgumentParser(
        prog="msseg",
        description="Piecewise-smooth Mumford-Shah mesh segmentation",
    )
    ap.add_argument("--config", help="key=value file or a prior run report")
    ap.add_argument("--mesh", help="input mesh (.off or .obj)")
    ap.add_argument("--mode", choices=["pcms", "psms", "gpsms"])
    ap.add_argument("--k", type=int, help="number of segments")
    ap.add_argument("--alpha", help="data weight, or 'auto'")
    ap.add_argument("--beta-ratio", dest="beta_ratio", type=float)
    ap.add_argument("--alpha0", type=float)
    ap.add_argument("--eta", type=float)
    ap.add_argument("--rp", dest="r_p", type=float)
    ap.add_argument("--rq", dest="r_q", type=float)
    ap.add_argument("--rz", dest="r_z", type=float)
    ap.add_argument("--inner-iters", dest="inner_iters", type=int)
    ap.add_argument("--tol", type=float)
    ap.add_argument("--max-outer", dest="max_outer", type=int)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--ring", choices=["raw", "n1", "n2"])
    ap.add_argument("--gt", action="append",
                    help="ground-truth .seg file (repeatable)")
    ap.add_argument("--out", help="output directory (default: .)")
    return ap


_DEFAULTS = {
    "mode": "gpsms", "alpha": "auto", "beta_ratio": 1.0, "alpha0": 2.0,
    "eta": 1e-5, "r_p": 1.0, "r_q": 1.0, "r_z": 100.0, "inner_iters": 5,
    "tol": 1e-5, "max_outer": 100, "seed": 0, "ring": "n2", "out": ".",
}


def resolve_config(args):
    """defaults < config file < command line."""
    config = dict(_DEFAULTS)
    if args.config:
        config.update(read_config(args.config))
    for key in list(_CONFIG_KEYS) + ["gt"]:
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    if "mesh" not in config:
        raise ParameterError("no input mesh given (--mesh)")
    if "k" not in config:
        raise ParameterError("no segment count given (--k)")
    # normalize types (config files carry strings)
    for key, cast in _CONFIG_KEYS.items():
        if key in config and key != "alpha":
            config[key] = cast(config[key])
    return config


def run(config):
    """Execute one segmentation run; returns the report dict."""
    mesh_path = Path(config["mesh"])
    out_dir = Path(config.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = mesh_path.stem

    alpha = config.get("alpha", "auto")
    alpha = None if str(alpha).lower() == "auto" else float(alpha)
    params = SolverParams(
        k=int(config["k"]),
        mode=config.get("mode", "gpsms"),
        alpha=alpha,
        beta_ratio=float(config.get("beta_ratio", 1.0)),
        alpha0=float(config.get("alpha0", 2.0)),
        eta=float(config.get("eta", 1e-5)),
        r_p=float(config.get("r_p", 1.0)),
        r_q=float(config.get("r_q", 1.0)),
        r_z=float(config.get("r_z", 100.0)),
        inner_iters=int(config.get("inner_iters", 5)),
        outer_tol=float(config.get("tol", 1e-5)),
        max_outer=int(config.get("max_outer", 100)),
        seed=int(config.get("seed", 0)),
    ).validate()

    t0 = time.perf_counter()
    # read the ground truth before any output is written: a truth file may
    # sit where an output goes
    gt_files = config.get("gt") or []
    truths = [parse_seg(Path(p).read_bytes()) for p in gt_files]
    mesh = load_mesh_file(mesh_path)
    features = feature_field(mesh, params.k, ring=config.get("ring", "n2"))
    result = segment(mesh, features.values, params)

    seg_path = out_dir / f"{stem}.seg"
    seg_path.write_text("\n".join(str(int(l)) for l in result.labels) + "\n")
    ply_path = out_dir / f"{stem}_colored.ply"
    export_colored_mesh(mesh, result.labels, ply_path)

    rand_index = None
    if truths:
        mean, scores = mean_dissimilarity(result.labels, truths)
        rand_index = {"mean": mean, "scores": scores,
                      "files": [str(p) for p in gt_files]}

    report = {
        "params": {
            "mesh": str(mesh_path),
            "mode": params.mode,
            "k": params.k,
            "alpha": result.alpha,  # resolved value; replays reuse it
            "beta_ratio": params.beta_ratio,
            "alpha0": params.alpha0,
            "eta": params.eta,
            "r_p": params.r_p,
            "r_q": params.r_q,
            "r_z": params.r_z,
            "inner_iters": params.inner_iters,
            "tol": params.outer_tol,
            "max_outer": params.max_outer,
            "seed": params.seed,
            "ring": config.get("ring", "n2"),
            "out": str(out_dir),
        },
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
    if gt_files:
        report["params"]["gt"] = [str(p) for p in gt_files]
    report_path = out_dir / f"{stem}_report.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    report["outputs"]["report"] = str(report_path)
    return report


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
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
