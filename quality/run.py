"""Quality scoreboard: the labels of fixed cases at the default parameters.

usage: python3 quality/run.py [--label L]

Run from anywhere in a source checkout; it imports msseg from ``src/``.
The cases are every run of the three ``perfbench`` workloads at workload
seed 0, each mesh parsed from its OFF text and scored against its .seg
truth, and the eight mitered elbows of ``tests/_meshes.elbow`` (bend 90
or 60 degrees, arms 3 + 3 or 2 + 5, open or capped) at K=2 in every
mode: 37 runs.  For each run it records the Rand index, the outer
iterations, ``converged``, the final KKT blocks, alpha, the smallest
retained eigenvalue, the wall time of features and solve, and a digest
of the labels.  It writes ``QUALITY_<L>.json`` at the root of the
checkout.  It is not part of tier-1: a change that moves labels commits
a before/after pair of these files.
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread, as the benchmark runs; set before numpy is imported
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"),
                str(ROOT / "tests")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from _meshes import elbow  # noqa: E402
from msseg.evaluation import parse_seg, rand_index_dissimilarity  # noqa: E402
from msseg.features import feature_field  # noqa: E402
from msseg.mesh import load_off  # noqa: E402
from msseg.solver import MODES, SolverParams, segment  # noqa: E402

WORKLOADS = ("dumbbell-batch", "bumpy12k", "bumpy35k")
ELBOWS = [(theta, L1, L2, caps) for L1, L2 in ((3, 3), (2, 5))
          for theta in (90, 60) for caps in (False, True)]


def cases():
    """(name, mesh, truth, k, mode, seed) of every case, in a fixed order;
    a workload whose generated inputs fail their check stops the run."""
    for name in WORKLOADS:
        meshes, runs = workloads.build(name, workloads.DEFAULT_SEED)
        problems = workloads.check_inputs(name, workloads.DEFAULT_SEED,
                                          meshes)
        if problems:
            raise SystemExit(f"{name}: " + "; ".join(problems))
        for spec in runs:
            off, truth = meshes[spec["mesh"]]
            yield (spec["name"], load_off(off), parse_seg(truth), spec["k"],
                   spec["mode"], spec["seed"])
    for theta, L1, L2, caps in ELBOWS:
        mesh, truth = elbow(theta, L1, L2, caps=caps)
        stem = f"elbow{theta}_{L1}+{L2}_{'capped' if caps else 'open'}"
        for mode in MODES:
            yield f"{stem}_{mode}", mesh, truth, 2, mode, 0


def score(mesh, truth, k, mode, seed):
    """The record of one run at the default parameters."""
    t0 = time.perf_counter()
    field = feature_field(mesh, k)
    result = segment(mesh, field.values, SolverParams(k=k, mode=mode,
                                                      seed=seed))
    seconds = time.perf_counter() - t0
    labels = result.labels.astype(np.int64)
    return {
        "faces": mesh.n_faces, "k": k, "mode": mode, "seed": seed,
        "rand_index": rand_index_dissimilarity(labels, truth),
        "outer_iterations": len(result.error_trace),
        "converged": result.converged,
        "kkt": result.kkt,
        "alpha": result.alpha,
        "min_eigenvalue": float(field.eigenvalues.min()),
        "seconds": seconds,
        "labels_digest": hashlib.sha256(labels.tobytes()).hexdigest()[:16],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--label", default="head",
                    help="names the output, QUALITY_<label>.json")
    args = ap.parse_args(argv)
    records = {}
    for name, mesh, truth, k, mode, seed in cases():
        rec = records[name] = score(mesh, truth, k, mode, seed)
        print(f"{name:28s} {rec['faces']:6d} faces  rand_index "
              f"{rec['rand_index']:6.2f}  outer {rec['outer_iterations']:3d}"
              f"  alpha {rec['alpha']:.3g}  {rec['seconds']:6.2f} s  "
              f"{rec['labels_digest']}")
    out = ROOT / f"QUALITY_{args.label}.json"
    out.write_text(json.dumps({
        "label": args.label,
        "env": {"python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__},
        "cases": records,
    }, indent=2) + "\n")
    print(f"{len(records)} cases, "
          f"{sum(r['seconds'] for r in records.values()):.1f} s; "
          f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
