"""Benchmark child process: runs the passes of one workload in-process.

usage: python3 perfbench/child.py JOB.json RESULT.json

One client drives ``msseg.cli.run`` in a closed loop: each run starts
when the previous one has returned.  A pass is every run of the job in
order.  Without tracing the child makes passes until ``seconds`` have
gone by (at least one).  With tracing it makes a warm-up pass, which
takes the one-time costs of the process (lazy imports, first page
faults), then an untraced, a traced and a second untraced pass, so that
a steady drift between the untraced passes shows and cancels out of the
tracing overhead.
"""

import json
import os
import platform
import resource
import sys
import time
import warnings
from pathlib import Path

import msseg
import msseg.cli as cli
from msseg.errors import MeshSegError

import tracing


def read_outputs(out, stem, k, faces):
    """Check the files one run wrote and return the facts the benchmark
    reads from them.  Raises ValueError for a wrong value, and the
    OSError, ValueError, KeyError or TypeError of a missing or malformed
    file."""
    seg = (out / f"{stem}.seg").read_text()
    labels = [int(x) for x in seg.split()]
    if len(labels) != faces:
        raise ValueError(f".seg has {len(labels)} labels for {faces} faces")
    if not 0 <= min(labels) <= max(labels) < k:
        raise ValueError(f".seg labels span [{min(labels)}, {max(labels)}],"
                         f" outside [0, {k})")
    if len(set(labels)) < 2:
        raise ValueError(".seg has fewer than 2 distinct labels")
    # read as bytes: the header is text in ASCII and binary PLY alike
    ply = (out / f"{stem}_colored.ply").read_bytes()
    header = ply[:ply.index(b"end_header")].decode("ascii").splitlines()
    if f"element face {faces}" not in header:
        raise ValueError(".ply header does not declare every face")
    report = json.loads((out / f"{stem}_report.json").read_text())
    return {
        "converged": bool(report["converged"]),
        "outer_iterations": int(report["outer_iterations"]),
        "inner_iters": int(report["params"]["inner_iters"]),
        "b_stationarity": float(report["kkt"]["b_stationarity"]),
        "rand_index": float(report["rand_index"]["mean"]),
        "seg": seg,
    }


def run_pass(job, out_name):
    """Every run of the job once; one record per run."""
    work = Path(job["work"])
    records = []
    for spec in job["runs"]:
        stem = spec["mesh"]
        out = work / out_name / spec["name"]
        config = {
            "mesh": str(work / "mesh" / f"{stem}.off"),
            "k": spec["k"], "mode": spec["mode"], "seed": spec["seed"],
            "out": str(out),
            # ground truth lives outside the output directory: cli.run
            # writes <stem>.seg there before it reads --gt
            "gt": [str(work / "gt" / f"{stem}.seg")],
        }
        rec = {"name": spec["name"], "faces": spec["faces"], "error": None}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                cli.run(config)
            except MeshSegError as exc:
                rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["seconds"] = time.perf_counter() - t0
        rec["warnings"] = sum(issubclass(w.category, RuntimeWarning)
                              for w in caught)
        if rec["error"] is None:
            try:
                rec.update(read_outputs(out, stem, spec["k"], spec["faces"]))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                rec["error"] = f"output check: {type(exc).__name__}: {exc}"
        records.append(rec)
    return records


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
    }


SOLVES = {"u_solve": "solver.solve_u", "v_solve": "solver.solve_v",
          "b_solve": "solver.solve_b"}


def factored_systems(systems):
    """The span names of the solves whose system ``Systems`` factored."""
    return [SOLVES[a] for a in SOLVES if getattr(systems, a) is not None]


def factor_use(spans, observed):
    """(systems factored, factored systems solved with), summed over the
    runs of a traced pass; each run is one root ``cli.run`` span."""
    run_of, called = [], []
    for name, _, _, parent in spans:
        if name == "cli.run" and parent < 0:
            called.append(set())
        if name in SOLVES.values():
            called[-1].add(name)
        run_of.append(len(called) - 1)
    built = sum(len(factored) for _, factored in observed)
    used = sum(len(called[run_of[idx]] & set(factored))
               for idx, factored in observed)
    return built, used


def traced_passes(job):
    warm = run_pass(job, "plain")
    plain = run_pass(job, "plain")
    tracer = tracing.Tracer(observe={"solver.Systems": factored_systems})
    tracer.install()
    try:
        traced = run_pass(job, "traced")
    finally:
        tracer.uninstall()
    again = run_pass(job, "plain")
    tracer.dump(Path(job["work"]) / "spans.json")
    calls, self_s, inclusive_s, layers = tracing.summarize(tracer.spans)
    built, used = factor_use(tracer.spans, tracer.observed)
    # each cli.run call is a root span, and its spans follow it
    roots = [i for i, span in enumerate(tracer.spans) if span[3] < 0]
    for rec, a, b in zip(traced, roots, roots[1:] + [len(tracer.spans)]):
        part = [[n, t0, t1, p - a if p >= 0 else -1]
                for n, t0, t1, p in tracer.spans[a:b]]
        rec["top_layer"] = max(tracing.summarize(part)[3].items(),
                               key=lambda kv: kv[1])
    same = all(w.get("seg") is not None
               and w.get("seg") == a.get("seg") == b.get("seg") == c.get("seg")
               for w, a, b, c in zip(warm, plain, traced, again))
    return [warm, plain, traced, again], {
        "calls": calls, "self_s": self_s, "inclusive_s": inclusive_s,
        "layers": layers, "labels_identical": same,
        "systems_factored": built, "systems_used": used,
    }


def main(job_path, result_path):
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    if src not in Path(msseg.__file__).resolve().parents:
        raise SystemExit(f"msseg imported from {msseg.__file__}, not {src}")
    result = {"env": environment()}
    if job["trace"]:
        result["passes"], result["trace"] = traced_passes(job)
    else:
        t0 = time.perf_counter()
        passes = [run_pass(job, "plain")]
        # the peak of one pass, as one batch of CLI calls reaches it: later
        # passes in the same process add 2-5 % of heap fragmentation
        result["rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while time.perf_counter() - t0 < job["seconds"]:
            passes.append(run_pass(job, "plain"))
        result["passes"] = passes
    for records in result["passes"]:
        for rec in records:
            rec.pop("seg", None)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
