"""Benchmark of the msseg pipeline, mesh file to labels, on one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The script writes the seeded
input meshes under ``.perfbench/<workload>/``, times a fresh interpreter
importing ``msseg.cli`` (set-up), and starts one single-threaded child
process (``child.py``) that drives ``msseg.cli.run`` over the workload
and checks every output.  It prints a summary and, as the last line, one
JSON object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a traced pass (``--trace 1``), named and with units as in
BENCHMARK.json.  See NOTES.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from meshes import off_faces

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DEADLINE_S = 170        # the whole run, child included, ends before this
SETUP_SAMPLES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # cli.py maps MSSEG_THREADS to these only if it is imported before
    # numpy, so the child gets them from its environment instead
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    # an installed package has its bytecode compiled; let the first
    # set-up import write it for src/ too
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup(env, deadline):
    """Median wall time of a fresh interpreter importing msseg.cli, with
    the numpy and scipy it pulls in.  A first, untimed import writes the
    bytecode caches, which an installed package already has."""
    cmd = [sys.executable, "-c", "import msseg.cli"]
    samples = []
    for _ in range(1 + SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       timeout=deadline - t0)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples[1:]), samples[1:]


def write_inputs(work, meshes, runs):
    for sub in ("mesh", "gt"):
        (work / sub).mkdir(parents=True)
    for stem, (off, truth) in meshes.items():
        (work / "mesh" / f"{stem}.off").write_text(off)
        (work / "gt" / f"{stem}.seg").write_text(truth)
    return [dict(spec, faces=off_faces(meshes[spec["mesh"]][0]))
            for spec in runs]


def tail(samples):
    """(percentile, value) of the highest whole percentile with at least
    ten samples beyond it, or None when there are fewer than 11."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def pass_summary(records):
    ok = [r for r in records if r["error"] is None]
    seconds = sum(r["seconds"] for r in records)
    return {
        "run_s": seconds,
        "faces_per_s": sum(r["faces"] for r in ok) / seconds,
        # a failed run scores as total disagreement, so that failing
        # runs cannot improve the mean
        "rand_index": statistics.fmean(
            r["rand_index"] if r["error"] is None else 100.0
            for r in records),
    }


def end_to_end(result, setup_s):
    passes = [pass_summary(p) for p in result["passes"]]
    records = [r for p in result["passes"] for r in p]
    failed = sum(r["error"] is not None for r in records)
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in ("run_s", "faces_per_s", "rand_index")}
    metrics.update(setup_s=setup_s, peak_rss_mb=result["rss_mb"],
                   ok_frac=1 - failed / len(records))
    run_s = [p["run_s"] for p in passes]
    t = tail(run_s)
    lines = [f"run_s over {len(run_s)} pass(es): median "
             f"{statistics.median(run_s):.3f} s, "
             + (f"p{t[0]} {t[1]:.3f} s" if t else
                "no percentile has 10 samples beyond it")
             + " | " + " ".join(f"{s:.3f}" for s in run_s)]
    if len(run_s) > 1:
        lines.append(f"drift within the process: last pass / first pass = "
                     f"{run_s[-1] / run_s[0]:.3f}")
    return metrics, lines


def per_layer(result):
    info = result["trace"]
    warm, plain, traced, again = result["passes"]
    calls = info["calls"]
    metrics = dict(info["layers"])
    ok = [r for r in traced if r["error"] is None]
    sweeps = sum(r["outer_iterations"] * r["inner_iters"] for r in ok)
    run_s = [sum(r["seconds"] for r in p) for p in (plain, traced, again)]
    records = warm + plain + traced + again
    metrics.update({
        "calculus.operators_calls": calls.get("calculus.operators", 0),
        "solver.solve_calls": sum(calls.get(f"solver.solve_{x}", 0)
                                  for x in "uvb"),
        "solver.factor_used_ratio": info["systems_used"]
        / max(info["systems_factored"], 1),
        "solver.sweep_s": info["inclusive_s"].get("solver.admm_inner", 0.0)
        / max(sweeps, 1),
        "solver.outer_iters": sum(r["outer_iterations"] for r in ok),
        "solver.converged_frac": sum(r["converged"] for r in ok) / len(traced),
        "solver.b_stationarity": max((r["b_stationarity"] for r in ok),
                                     default=0.0),
        "cli.warnings": sum(r["warnings"] for r in traced),
        "trace.overhead_s": run_s[1] - (run_s[0] + run_s[2]) / 2,
        "trace.drift_frac": run_s[2] / run_s[0] - 1,
        "fail_frac": sum(r["error"] is not None for r in records)
        / len(records),
    })
    top = sorted(info["self_s"].items(), key=lambda kv: -kv[1])[:8]
    lines = [
        f"warm-up, untraced, traced, untraced pass: "
        + " / ".join(f"{sum(r['seconds'] for r in p):.3f}"
                     for p in result["passes"]) + " s",
        f"labels of the traced pass byte-identical to the untraced ones: "
        f"{info['labels_identical']}",
        f"systems factored {info['systems_factored']}, "
        f"solved with {info['systems_used']}",
        "largest self times: " + ", ".join(f"{n} {t:.3f} s" for n, t in top),
        f"self times sum to {sum(info['layers'].values()):.3f} s of "
        f"{run_s[1]:.3f} s traced",
    ]
    return metrics, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.EXPECTED))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    # turn SIGTERM into SystemExit, on which subprocess.run kills and
    # reaps the process it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "msseg" / "cli.py").is_file():
        print(f"error: no msseg sources at {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    meshes, runs = workloads.build(args.workload, args.seed)
    problems = workloads.check_inputs(args.workload, args.seed, meshes)
    runs = write_inputs(work, meshes, runs)

    env = child_env()
    job = {"src": str(SRC), "work": str(work), "runs": runs,
           "seconds": args.seconds, "trace": args.trace}
    (work / "job.json").write_text(json.dumps(job))
    try:
        setup_s, setup_samples = (None, []) if args.trace \
            else measure_setup(env, deadline)
        child = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(work / "job.json"),
             str(work / "result.json")],
            env=env, cwd=ROOT, timeout=deadline - time.perf_counter())
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"error: child exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text())

    env_info = result["env"]
    records = [r for p in result["passes"] for r in p]
    failed = [r for r in records if r["error"] is not None]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(result['passes'])} pass(es) of {len(runs)} run(s), "
          f"{len(records)} attempted, {len(failed)} failed")
    print(f"nproc {env_info['nproc']} (affinity {env_info['affinity']}), "
          f"Python {env_info['python']}, numpy {env_info['numpy']}, "
          f"scipy {env_info['scipy']}, BLAS {env_info['blas']}, threads "
          + " ".join(f"{k}={v}" for k, v in env_info["threads"].items()))
    for r in result["passes"][-1 if not args.trace else 2]:
        print(f"  {r['name']:24s} {r['faces']:6d} faces {r['seconds']:8.3f} s "
              + (f"outer {r['outer_iterations']:3d} "
                 f"converged {r['converged']!s:5s} "
                 f"rand_index {r['rand_index']:.3f}" if r["error"] is None
                 else f"FAILED {r['error']}")
              + (" | largest layer {} {:.3f} s".format(*r["top_layer"])
                 if "top_layer" in r else ""))
    for msg in problems:
        print(f"input check failed: {msg}")
    if setup_samples:
        print("setup_s samples: " + " ".join(f"{s:.3f}" for s in setup_samples))

    if args.trace:
        metrics, lines = per_layer(result)
        correct = result["trace"]["labels_identical"]
    else:
        metrics, lines = end_to_end(result, setup_s)
        correct = True
    correct = correct and not failed and not problems
    for line in lines:
        print(line)
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in declared}
    for name, m in out.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": len(records),
                      "failed": len(failed), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
