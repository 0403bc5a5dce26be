"""Runs one workload in a fresh interpreter and writes its figures as JSON.

Started by ``run.py``; not meant to be called by hand.  One client, one task
at a time (a closed loop).  After one untimed warm-up task, whole passes over
the task list run until the time budget is spent; every task's output is
checked against the reference.  With ``--trace 1`` the budget is split: the
first half runs untraced (for the workload figures and the tracing
overhead), the second half under the outside-in tracer.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def run_passes(workload, tasks, budget, reference):
    """Whole passes over ``tasks`` until ``budget`` seconds have gone by."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < budget:
        records = []
        for task in tasks:
            try:
                seconds, outcome = task.run()
                problems = workloads.check(workload, task, outcome, reference)
            except Exception:  # a task that crashes is a failed task, not a crashed run
                traceback.print_exc()
                seconds, outcome, problems = 0.0, {"error": "crash"}, ["crashed"]
            records.append((task, seconds, outcome, problems))
        passes.append(records)
    return passes


def figures(workload, passes):
    """Workload figures from untraced passes (medians over passes)."""
    pass_s = [sum(r[1] for r in p) for p in passes]
    tasks = [r for p in passes for r in p]
    task_ms = sorted(1e3 * r[1] for r in tasks)
    out = {
        "wall_s": statistics.median(pass_s),
        "task_p50_ms": statistics.median(task_ms),
        "task_p90_ms": statistics.quantiles(task_ms, n=10)[-1] if len(task_ms) > 1 else task_ms[0],
        "failed_frac": sum(workloads.did_not_succeed(r[2]) for r in tasks) / len(tasks),
    }
    certified = [workloads.uncertified(r[2]) for r in tasks]
    certified = [c for c in certified if c is not None]
    out["uncertified_frac"] = sum(certified) / len(certified) if certified else 0.0
    labels = sorted({r[0].label for r in tasks})
    prefix = {"ladder": "solve_s.", "pipeline": "cmd_s."}.get(workload)
    if prefix:
        for label in labels:
            out[prefix + label] = statistics.median(
                sum(r[1] for r in p if r[0].label == label) for p in passes)
    out["cli.bytes_written"] = statistics.median(
        sum(r[2].get("bytes", 0) for r in p) for p in passes)
    return out, pass_s


def environment():
    import numpy
    import scipy

    blas = {}
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cnot_threads": os.environ.get("CNOT_THREADS"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--reference", required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    cnot = workloads.import_cnot()
    warnings.simplefilter("ignore")  # κ < 0 and product kernels warn by design
    reference = json.loads(Path(args.reference).read_text())
    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    tasks = workloads.build(cnot, args.workload, args.seed, tmp, args.smoke, reference)

    warm = next((t for t in tasks if t.key == workloads.WARM_UP[args.workload]), tasks[0])
    warm.run()

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_passes(args.workload, tasks, budget, reference)
    result = {"env": environment(), "tasks": len(tasks), "warm_up": warm.key}
    result["figures"], result["pass_s"] = figures(args.workload, untraced)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = list(untraced)

    if args.trace:
        tracer = Tracer().install()
        try:
            traced = run_passes(args.workload, tasks, budget, reference)
        finally:
            tracer.uninstall()
        layers, top = layer_metrics(tracer, len(traced))
        traced_wall = statistics.median(sum(r[1] for r in p) for p in traced)
        layers["trace.overhead_frac"] = traced_wall / result["figures"]["wall_s"] - 1.0
        result["traced"] = {
            "passes": len(traced),
            "wall_s": traced_wall,
            "layers": layers,
            "top_level_s": top,
            "absent": tracer.absent,
            "bindings": tracer.bindings,
        }
        tracer.write(args.spans)
        done += traced

    records = [r for p in done for r in p]
    misses = [(r[0].key, r[3]) for r in records if r[3]]
    task_s = {}
    for task, seconds, _, _ in (r for p in untraced for r in p):
        task_s.setdefault(task.key, []).append(seconds)
    result.update({
        "passes": len(untraced),
        "attempted": len(records),
        "failed": len(misses),
        "problems": misses[:20],
        "outcomes": {r[0].key: r[2] for r in untraced[0]},
        "task_s": task_s,
    })
    Path(args.out).write_text(json.dumps(result, indent=1, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
