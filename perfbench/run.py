"""Benchmark of cnot: run one workload, print its metrics as one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it holds the per-layer
metrics.  ``--workload all`` runs ladder, corpus and pipeline one after the
other and prints every metric of each (the end-to-end ones and the
workload figures: rung and command times, failure and certification
shares) as a table before the JSON line.  The exit code is 0 only when
every task's output matched the reference; a correctness miss still
prints the JSON line, with ``"correct": false``.

Everything runs in fresh interpreters started from here, with ``src`` of
this checkout on PYTHONPATH: the cold-import probes behind ``setup_s``
(``python -X importtime`` for the per-layer import figures) and one worker
process per workload (``worker.py``).  Results, with the machine, library
versions, thread settings, commit and per-module line counts of
``src/cnot``, go to ``.perfbench/results/``; scratch CLI output goes to
``.perfbench/tmp/`` and is deleted.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (stdlib-only at import time)

ROOT = workloads.ROOT
SRC = workloads.SRC
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 2  # before the workload and again after it
IMPORT_PROBE = ("import time; t = time.perf_counter(); import cnot, cnot.cli; "
                "print(time.perf_counter() - t)")
PROBE_TIMEOUT = 60
WORKER_TIMEOUT = 160


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env():
    """Environment of every child: this checkout's ``src`` and pinned threads.

    One client runs one task at a time, so BLAS and cnot's own thread pool
    (``sweep``) get one thread each: with two sweep threads the peak RSS of
    the pipeline depended on how the threads happened to overlap.  glibc
    gets one malloc arena: a thread that allocates (the sweep pool, the LP
    solver) otherwise got an arena of its own, and the pipeline's peak RSS
    jumped by about 30 MB in some runs and not in others.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(
        CNOT_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        MALLOC_ARENA_MAX="1",
        PYTHONHASHSEED="0",
    )
    return env


def _python(args, env, timeout):
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout, check=True)


def setup_times(env, repeats, warm_up):
    """Seconds to import ``cnot`` and ``cnot.cli`` in fresh interpreters.

    With ``warm_up``, one untimed probe runs first, so that bytecode caches
    exist and are read as they would be for a user.
    """
    skip = 1 if warm_up else 0
    runs = [_python(["-c", IMPORT_PROBE], env, PROBE_TIMEOUT) for _ in range(repeats + skip)]
    return [float(r.stdout.split()[-1]) for r in runs[skip:]]


def import_times(env, repeats):
    """Median cumulative import seconds per module from ``-X importtime``."""
    samples = {}
    for _ in range(repeats):
        out = _python(["-X", "importtime", "-c", "import cnot, cnot.cli"], env, PROBE_TIMEOUT)
        for line in out.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            samples.setdefault(name.strip(), []).append(int(cumulative) / 1e6)
    return {name: statistics.median(v) for name, v in samples.items()}


def run_worker(args, env, stem):
    tmp = OUT / "tmp" / stem
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{stem}.worker.json"
    cmd = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", str(args.reference), "--tmp", str(tmp),
           "--spans", str(results / f"{stem}.spans.json"), "--out", str(out)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run([sys.executable, *cmd], env=env, cwd=ROOT,
                              stdout=sys.stderr, timeout=WORKER_TIMEOUT)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(out.read_text())


def code_lines():
    return {p.name: len(p.read_text().splitlines()) for p in sorted((SRC / "cnot").glob("*.py"))}


def commit():
    """The checked-out commit, when the checkout is a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_one(args, spec, env):
    """One workload: returns the result line and the full record."""
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    repeats = 1 if args.smoke else SETUP_REPEATS
    setup = [] if args.trace else setup_times(env, repeats, warm_up=True)
    imports = import_times(env, 1 if args.smoke else 3) if args.trace else {}
    worker = run_worker(args, env, stem)
    if not args.trace:  # the machine's speed drifts: sample set-up on both sides
        setup += setup_times(env, repeats, warm_up=False)
    fig = worker["figures"]
    if args.trace:
        values = dict(fig)
        values.update(worker["traced"]["layers"])
        values.update({f"setup.import.{k}": v for k, v in imports.items()})
        wanted = spec["per_layer"]
    else:
        values = dict(fig, setup_s=statistics.median(setup), peak_rss_mb=worker["peak_rss_mb"])
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    absent = worker.get("traced", {}).get("absent", [])
    for target in absent:
        print(f"perfbench: target {target} not found in cnot; its metrics read 0",
              file=sys.stderr)
    line = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    record = {
        "argv": sys.argv,
        "line": line,
        "not_measured_here": missing,
        "absent_targets": absent,
        "setup_s_samples": setup,
        "import_s": imports,
        "machine": {"nproc": nproc(),
                    "memory_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")},
        "threads": {k: env[k] for k in ("CNOT_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MALLOC_ARENA_MAX")},
        "commit": commit(),
        "src_cnot_lines": code_lines(),
        "worker": worker,
    }
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    for key, problems in worker["problems"]:
        print(f"perfbench: {args.workload} {key}: {'; '.join(problems)}", file=sys.stderr)
    return line, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny slice of each workload (harness self-test)")
    parser.add_argument("--reference", default=str(workloads.REFERENCE),
                        help="reference outputs to check against")
    args = parser.parse_args(argv)

    needed = [SPEC, SRC / "cnot" / "__init__.py", workloads.SCENARIOS / "figure1.json",
              Path(args.reference)]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print("perfbench: not a cnot checkout, missing " + ", ".join(missing), file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    env = child_env()
    OUT.mkdir(exist_ok=True)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        one = argparse.Namespace(**dict(vars(args), workload=name))
        try:
            lines[name], record = run_one(one, spec, env)
        except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
            print(f"perfbench: {name} did not run: {exc}", file=sys.stderr)
            return 2
        if args.workload == "all":
            table = dict(lines[name]["metrics"])
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            for key, value in record["worker"]["figures"].items():
                table.setdefault(key, {"value": value, "unit": units.get(key, "s")})
            for key, m in table.items():
                print(f"{name:9s} {key:22s} {m['value']:14.6g} {m['unit']}")

    if args.workload == "all":
        result = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{w}.{k}": m for w, v in lines.items() for k, m in v["metrics"].items()},
        }
    else:
        result = lines[args.workload]
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
