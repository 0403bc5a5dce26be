"""Harness self-test: tiny runs that check the benchmark itself.

    python3 perfbench/selftest.py

1. Every workload, in smoke mode (a tiny slice), with ``--trace 0`` and
   ``--trace 1``: exit code 0, ``"correct": true``, and every metric of
   BENCHMARK.json emitted with its unit.  In the traced runs each tracer
   target must be found in cnot.
2. A reference with one value nudged by 1e-6 (relative) must trip the
   correctness gate: non-zero exit, ``"correct": false``, ``failed >= 1``.
3. A directory holding only BENCHMARK.json and ``perfbench/`` (no cnot
   source) must make the benchmark exit non-zero without a result line.

Exits 0 when every check holds; prints each failed check otherwise.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = workloads.ROOT
RUN = HERE / "run.py"
TIMEOUT = 180


def bench(*args, cwd=ROOT, run=RUN):
    proc = subprocess.run([sys.executable, str(run), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                                      "--trace", str(trace), "--smoke")
            label = f"{workload} trace={trace}"
            if code != 0 or not result or result.get("correct") is not True:
                failures.append(f"{label}: exit {code}, result {result}\n{err[-1500:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"] \
                        or not isinstance(got.get("value"), (int, float)):
                    failures.append(f"{label}: metric {metric['name']} emitted as {got}")
            if trace and "not found in cnot" in err:
                failures.append(f"{label}: tracer targets missing\n{err[-800:]}")

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        reference = json.loads(workloads.REFERENCE.read_text())
        reference["ladder"]["n1024"]["J"] *= 1.0 + 1e-6
        nudged = Path(tmp) / "reference.json"
        nudged.write_text(json.dumps(reference))
        code, result, _ = bench("--workload", "ladder", "--seed", "1", "--seconds", "1",
                                "--trace", "0", "--smoke", "--reference", str(nudged))
        if code == 0 or not result or result["correct"] or result["failed"] < 1:
            failures.append(f"nudged reference did not trip the gate: exit {code}, {result}")

        bare = Path(tmp) / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, result, _ = bench("--workload", "ladder", "--seed", "1", "--seconds", "1",
                                "--trace", "0", cwd=bare, run=bare / HERE.name / RUN.name)
        if code == 0 or result is not None:
            failures.append(f"bare directory: exit {code}, result {result}")

    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
