"""Record the reference outputs that the benchmark checks every task against.

    python3 perfbench/record_reference.py

Runs every task of every workload once, in this process, and rewrites
``perfbench/reference.json``.  Run it only on the commit whose outputs are
the reference (the committed file was recorded on the commit that added the
benchmark); a later commit is checked against that file, never re-recorded
to make a miss go away.
"""
from __future__ import annotations

import json
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

KEEP = {
    "ladder": ("J", "M", "iterations", "converged"),
    "corpus": ("digest", "J", "iterations", "converged", "error"),
}


def main():
    cnot = workloads.import_cnot()
    warnings.simplefilter("ignore")
    reference = {"corpus": {}}
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        for name in workloads.WORKLOADS:
            tasks = workloads.build(cnot, name, 0, Path(tmp), False, reference)
            entries = {}
            for task in sorted(tasks, key=lambda t: t.key):
                _, outcome = task.run()
                keep = KEEP.get(name)
                entries[task.key] = ({k: v for k, v in outcome.items() if k in keep}
                                     if keep else outcome)
                print(name, task.key, json.dumps(entries[task.key]), file=sys.stderr)
            reference[name] = entries
    reference["meta"] = {
        "corpus_seed": workloads.CORPUS_SEED,
        "versions": {"python": sys.version.split()[0],
                     "numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__},
    }
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
