"""Print a digest of every benchmark solve, to show two checkouts solve bit for bit alike.

Solves the 150 corpus scenarios (``perfbench/workloads.corpus_raw``), the
four ladder rungs of the figure-1 physics (n = 1024 to 8192, m = 4n) and the
four shipped scenarios, each with its own solver parameters.  One line per
solve: its name, a sha256 prefix over the bytes of ``G`` and ``nu``,
``repr(J)``, the iteration count, ``converged``, ``stalled``, the stop
reason and the final projected-gradient norm (or the error a solve raised).
The last line digests all of them.

    python3 tools/solve_digest.py            # from the checkout to check

Run it in two checkouts and compare the last lines; ``diff`` the full
outputs to find the first solve that differs.  It takes a few seconds.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cnot  # noqa: E402
from cnot.cli import _bundle_from_raw  # noqa: E402
from workloads import LADDER_RUNGS, corpus_raw  # noqa: E402

SCENARIOS = ROOT / "scenarios"


def documents():
    """``(name, scenario document, base directory)`` for every solve."""
    for i, doc in enumerate(corpus_raw()):
        yield f"c{i:03d}", doc, SCENARIOS
    figure1 = json.loads((SCENARIOS / "figure1.json").read_text())
    for n in LADDER_RUNGS:
        yield f"n{n}", dict(figure1, grid_n=n, quantile_m=4 * n), SCENARIOS
    for path in sorted(SCENARIOS.glob("*.json")):
        yield path.stem, json.loads(path.read_text()), SCENARIOS


def digest_line(name: str, doc: dict, base_dir: Path) -> str:
    bundle = _bundle_from_raw(doc, base_dir)
    try:
        result = cnot.minimize_quantile(bundle.scenario, bundle.params)
    except (RuntimeError, ValueError) as exc:
        return f"{name} error {type(exc).__name__}"
    data = hashlib.sha256(result.G.values.tobytes() + result.nu.values.tobytes())
    return (
        f"{name} {data.hexdigest()[:16]} J={result.J_value!r} "
        f"iterations={result.iterations} converged={result.converged} "
        f"stalled={result.metadata['stalled']} stop={result.metadata['stop_reason']} "
        f"pg={result.metadata['projected_gradient']!r}"
    )


def main() -> int:
    overall = hashlib.sha256()
    for name, doc, base_dir in documents():
        line = digest_line(name, doc, base_dir)
        print(line)
        overall.update(line.encode() + b"\n")
    print(f"overall {overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
