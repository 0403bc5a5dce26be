"""Traced memory peaks of one figure-1 solve, counted in quantile-sized arrays.

Builds the figure-1 physics at ``n`` cells with ``m = 4n`` quantile points and
measures with ``tracemalloc`` the peak memory each stage allocates above what
it started with, divided by ``8m`` bytes (one array of ``m`` floats): the
Newton loop (``solver._projected_newton``), the whole solve
(``minimize_quantile``: the loop, then binning the density) and the
certificate (``equilibrium_residual``).  Prints the seconds of an untraced
solve, each coarse level of its nested-iteration start (``m``, iterations,
converged), the three peaks against their bounds and the process's
``ru_maxrss``; exits 1 when the solve or one of its coarse levels does not
converge or a peak exceeds its bound.

    python3 tools/solve_peaks.py            # n = 65536, in a fresh process
    python3 tools/solve_peaks.py 262144     # m about 10^6
    python3 tools/solve_peaks.py 8192

The tier-1 suite checks the same bounds at a smaller size.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import cnot  # noqa: E402
from cnot.cli import _bundle_from_raw  # noqa: E402
from cnot.solver import _QuantileProblem, _projected_newton  # noqa: E402

# the most quantile-sized arrays each stage may hold at once
BOUNDS = {"newton": 12.0, "solve": 12.0, "certificate": 10.0}


def _traced(call):
    """``call()`` and the peak it allocates above its start, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def traced_peaks(n: int) -> dict:
    """Seconds of the figure-1 solve at ``n`` cells, and each stage's traced
    peak in arrays of ``8m`` bytes."""
    figure1 = json.loads((ROOT / "scenarios" / "figure1.json").read_text())
    bundle = _bundle_from_raw(dict(figure1, grid_n=n, quantile_m=4 * n), ROOT / "scenarios")
    scenario, params = bundle.scenario, bundle.params
    start = time.perf_counter()
    result = cnot.minimize_quantile(scenario, params)
    seconds = time.perf_counter() - start
    array = 8.0 * scenario.m
    newton = _traced(lambda: _projected_newton(_QuantileProblem(scenario), params))[1]
    solved, solve = _traced(lambda: cnot.minimize_quantile(scenario, params))
    certificate = _traced(lambda: cnot.equilibrium_residual(scenario, solved.nu))[1]
    return {
        "n": n,
        "m": scenario.m,
        "converged": result.converged,
        "levels": result.metadata["levels"],
        "solve_s": seconds,
        "newton": newton / array,
        "solve": solve / array,
        "certificate": certificate / array,
    }


def main(argv: list) -> int:
    n = int(argv[0]) if argv else 65536
    peaks = traced_peaks(n)
    print(f"figure-1 solve, n = {n}, m = {peaks['m']}: {peaks['solve_s']:.3f} s, "
          f"converged {peaks['converged']}")
    for level in peaks["levels"]:
        print(f"  coarse level m = {level['m']}: {level['iterations']} iterations, "
              f"converged {level['converged']}")
    over = []
    for stage, bound in BOUNDS.items():
        print(f"  {stage:12s} traced peak {peaks[stage]:6.2f} arrays of 8m bytes (bound {bound:g})")
        if peaks[stage] > bound:
            over.append(stage)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"  ru_maxrss {rss:.1f} MB")
    if over:
        print(f"traced peak over its bound: {', '.join(over)}", file=sys.stderr)
    unconverged = not peaks["converged"] or not all(level["converged"] for level in peaks["levels"])
    if unconverged:
        print("figure-1 solve or one of its coarse levels did not converge", file=sys.stderr)
    return 1 if over or unconverged else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
