"""Check that the solver respects the game's symmetries on the benchmark corpus.

Solves each of the 150 corpus scenarios (``perfbench/workloads.corpus_raw``)
and its reflection ``y -> -y``: the interval ``[lo, hi]`` becomes
``[-hi, -lo]`` and the source's mean is negated.  Next to the corpus it
solves one wide-interval game, ``WIDE``: a quadratic cost and entropy with
the source N(0, 0.5^2) on [-6, 6], whose upper tail is lighter than the
source's cumulative sum resolves, so its quantile's two ends are rounded
differently unless both read the support's ends.  The costs are even
and the kernels (``|y - z|^2``, ``|y - z|^3``, ``y z``) reflection
invariant, so the reflected equilibrium is the mirrored one,
``G'(p) = -G(1 - p)``, at the same objective value.  Scenarios without a
product kernel (which is not translation invariant) are also solved shifted
by +10 and by +1000, where ``G' = G + s``.

For each transform it prints the pairs whose flags (``converged``,
``stalled``) differ, the largest ``max |G' - T(G)| / L`` over the pairs in
which both solves converge, and the largest ``|J' - J| / max(1, |J|)``.  It
exits 1 on any flag flip, or on a converged pair more than ``1e-8 L`` apart
in ``G``.

    python3 tools/symmetry_check.py            # from the checkout to check

It takes a few seconds.
"""
from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cnot  # noqa: E402
from cnot.cli import _bundle_from_raw  # noqa: E402
from workloads import corpus_raw  # noqa: E402

SCENARIOS = ROOT / "scenarios"
G_TOL = 1e-8  # in units of the interval length L
WIDE = {
    "interval": {"lo": -6.0, "hi": 6.0}, "grid_n": 256, "quantile_m": 1024,
    "mu": {"kind": "gaussian_truncated", "mean": 0.0, "sigma": 0.5},
    "cost": {"kind": "quadratic"}, "congestion": {"kind": "entropy", "convention": "shifted"},
    "kernel": {"kind": "none"}, "potential": {"kind": "none"}, "support_mode": "free",
    "solver": {"grad_tol": 1e-8},
}


def solve(doc: dict):
    """``(G values, J, converged, stalled)`` of ``doc``, or None when the solve raises."""
    bundle = _bundle_from_raw(doc, SCENARIOS)
    try:
        result = cnot.minimize_quantile(bundle.scenario, bundle.params)
    except (RuntimeError, ValueError):
        return None
    return result.G.values, result.J_value, result.converged, result.metadata["stalled"]


def reflected(doc: dict) -> dict:
    out = copy.deepcopy(doc)
    lo, hi = doc["interval"]["lo"], doc["interval"]["hi"]
    out["interval"] = {"lo": -hi, "hi": -lo}
    out["mu"]["mean"] = -doc["mu"]["mean"]
    return out


def shifted(doc: dict, s: float) -> dict:
    out = copy.deepcopy(doc)
    out["interval"] = {"lo": doc["interval"]["lo"] + s, "hi": doc["interval"]["hi"] + s}
    out["mu"]["mean"] = doc["mu"]["mean"] + s
    return out


def check(name: str, pairs: list) -> bool:
    """Print the report of one transform; ``pairs`` holds ``(key, L, base,
    image, map)`` with ``map`` taking the base ``G`` to the expected image."""
    flips, dG, dJ = [], (0.0, None), (0.0, None)
    for key, length, base, image, expected in pairs:
        flags = [None if r is None else r[2:] for r in (base, image)]
        if flags[0] != flags[1]:
            flips.append(f"{key} {flags[0]} -> {flags[1]}")
            continue
        if base is None:
            continue
        J_rel = abs(image[1] - base[1]) / max(1.0, abs(base[1]))
        dJ = max(dJ, (J_rel, key), key=lambda t: t[0])
        if base[2] and image[2]:
            G_rel = float(np.max(np.abs(image[0] - expected(base[0])))) / length
            dG = max(dG, (G_rel, key), key=lambda t: t[0])
    print(f"{name}: {len(pairs)} pairs, {len(flips)} flag flips, "
          f"max |dG|/L {dG[0]:.2e} ({dG[1]}), max |dJ|/max(1,|J|) {dJ[0]:.2e} ({dJ[1]})")
    for flip in flips:
        print(f"  flip {flip}")
    return not flips and dG[0] <= G_TOL


def main() -> int:
    docs = {f"c{i:03d}": doc for i, doc in enumerate(corpus_raw())}
    docs["wide"] = WIDE
    base = {key: solve(doc) for key, doc in docs.items()}

    def length(doc: dict) -> float:
        return doc["interval"]["hi"] - doc["interval"]["lo"]

    ok = check("reflection", [
        (key, length(doc), base[key], solve(reflected(doc)), lambda G: -G[::-1])
        for key, doc in docs.items()
    ])
    for s in (10.0, 1000.0):
        ok &= check(f"shift +{s:g}", [
            (key, length(doc), base[key], solve(shifted(doc, s)), lambda G, s=s: G + s)
            for key, doc in docs.items() if doc["kernel"]["kind"] != "product"
        ])
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
