"""The three benchmark workloads and their correctness gate.

Each workload is a list of tasks.  A task times one call into ``cnot``'s
public API (``cnot.minimize_quantile``, ``cnot.equilibrium_residual`` or
``cnot.cli.run``) and returns what the call produced, which ``check``
compares with the reference outputs recorded on the commit that added the
benchmark (``reference.json``).  Functions are looked up on their module at call
time, so the tracer's wrappers are seen when they are installed.

Why each workload exists (see README.md for the layer predictions):

* ``ladder``  - one large solve per rung of the figure-1 physics, n = 1024 to
  8192 with m = 4n.  Cost sits in post-processing: quantile-to-density
  binning and the dense c-transform, both O(n m) or O(n^2) in memory.
* ``corpus``  - 150 small random scenarios.  Cost sits in the Newton loop,
  and this is the only workload whose solves stall, so it is where
  robustness work shows.
* ``pipeline`` - every CLI subcommand on the three smaller shipped
  scenarios.  The only workload that reaches the LP oracle, welfare, JKO
  dynamics and artifact writing.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("ladder", "corpus", "pipeline")

LADDER_RUNGS = (1024, 2048, 4096, 8192)
FIGURE1_N = 4096
CORPUS_SEED = 7
CORPUS_SIZE = 150
PIPELINE_SCENARIOS = ("uniform", "congested_gaussian", "cubic_attraction")
# `ma` needs entropy congestion, quadratic cost and no external potential;
# cubic_attraction has a potential, so the check does not apply there.
VERIFY_CHECKS = {
    "uniform": "eq,purity,ma,dc,deriv",
    "congested_gaussian": "eq,purity,ma,dc,deriv",
    "cubic_attraction": "eq,purity,dc,deriv",
}
JKO_ARGS = ["--tau", "0.1", "--steps", "20", "--init", "two_bumps"]
# sweep only where the scenario has a kernel: on `uniform` kernel.kappa is
# invalid input (exit code 1), which is validation, not work.
SWEEP_ARGS = ["--param", "kernel.kappa", "--values", "0.5,1,2,4"]
SWEEP_SCENARIOS = ("congested_gaussian", "cubic_attraction")

# the untimed warm-up task: the cheapest that reaches the workload's layers
WARM_UP = {"ladder": "n1024", "corpus": "c000", "pipeline": "uniform/verify"}

# smoke mode (harness self-test): the smallest slice of each workload
SMOKE_CORPUS_TASKS = 12
SMOKE_PIPELINE_SCENARIO = "congested_gaussian"

# a converged corpus/ladder solve is uncertified past this residual
UNCERTIFIED_EQ = 0.1
J_RTOL = 1e-8
REPORT_RTOL = 1e-7
M_ATOL = 1e-6


def import_cnot():
    """Import ``cnot`` from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cnot
    import cnot.cli

    origin = Path(cnot.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"cnot imported from {origin}, not from {SRC}")
    return cnot


def _num(x):
    """JSON-safe float: non-finite values become strings."""
    x = float(x)
    return x if math.isfinite(x) else repr(x)


def _close(a, b, rtol):
    return abs(float(a) - float(b)) <= rtol * max(1.0, abs(float(b)))


class Task:
    """One closed-loop request: ``run()`` returns ``(seconds, outcome)``."""

    def __init__(self, key, label, run):
        self.key = key
        self.label = label
        self.run = run


# ---------------------------------------------------------------- ladder


def _solve_outcome(result):
    return {
        "J": _num(result.J_value),
        "M": _num(result.M),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "residual_eq": _num(result.residual_eq),
        "residual_sup": _num(result.residual_sup),
    }


def _ladder_tasks(cnot, tmp, smoke):
    figure1 = json.loads((SCENARIOS / "figure1.json").read_text())
    params = cnot.SolverParams(**figure1["solver"])
    tasks = []
    for n in LADDER_RUNGS[:1] if smoke else LADDER_RUNGS:
        if n == FIGURE1_N:
            path = SCENARIOS / "figure1.json"
        else:
            path = tmp / f"ladder_n{n}.json"
            path.write_text(json.dumps(dict(figure1, grid_n=n, quantile_m=4 * n)))
        scenario = cnot.cli.load_scenario(str(path))

        def run(scenario=scenario):
            start = perf_counter()
            result = cnot.minimize_quantile(scenario, params)
            seconds = perf_counter() - start
            return seconds, _solve_outcome(result)

        tasks.append(Task(f"n{n}", f"n{n}", run))
    return tasks


def _check_ladder(out, ref):
    problems = []
    if not out.get("converged"):
        problems.append("did not converge")
    if not _close(out["J"], ref["J"], J_RTOL):
        problems.append(f"J {out['J']!r} != {ref['J']!r}")
    if abs(float(out["M"]) - float(ref["M"])) > M_ATOL:
        problems.append(f"M {out['M']!r} != {ref['M']!r}")
    if out["iterations"] > ref["iterations"]:
        problems.append(f"iterations {out['iterations']} > {ref['iterations']}")
    return problems


# ---------------------------------------------------------------- corpus


def corpus_raw(seed=CORPUS_SEED, count=CORPUS_SIZE):
    """The ROADMAP corpus recipe: ``count`` scenario documents from ``seed``."""
    import numpy as np

    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(count):
        lo = float(rng.uniform(-5.0, 5.0))
        length = float(10.0 ** rng.uniform(-1.0, 1.0))
        n = int(rng.choice([16, 32, 64, 128]))
        m = n * int(rng.choice([1, 2, 8]))
        mu = {"kind": "gaussian_truncated",
              "mean": lo + length * float(rng.uniform(0.2, 0.8)),
              "sigma": length * float(rng.uniform(0.1, 0.5))}
        if rng.uniform() < 0.5:
            cost = {"kind": "quadratic"}
        else:
            cost = {"kind": "convex_difference", "p": float(rng.uniform(1.2, 4.0))}
        if rng.uniform() < 0.5:
            congestion = {"kind": "entropy", "convention": "shifted"}
        else:
            congestion = {"kind": "power", "alpha": float(rng.uniform(0.3, 8.0)),
                          "a": float(10.0 ** rng.uniform(-2.0, 1.0))}
        kind = str(rng.choice(["none", "quadratic_distance", "cubic_distance", "product"]))
        kernel = {"kind": kind}
        if kind != "none":
            kernel["kappa"] = float(rng.uniform(-1.0, 4.0))
        docs.append({
            "interval": {"lo": lo, "hi": lo + length},
            "grid_n": n,
            "quantile_m": m,
            "mu": mu,
            "cost": cost,
            "congestion": congestion,
            "kernel": kernel,
            "potential": {"kind": "none"},
            "support_mode": str(rng.choice(["free", "fixed_endpoints"])),
            "solver": {"grad_tol": 1e-8},
            "seed": 0,
        })
    return docs


def _corpus_digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _corpus_tasks(cnot, tmp, smoke, reference):
    docs = corpus_raw()
    keys = [f"c{i:03d}" for i in range(len(docs))]
    if smoke:
        # the quickest slice: tasks that needed few iterations at the reference
        quick = [k for k in keys if reference[k].get("iterations", 0) <= 50]
        keys = quick[:SMOKE_CORPUS_TASKS]
    tasks = []
    for key in keys:
        doc = docs[int(key[1:])]
        path = tmp / f"corpus_{key}.json"
        path.write_text(json.dumps(doc))
        scenario = cnot.cli.load_scenario(str(path))
        params = cnot.SolverParams(**doc["solver"])

        def run(scenario=scenario, params=params, digest=_corpus_digest(doc)):
            start = perf_counter()
            try:
                result = cnot.minimize_quantile(scenario, params)
                report = cnot.equilibrium_residual(scenario, result.nu)
            except (RuntimeError, ValueError) as exc:
                seconds = perf_counter() - start
                return seconds, {"digest": digest, "error": type(exc).__name__}
            seconds = perf_counter() - start
            return seconds, {
                "digest": digest,
                "J": _num(result.J_value),
                "iterations": int(result.iterations),
                "converged": bool(result.converged),
                "residual_eq": _num(report.residual_eq),
                "residual_sup": _num(report.residual_sup),
            }

        tasks.append(Task(key, "corpus", run))
    return tasks


def _check_corpus(out, ref):
    if out["digest"] != ref["digest"]:
        return ["scenario differs from the one the reference was recorded on"]
    if "error" in out:
        return [] if "error" in ref else [f"raised {out['error']}"]
    if ref.get("converged"):
        if not out["converged"]:
            return ["converged at the reference commit, not now"]
        if not _close(out["J"], ref["J"], REPORT_RTOL):
            return [f"J {out['J']!r} != {ref['J']!r}"]
    elif out["converged"] and "J" in ref:
        if float(out["J"]) > float(ref["J"]) + REPORT_RTOL * max(1.0, abs(float(ref["J"]))):
            return [f"newly converged with higher J {out['J']!r} > {ref['J']!r}"]
    return []


# ---------------------------------------------------------------- pipeline


def _read_json(path):
    return json.loads(path.read_text()) if path.exists() else {}


def _pipeline_outcome(command, out):
    if command == "solve":
        d = _read_json(out / "diagnostics.json")
        return {k: d[k] for k in ("J", "M", "iterations", "converged",
                                  "residual_eq", "residual_sup") if k in d}
    if command == "verify":
        d = _read_json(out / "verify.json")
        res = d.get("results", {})
        purity, dc = res.get("purity", {}), res.get("dc", {})
        return {
            "J": d.get("solver", {}).get("J"),
            "statuses": {k: v.get("status", "ok") for k, v in sorted(res.items())},
            "pure": purity.get("pure"),
            "lp_value": purity.get("lp_value"),
            "monotone_value": purity.get("monotone_value"),
            "J_a": dc.get("J_a"),
            "J_b": dc.get("J_b"),
        }
    if command == "welfare":
        d = _read_json(out / "welfare.json")
        return {k: d.get(k) for k in ("sc_equilibrium", "sc_optimum", "cost_of_anarchy")}
    if command == "jko":
        d = _read_json(out / "diagnostics.json")
        trajectory = out / "trajectory.csv"
        lines = trajectory.read_text().split() if trajectory.exists() else []
        return {
            "J_final": float(lines[-1].split(",")[1]) if len(lines) > 1 else None,
            "direct_J": d.get("direct_J"),
            "densities": len(list(out.glob("density_*.csv"))),
        }
    summary = out / "summary.csv"
    rows = summary.read_text().split()[1:] if summary.exists() else []
    return {"J": [float(r.split(",")[3]) for r in rows],
            "converged": [r.split(",")[7] == "True" for r in rows]}


def _pipeline_tasks(cnot, tmp, smoke):
    names = (SMOKE_PIPELINE_SCENARIO,) if smoke else PIPELINE_SCENARIOS
    tasks = []
    for name in names:
        scenario = str(SCENARIOS / f"{name}.json")
        commands = [("solve", []), ("verify", ["--checks", VERIFY_CHECKS[name]]),
                    ("welfare", []), ("jko", JKO_ARGS)]
        if name in SWEEP_SCENARIOS:
            commands.append(("sweep", SWEEP_ARGS))
        for command, extra in commands:
            out = tmp / f"cli_{name}_{command}"
            argv = ["--scenario", scenario, "--out", str(out)] + extra

            def run(command=command, argv=argv, out=out):
                shutil.rmtree(out, ignore_errors=True)
                start = perf_counter()
                code = cnot.cli.run(command, argv)
                seconds = perf_counter() - start
                outcome = _pipeline_outcome(command, out)
                outcome["exit"] = int(code)
                outcome["bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
                shutil.rmtree(out, ignore_errors=True)
                return seconds, outcome

            tasks.append(Task(f"{name}/{command}", command, run))
    return tasks


def _same(a, b):
    if isinstance(b, float) and isinstance(a, (int, float)) and not isinstance(a, bool):
        return _close(a, b, REPORT_RTOL)
    if isinstance(b, list) and isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _check_pipeline(out, ref):
    if out["exit"] != ref["exit"]:
        return [f"exit code {out['exit']} != {ref['exit']}"]
    problems = []
    for key, want in ref.items():
        if key in ("exit", "bytes", "M", "residual_eq", "residual_sup"):
            continue  # certificate numbers may legitimately improve
        if key == "iterations":
            if out.get(key, math.inf) > want:
                problems.append(f"iterations {out.get(key)} > {want}")
        elif not _same(out.get(key), want):
            problems.append(f"{key} {out.get(key)!r} != {want!r}")
    return problems


# ---------------------------------------------------------------- shared


def build(cnot, workload, seed, tmp, smoke, reference):
    """Tasks of ``workload`` in the order ``seed`` gives them."""
    if workload == "ladder":
        tasks = _ladder_tasks(cnot, tmp, smoke)
    elif workload == "corpus":
        tasks = _corpus_tasks(cnot, tmp, smoke, reference["corpus"])
    elif workload == "pipeline":
        tasks = _pipeline_tasks(cnot, tmp, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(tasks)
    return tasks


CHECKS = {"ladder": _check_ladder, "corpus": _check_corpus, "pipeline": _check_pipeline}


def check(workload, task, outcome, reference):
    """Problems with ``outcome`` against the recorded reference (empty: pass)."""
    ref = reference[workload].get(task.key)
    if ref is None:
        return [f"no reference for {task.key}"]
    return CHECKS[workload](outcome, ref)


def did_not_succeed(outcome):
    """A task that raised, exited non-zero or returned ``converged=False``."""
    converged = outcome.get("converged", True)
    if isinstance(converged, list):  # sweep: one flag per value
        converged = all(converged)
    return "error" in outcome or outcome.get("exit", 0) != 0 or converged is False


def uncertified(outcome):
    """A converged solve whose certificate fails the ROADMAP corpus rule."""
    if outcome.get("converged") is not True or "residual_eq" not in outcome:
        return None
    eq, sup = float(outcome["residual_eq"]), float(outcome["residual_sup"])
    return eq > UNCERTIFIED_EQ or not math.isfinite(sup)
