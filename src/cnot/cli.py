"""Command-line pipeline: scenario files, subcommands, artifact emission.

Scenarios are JSON documents naming one member of each model family
(source measure, cost, congestion, kernel, potential) plus resolutions and
solver parameters.  Validation failures carry a JSON-pointer-style path.
Exit codes: 0 success, 1 validation error, 2 numerical failure (diagnostics
are still written).  All floats are emitted with 17 significant digits so
reruns are bit-identical on one platform.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .dynamics import JkoParams, jko_flow
from .energy import CongestionSpec, EnergyModel, InteractionKernel, PotentialSpec
from .measures import (
    SUPPORT_MODES,
    DiscreteDensity,
    Grid,
    Interval,
    density_from_values,
    gaussian_truncated_density,
    two_bumps_density,
    uniform_density,
)
from .solver import Scenario, SolverParams, _uniqueness_flags, minimize_quantile
from .transport import CostSpec
from .verify import (
    ResidualReport,
    displacement_convexity_probe,
    equilibrium_residual,
    monge_ampere_residual_1d,
    purity_check,
    transport_derivative_check,
)
from .welfare import cost_of_anarchy

__all__ = ["ScenarioError", "load_scenario", "run", "main"]

_CHECK_NAMES = ("eq", "purity", "ma", "dc", "deriv")
_SCENARIO_KEYS = frozenset({"interval", "grid_n", "quantile_m", "mu", "cost", "congestion",
                            "kernel", "potential", "support_mode", "solver", "seed"})
# the dotted paths whose schema type is integer; sweep parses their values with int
_INTEGER_FIELDS = frozenset({"grid_n", "quantile_m", "seed", "solver.max_iters"})


class ScenarioError(ValueError):
    """Validation failure with a JSON-pointer-style location."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


def _require(condition: bool, pointer: str, message: str) -> None:
    if not condition:
        raise ScenarioError(pointer, message)


def _get_section(raw: dict, key: str, pointer: str, default: Optional[dict] = None) -> dict:
    obj = raw.get(key, default)
    _require(obj is not None, pointer, "required section is missing")
    _require(isinstance(obj, dict), pointer, "must be a JSON object")
    return obj


def _is_finite_number(val) -> bool:
    """A finite float value: not NaN, not Infinity, not an integer too large."""
    try:
        return not isinstance(val, bool) and math.isfinite(val)
    except (TypeError, OverflowError):
        return False


def _number(obj: dict, key: str, pointer: str, default=None) -> float:
    val = obj.get(key, default)
    _require(val is not None, f"{pointer}/{key}", "required number is missing")
    _require(_is_finite_number(val), f"{pointer}/{key}", "must be a finite number")
    return float(val)


def _integer(obj: dict, key: str, pointer: str, default=None) -> int:
    val = obj.get(key, default)
    _require(val is not None, f"{pointer}/{key}", "required integer is missing")
    _require(isinstance(val, int) and not isinstance(val, bool),
             f"{pointer}/{key}", "must be an integer")
    return int(val)


def _check_keys(obj: dict, allowed: set, pointer: str) -> None:
    unknown = sorted(set(obj) - allowed)
    _require(not unknown, f"{pointer}/{unknown[0]}" if unknown else pointer,
             "unknown field")


def _kind(obj: dict, pointer: str, fields_by_kind: dict) -> str:
    """The section's ``kind``, one of the table's keys; the section may hold
    only ``kind`` and that kind's fields."""
    kind = obj.get("kind")
    _require(isinstance(kind, str) and kind in fields_by_kind, f"{pointer}/kind",
             "must be one of: " + ", ".join(fields_by_kind))
    _check_keys(obj, {"kind", *fields_by_kind[kind]}, pointer)
    return kind


def _load_density_file(path: Path, grid: Grid, pointer: str) -> DiscreteDensity:
    _require(path.is_file(), pointer, f"file not found: {path}")
    try:
        table = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=0)
    except ValueError:
        try:  # the first row may be a header
            table = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1)
        except ValueError as exc:
            raise ScenarioError(pointer, f"not a numeric CSV table: {exc}") from exc
    values = table[:, -1]
    _require(values.size == grid.n, pointer,
             f"expected {grid.n} rows (one per grid cell), got {values.size}")
    try:
        return density_from_values(grid, values)
    except ValueError as exc:
        raise ScenarioError(pointer, str(exc)) from exc


def _build_mu(raw: dict, grid: Grid, base_dir: Path) -> DiscreteDensity:
    obj = _get_section(raw, "mu", "/mu")
    kind = _kind(obj, "/mu", {"uniform": (), "gaussian_truncated": ("mean", "sigma"),
                              "table": ("path",)})
    if kind == "uniform":
        return uniform_density(grid)
    if kind == "gaussian_truncated":
        mean = _number(obj, "mean", "/mu")
        sigma = _number(obj, "sigma", "/mu")
        _require(sigma > 0, "/mu/sigma", "must be > 0")
        try:
            mu = gaussian_truncated_density(grid, mean, sigma)
        except ValueError:  # every cell underflows: no mass left to normalize
            mu = None
        _require(mu is not None and bool(np.all(mu.values > 0)), "/mu/sigma",
                 "resulting density is not strictly positive on the grid "
                 "(truncated tail underflows); widen sigma or shrink the interval")
        return mu
    path = obj.get("path")
    _require(isinstance(path, str), "/mu/path", "must be a file path string")
    mu = _load_density_file(base_dir / path, grid, "/mu/path")
    _require(bool(np.all(mu.values > 0)), "/mu/path",
             "table density must be strictly positive on every cell "
             "(the source measure must have full support on the interval)")
    return mu


def _build_cost(raw: dict) -> CostSpec:
    obj = _get_section(raw, "cost", "/cost", default={"kind": "quadratic"})
    if _kind(obj, "/cost", {"quadratic": (), "convex_difference": ("p",)}) == "quadratic":
        return CostSpec.quadratic()
    p = _number(obj, "p", "/cost")
    _require(p > 1.0, "/cost/p", "must be > 1")
    return CostSpec.power(p)


def _build_congestion(raw: dict) -> CongestionSpec:
    obj = _get_section(raw, "congestion", "/congestion")
    kind = _kind(obj, "/congestion", {"entropy": ("convention",), "power": ("alpha", "a")})
    if kind == "entropy":
        convention = obj.get("convention", "shifted")
        _require(convention in ("shifted", "plain"), "/congestion/convention",
                 "must be 'shifted' or 'plain'")
        return CongestionSpec.entropy(convention)
    alpha = _number(obj, "alpha", "/congestion")
    a = _number(obj, "a", "/congestion", default=1.0)
    _require(alpha > 0, "/congestion/alpha", "must be > 0")
    _require(a > 0, "/congestion/a", "must be > 0")
    return CongestionSpec.power(alpha, a)


def _build_kernel(raw: dict) -> Optional[InteractionKernel]:
    obj = _get_section(raw, "kernel", "/kernel", default={"kind": "none"})
    kind = _kind(obj, "/kernel", {"none": (), "quadratic_distance": ("kappa",),
                                  "cubic_distance": ("kappa",), "product": ("kappa",)})
    if kind == "none":
        return None
    # each family's constructor is named after its kind
    return getattr(InteractionKernel, kind)(_number(obj, "kappa", "/kernel"))


def _build_potential(raw: dict) -> Optional[PotentialSpec]:
    obj = _get_section(raw, "potential", "/potential", default={"kind": "none"})
    if _kind(obj, "/potential", {"none": (), "poly": ("coeffs", "declared_convex")}) == "none":
        return None
    coeffs = obj.get("coeffs")
    _require(isinstance(coeffs, list) and len(coeffs) > 0
             and all(_is_finite_number(c) for c in coeffs),
             "/potential/coeffs", "must be a non-empty list of finite numbers")
    declared = obj.get("declared_convex", False)
    _require(isinstance(declared, bool), "/potential/declared_convex", "must be a boolean")
    return PotentialSpec.poly(coeffs, declared_convex=declared)


def _build_solver_params(raw: dict) -> SolverParams:
    obj = _get_section(raw, "solver", "/solver", default={})
    _check_keys(obj, {"max_iters", "grad_tol"}, "/solver")
    defaults = SolverParams()
    max_iters = _integer(obj, "max_iters", "/solver", default=defaults.max_iters)
    grad_tol = _number(obj, "grad_tol", "/solver", default=defaults.grad_tol)
    _require(max_iters >= 1, "/solver/max_iters", "must be >= 1")
    _require(grad_tol > 0, "/solver/grad_tol", "must be > 0")
    return SolverParams(max_iters=max_iters, grad_tol=grad_tol)


@dataclass(frozen=True)
class _Bundle:
    """A loaded scenario with its solver parameters and provenance."""

    scenario: Scenario
    params: SolverParams
    seed: int
    raw: dict
    scenario_hash: str
    base_dir: Path  # relative paths in ``raw`` resolve against this directory

    def metadata(self) -> dict:
        return {
            "tool_version": __version__,
            "scenario_hash": self.scenario_hash,
            "congestion_kind": self.scenario.model.congestion.kind,
            "congestion_convention": self.scenario.model.congestion.convention,
            "support_mode": self.scenario.support_mode,
            "seed": self.seed,
        }


def _bundle_from_raw(raw: dict, base_dir: Path) -> _Bundle:
    """Validate a scenario document; relative paths resolve against ``base_dir``."""
    _require(isinstance(raw, dict), "/", "scenario file must contain a JSON object")
    _check_keys(raw, _SCENARIO_KEYS, "")
    iv_obj = _get_section(raw, "interval", "/interval")
    _check_keys(iv_obj, {"lo", "hi"}, "/interval")
    lo = _number(iv_obj, "lo", "/interval")
    hi = _number(iv_obj, "hi", "/interval")
    _require(hi > lo, "/interval/hi", "must be > lo")
    interval = Interval(lo, hi)

    grid_n = _integer(raw, "grid_n", "")
    _require(grid_n >= 2, "/grid_n", "must be >= 2")
    grid = Grid(interval, grid_n)
    quantile_m = _integer(raw, "quantile_m", "", default=8 * grid_n)
    _require(quantile_m >= 2, "/quantile_m", "must be >= 2")

    support_mode = raw.get("support_mode", "free")
    _require(support_mode in SUPPORT_MODES, "/support_mode",
             "must be " + " or ".join(map(repr, SUPPORT_MODES)))
    seed = _integer(raw, "seed", "", default=0)

    mu = _build_mu(raw, grid, base_dir)
    cost = _build_cost(raw)
    model = EnergyModel(
        grid=grid,
        congestion=_build_congestion(raw),
        kernel=_build_kernel(raw),
        potential=_build_potential(raw),
    )
    scenario = Scenario(mu=mu, cost=cost, model=model, m=quantile_m,
                        support_mode=support_mode)
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return _Bundle(scenario, _build_solver_params(raw), seed, raw,
                   hashlib.sha256(canonical.encode()).hexdigest(), base_dir)


def _load_bundle(path_str: str) -> _Bundle:
    path = Path(path_str)
    if not path.is_file():
        raise ScenarioError("/", f"scenario file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except UnicodeDecodeError as exc:
        raise ScenarioError("/", f"not a UTF-8 text file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError("/", f"invalid JSON: {exc}") from exc
    return _bundle_from_raw(raw, path.parent)


def load_scenario(path: str) -> Scenario:
    """Load and fully validate a scenario file (errors carry a field path)."""
    return _load_bundle(path).scenario


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _key_template(header: str, keys, values: int = 1) -> str:
    """The text of a CSV with one row per key and only the key column
    formatted (as ``%.17g``, which writes an integer key's digits):
    ``template % tuple(row_major_values)`` fills the ``values`` columns as
    ``%.17g``, so one template serves every set of values on the same keys.
    Every CSV is written through it."""
    keys = np.asarray(keys).tolist()
    return header + "\n" + (("%.17g" + ",%%.17g" * values + "\n") * len(keys)) % tuple(keys)


def _solution_templates(scenario: Scenario) -> tuple[str, str]:
    """The ``_key_template`` of ``equilibrium.csv`` (the grid nodes) and of
    ``quantile.csv`` (the ``m`` probabilities ``j/(m-1)``)."""
    return (_key_template("node,nu", scenario.grid.nodes),
            _key_template("p,G", np.linspace(0.0, 1.0, scenario.m)))


def _write_json(path: Path, payload: dict) -> None:
    """Numpy arrays and scalars are written as the Python values ``tolist`` gives."""
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               default=lambda obj: obj.tolist()) + "\n")


def _result_payload(result) -> dict:
    return {
        "J": result.J_value,
        "M": result.M,
        "residual_sup": result.residual_sup,
        "residual_eq": result.residual_eq,
        "iterations": result.iterations,
        "converged": result.converged,
        "projected_gradient": result.metadata["projected_gradient"],
        "stop_reason": result.metadata["stop_reason"],
        "stalled": result.metadata["stalled"],
        "coarse_levels": result.metadata["levels"],
        "m": result.scenario.m,
        "n": result.scenario.n,
    }


def _guarded(report: Path, payload: dict, step) -> int:
    """Run ``step()``, the one place a numerical failure is handled: a
    ``RuntimeError`` or a ``ValueError`` other than ``ScenarioError`` is
    written into ``payload`` under ``"error"``, saved to ``report`` and
    exits 2.  Validation errors pass through."""
    try:
        return step()
    except ScenarioError:
        raise
    except (RuntimeError, ValueError) as exc:
        payload["error"] = str(exc)
        _write_json(report, payload)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def _solve_into(out: Path, scenario: Scenario, params: SolverParams, diagnostics: dict,
                G0: Optional[np.ndarray] = None, templates: Optional[tuple[str, str]] = None):
    """Solve from ``G0`` (the source quantile when None) and write
    ``equilibrium.csv`` and ``quantile.csv`` through the scenario's
    ``_solution_templates`` (built after the solve when not given) and
    ``diagnostics.json`` (``diagnostics`` completed with the result);
    returns the result."""
    result = minimize_quantile(scenario, params, G0=G0)
    diagnostics.update(_result_payload(result))  # reads the certificate, which may raise
    nu_rows, G_rows = templates or _solution_templates(scenario)
    (out / "equilibrium.csv").write_text(nu_rows % tuple(result.nu.values.tolist()))
    (out / "quantile.csv").write_text(G_rows % tuple(result.G.values.tolist()))
    _write_json(out / "diagnostics.json", diagnostics)
    if not result.converged:
        print("solver did not converge; diagnostics written", file=sys.stderr)
    return result


def _cmd_solve(bundle: _Bundle, args, out: Path, payload: dict) -> int:
    """Solve the document with the flags applied as edits and validated."""
    edits = {"solver.max_iters": args.max_iters, "solver.grad_tol": args.tol,
             "support_mode": {"free": "free", "fixed": "fixed_endpoints"}.get(args.support)}
    edits = {path: value for path, value in edits.items() if value is not None}
    if edits:
        bundle = _bundle_from_raw(_edited_document(bundle, edits), bundle.base_dir)
        payload.update(bundle.metadata())
    result = _solve_into(out, bundle.scenario, bundle.params, payload)
    return 0 if result.converged else 2


def _initial_density(args, scenario: Scenario) -> DiscreteDensity:
    if args.init == "uniform":
        return uniform_density(scenario.grid)
    if args.init == "two_bumps":
        return two_bumps_density(scenario.grid)
    _require(args.init_file is not None, "/init",
             "--init file requires --init-file PATH")
    return _load_density_file(Path(args.init_file), scenario.grid, "/init-file")


def _cmd_jko(bundle: _Bundle, args, out: Path, payload: dict) -> int:
    _require(math.isfinite(args.tau) and args.tau > 0, "/tau", "must be a finite number > 0")
    _require(args.steps >= 1, "/steps", "must be >= 1")
    scenario = bundle.scenario
    nu0 = _initial_density(args, scenario)
    payload.update(tau=args.tau, steps=args.steps, init=args.init)
    params = JkoParams(tau=args.tau, steps=args.steps, inner=bundle.params)
    trajectory = jko_flow(scenario, nu0, params)
    points = trajectory.points
    (out / "trajectory.csv").write_text(
        _key_template("k,J,W2_step", [p.k for p in points], values=2)
        % tuple(v for p in points for v in (p.J_value, p.W2_step)))
    rows = _key_template("node,nu", scenario.grid.nodes)
    nu, text = None, ""
    for point in points:
        if point.nu is not nu:  # a repeated density is written, not formatted, again
            nu, text = point.nu, rows % tuple(point.nu.values.tolist())
        (out / f"density_{point.k:04d}.csv").write_text(text)
    payload.update(trajectory.diagnostics)
    _write_json(out / "diagnostics.json", payload)
    return 0


def _cmd_welfare(bundle: _Bundle, args, out: Path, payload: dict) -> int:
    report = cost_of_anarchy(bundle.scenario, bundle.params)
    payload.update({key: value for key, value in vars(report).items()
                    if key not in ("tax_paper", "tax_marginal")})  # those go to taxes.csv
    _write_json(out / "welfare.json", payload)
    (out / "taxes.csv").write_text(
        _key_template("node,tax_paper,tax_marginal", bundle.scenario.grid.nodes, values=2)
        % tuple(np.column_stack((report.tax_paper, report.tax_marginal)).ravel().tolist()))
    if not (report.converged_equilibrium and report.converged_optimum):
        print("a welfare solve did not converge; report written", file=sys.stderr)
        return 2
    return 0


def _run_check(name: str, bundle: _Bundle, nu: DiscreteDensity,
               certificate: Optional[ResidualReport]) -> dict:
    scenario = bundle.scenario
    if name == "eq":
        rep = certificate if certificate is not None else equilibrium_residual(scenario, nu)
        return {"residual_sup": rep.residual_sup, "residual_eq": rep.residual_eq,
                "M": rep.M, "epsilon": rep.epsilon}
    if name == "purity":
        rep = purity_check(scenario, nu)
        # "monotone_value" repeats lp_value: perfbench/workloads.py and CI's purity
        # steps read it, so it goes only with ROADMAP direction 10's benchmark change.
        return {**vars(rep), "monotone_value": rep.lp_value}
    if name == "ma":
        return {"residual": monge_ampere_residual_1d(scenario, nu)}
    rng = np.random.default_rng(bundle.seed)
    if name == "dc":
        nu_a = density_from_values(scenario.grid, rng.uniform(0.2, 1.8, scenario.n))
        nu_b = density_from_values(scenario.grid, rng.uniform(0.2, 1.8, scenario.n))
        rep = displacement_convexity_probe(scenario, nu_a, nu_b)
        return {"max_violation": rep.max_violation,
                "midpoint_margin": rep.midpoint_margin,
                "J_a": rep.J_a, "J_b": rep.J_b}
    rho = density_from_values(scenario.grid, rng.uniform(0.2, 1.8, scenario.n))
    return vars(transport_derivative_check(scenario.mu, nu, rho, scenario.cost,
                                           m=scenario.m))


def _cmd_verify(bundle: _Bundle, args, out: Path, payload: dict) -> int:
    names = [c.strip() for c in args.checks.split(",") if c.strip()]
    for name in names:
        _require(name in _CHECK_NAMES, "/checks",
                 f"unknown check {name!r}; choose from {', '.join(_CHECK_NAMES)}")
    payload["checks"] = names
    failed = False
    certificate = None  # the solve's certificate, reused by the eq check
    if args.density is not None:
        nu = _load_density_file(Path(args.density), bundle.scenario.grid, "/density")
        payload["density_source"] = "file"
    else:
        result = minimize_quantile(bundle.scenario, bundle.params)
        nu = result.nu
        payload["density_source"] = "solved"
        payload["solver"] = _result_payload(result)
        certificate = result.certificate
        failed = not result.converged
    results = {}
    for name in names:
        try:
            results[name] = _run_check(name, bundle, nu, certificate)
        except ValueError as exc:
            results[name] = {"status": "inapplicable", "detail": str(exc)}
        except RuntimeError as exc:
            results[name] = {"status": "failed", "detail": str(exc)}
            failed = True
    payload["results"] = results
    _write_json(out / "verify.json", payload)
    if failed:
        print("verification encountered a numerical failure; see verify.json",
              file=sys.stderr)
        return 2
    return 0


def _set_path(raw: dict, dotted: str, value) -> None:
    """Set one field of a scenario document by its dotted path; a top-level
    section the schema allows but the document omits is created empty."""
    keys = dotted.split(".")
    _require(keys[0] in _SCENARIO_KEYS, "/param",
             f"path segment {keys[0]!r} is not a scenario field")
    if len(keys) > 1:
        raw.setdefault(keys[0], {})
    obj = raw
    for key in keys[:-1]:
        _require(isinstance(obj, dict) and key in obj, "/param",
                 f"path segment {key!r} not present in the scenario")
        obj = obj[key]
    _require(isinstance(obj, dict), "/param", "path does not lead to an object field")
    obj[keys[-1]] = value


def _edited_document(bundle: _Bundle, edits: dict) -> dict:
    """An unvalidated copy of the bundle's document with the dotted-path edits
    applied and a ``mu`` table path made absolute, so the copy stands alone."""
    raw = copy.deepcopy(bundle.raw)
    for dotted, value in edits.items():
        _set_path(raw, dotted, value)
    mu = raw.get("mu")
    if isinstance(mu, dict) and mu.get("kind") == "table" and isinstance(mu.get("path"), str):
        mu["path"] = str((bundle.base_dir / mu["path"]).resolve())
    return raw


def _continues(previous: Scenario, scenario: Scenario) -> bool:
    """Whether a solve of ``scenario`` may start from the converged quantile
    of ``previous``: both share the grid, ``m`` and the support mode, and
    ``scenario`` is inside the uniqueness regime (``_uniqueness_flags`` is
    empty), where every start reaches the one equilibrium."""
    return (previous.grid == scenario.grid and previous.m == scenario.m
            and previous.support_mode == scenario.support_mode
            and not _uniqueness_flags(scenario))


def _cmd_sweep(bundle: _Bundle, args, out: Path, payload: dict) -> int:
    """Solve each value in turn, one run directory each; a run's numerical
    failure is recorded in that run's diagnostics.  A run starts from the
    previous run's converged quantile when ``_continues`` allows it, and
    from the source quantile, as ``solve`` would, otherwise; its
    ``diagnostics.json`` records which under ``warm_start``.  Each run's
    ``scenario.json`` stands alone: a ``mu`` table path is written absolute,
    and the run's bundle is the one ``solve`` loads from that file.  Values
    are parsed as the schema type of the field they set: integers for
    ``_INTEGER_FIELDS``, floats otherwise."""
    integer = args.param in _INTEGER_FIELDS
    try:
        values = [(int if integer else float)(v)
                  for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ScenarioError("/values", "must be comma-separated "
                            + ("integers" if integer else "numbers")) from exc
    _require(len(values) > 0, "/values", "needs at least one value")
    leaf = args.param.split(".")[-1]
    runs = []
    for i, value in enumerate(values):
        raw = _edited_document(bundle, {args.param: value})
        run_dir = out / f"run_{i:03d}_{leaf}_{value:g}"
        run_dir.mkdir(parents=True, exist_ok=True)
        _write_json(run_dir / "scenario.json", raw)
        runs.append((value, run_dir, raw))
    # every run is validated before the first one is solved
    runs = [(value, run_dir, _bundle_from_raw(raw, run_dir))
            for value, run_dir, raw in runs]

    lines = ["value,directory,exit_code,J,M,residual_sup,residual_eq,converged"]
    worst = 0
    previous = None  # the last run's result, kept only when that run exited 0
    templates = {}  # the CSV templates of the last run's grid and m
    for value, run_dir, run in runs:
        scenario = run.scenario
        resolution = (scenario.grid, scenario.m)
        if resolution not in templates:
            templates = {resolution: _solution_templates(scenario)}
        warm = previous is not None and _continues(previous.scenario, scenario)
        G0 = previous.G.values if warm else None
        diag = {"command": "solve", **run.metadata(), "warm_start": warm}
        solved = []

        def solve_run() -> int:  # called at once, inside this iteration
            solved.append(_solve_into(run_dir, scenario, run.params, diag, G0,
                                      templates[resolution]))
            return 0 if solved[0].converged else 2

        code = _guarded(run_dir / "diagnostics.json", diag, solve_run)
        previous = solved[0] if code == 0 else None
        worst = max(worst, code)
        lines.append(",".join([
            _fmt(value), run_dir.name, str(code),
            *(_fmt(diag.get(key, float("nan")))
              for key in ("J", "M", "residual_sup", "residual_eq")),
            str(diag.get("converged", False)),
        ]))
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    return worst


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit code 1
        raise ScenarioError("/args", message)


@cache  # a parse leaves the parser as it was, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="cnot", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default="out", help="output directory")

    p_solve = sub.add_parser("solve", help="compute the equilibrium")
    common(p_solve)
    p_solve.add_argument("--max-iters", type=int, default=None)
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.add_argument("--support", choices=("free", "fixed"), default=None)

    p_jko = sub.add_parser("jko", help="run the minimizing-movement flow")
    common(p_jko)
    p_jko.add_argument("--tau", type=float, default=0.1)
    p_jko.add_argument("--steps", type=int, default=10)
    p_jko.add_argument("--init", choices=("uniform", "two_bumps", "file"),
                       default="uniform")
    p_jko.add_argument("--init-file", default=None)

    p_welfare = sub.add_parser("welfare", help="social cost, taxes, cost of anarchy")
    common(p_welfare)

    p_verify = sub.add_parser("verify", help="independent equilibrium checks")
    common(p_verify)
    p_verify.add_argument("--density", default=None,
                          help="density CSV to verify (defaults to solving first)")
    p_verify.add_argument("--checks", default="eq,purity,dc,deriv",
                          help=f"comma-separated subset of {','.join(_CHECK_NAMES)}")

    p_sweep = sub.add_parser("sweep", help="solve across one parameter's values")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help="dotted path into the scenario, e.g. kernel.kappa")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numbers (integers for an integer field)")
    return parser


# each command with the JSON report its numerical failure is written to;
# sweep has none, it guards each of its runs
_COMMANDS = {
    "solve": (_cmd_solve, "diagnostics.json"),
    "jko": (_cmd_jko, "diagnostics.json"),
    "welfare": (_cmd_welfare, "welfare.json"),
    "verify": (_cmd_verify, "verify.json"),
    "sweep": (_cmd_sweep, None),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ScenarioError("/args", "a command is required "
                                "(solve, jko, welfare, verify, sweep)")
        bundle = _load_bundle(args.scenario)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        command, report = _COMMANDS[args.command]
        payload = {"command": args.command, **bundle.metadata()}
        step = partial(command, bundle, args, out, payload)
        return step() if report is None else _guarded(out / report, payload, step)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(command: str, args: list) -> int:
    """Programmatic entry point: dispatch one command with its argument list."""
    return main([command] + list(args))


if __name__ == "__main__":
    sys.exit(main())
