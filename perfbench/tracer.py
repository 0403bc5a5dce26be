"""Outside-in span tracer for ``cnot``.

The tracer never edits the library.  It replaces each target function with a
timing wrapper in every ``cnot`` namespace that binds it: the package's
re-exports (``cnot.minimize_quantile``), the sibling-module imports
(``cnot.dynamics.minimize_quantile``) and the scipy functions as bound in
``cnot.solver`` (``isotonic_regression``, ``solveh_banded``).  Methods are
patched on their class.  A target that no longer exists is reported as
absent instead of failing the run.

Spans are kept in memory as ``(id, parent_id, name, start, end)`` and written
out when the run ends.  A span opened in a worker thread with an empty stack
(``cnot sweep`` solves in a thread pool) takes as parent the innermost span
open on the main thread, which is the ``cli.run`` that started the pool.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from time import perf_counter

PACKAGE = "cnot"

# layer.function as a user of the library names it; the module part is the
# cnot module whose namespace binds the function.
TARGETS = (
    "measures.quantile_to_density",
    "transport.c_transform",
    "transport.kantorovich_potential_1d",
    "transport.solve_lp",
    "verify.equilibrium_residual",
    "verify.purity_check",
    "verify.monge_ampere_residual_1d",
    "verify.displacement_convexity_probe",
    "verify.transport_derivative_check",
    "energy.first_variation",
    "energy.EnergyModel.interaction_field",
    "solver.minimize_quantile",
    "solver.isotonic_regression",
    "solver.solveh_banded",
    "dynamics.jko_flow",
    "welfare.cost_of_anarchy",
    "welfare.social_cost",
    "welfare.taxed_stationarity_residual",
    "cli.run",
)


def _solve_summary(result):
    return (int(result.iterations), bool(result.converged),
            bool(result.metadata.get("stalled", False)))


# return-value observers: what a span's result tells about the work done
OBSERVERS = {"solver.minimize_quantile": _solve_summary}


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self):
        self.spans = []
        self.returns = {}
        self.absent = []
        self.bindings = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, returns, ids = self.spans, self.returns, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if observe is not None:
                returns[sid] = observe(result)
            return result

        return traced

    def install(self):
        """Wrap every target; returns self.  Call ``uninstall`` to undo."""
        importlib.import_module(PACKAGE)
        for target in TARGETS:
            module_name, *path = target.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patch(owner, path[-1], original, wrapper)
                self.bindings[target] = 1
                continue
            count = 0
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == PACKAGE
                                          or mod_name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)
                        count += 1
            self.bindings[target] = count
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path):
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "columns": ["id", "parent", "name", "start", "end"],
            "spans": [[s[0], s[1], index[s[2]], s[3], s[4]] for s in self.spans],
            "returns": {str(k): v for k, v in self.returns.items()},
            "absent": self.absent,
            "bindings": self.bindings,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _covered(intervals, lo, hi):
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(tracer, passes):
    """Per-pass layer figures from the spans of ``passes`` traced passes.

    For every target: ``<target>.calls``, ``<target>.s`` (inclusive) and
    ``<target>.self_s`` (inclusive minus the time its child spans cover).
    Derived figures: ``solver.iterations``, ``solver.line_search.accept_ratio``
    (accepted Newton steps per line-search trial; each trial and each
    projected-gradient test costs one PAVA call, as does the initial
    projection) and ``dynamics.inner_certificate_s`` (certificates computed
    inside ``jko_flow``, whose results the flow discards).  Also returns the
    inclusive seconds of each top-level library span (the children of
    ``cli.run``, or the outermost spans when there is no CLI).
    """
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    out = {}
    for target in TARGETS:
        out[f"{target}.calls"] = 0
        out[f"{target}.s"] = 0.0
        out[f"{target}.self_s"] = 0.0
    for sid, _parent, name, start, end in spans:
        kids = children.get(sid, ())
        busy = _covered([(k[3], k[4]) for k in kids], start, end) if kids else 0.0
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += end - start - busy

    def has_ancestor(span, name):
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] == name:
                return True
            parent = by_id.get(parent[1])
        return False

    iterations = accepted = trials = 0
    for sid, (iters, converged, stalled) in tracer.returns.items():
        pava = sum(1 for k in children.get(sid, ()) if k[2] == "solver.isotonic_regression")
        iterations += iters
        accepted += iters - (1 if (converged or stalled) else 0)
        trials += max(0, pava - 1 - iters)
    out["solver.iterations"] = iterations
    out["solver.line_search.accept_ratio"] = accepted / trials if trials else 0.0
    out["dynamics.inner_certificate_s"] = sum(
        s[4] - s[3] for s in spans
        if s[2] == "verify.equilibrium_residual" and has_ancestor(s, "dynamics.jko_flow")
    )
    per_pass = {k: v / passes for k, v in out.items()
                if k != "solver.line_search.accept_ratio"}
    per_pass["solver.line_search.accept_ratio"] = out["solver.line_search.accept_ratio"]

    cli_ids = {s[0] for s in spans if s[2] == "cli.run"}
    top = {}
    for s in spans:
        if (s[1] in cli_ids) if cli_ids else (s[1] is None):
            top[s[2]] = top.get(s[2], 0.0) + (s[4] - s[3]) / passes
    return per_pass, top
