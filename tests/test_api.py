"""The package's public surface: every exported name exists, and the
top-level namespace re-exports exactly the submodules' public names."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import cnot

SUBMODULES = ("measures", "transport", "energy", "solver", "dynamics", "welfare", "verify")


def test_submodule_exports_resolve():
    """Each name a submodule lists in ``__all__`` is bound in that module."""
    for name in SUBMODULES + ("cli",):
        module = importlib.import_module(f"cnot.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"cnot.{name}.__all__ lists unbound names {missing}"
        assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_are_the_submodule_exports():
    """``cnot.__all__`` is the union of the library submodules' ``__all__``
    (the CLI stays out of the package namespace) plus ``__version__``, and
    each name is bound to its submodule's object: no re-export shadows
    another."""
    expected = {"__version__"}
    for name in SUBMODULES:
        module = importlib.import_module(f"cnot.{name}")
        expected.update(module.__all__)
        for attr in module.__all__:
            assert getattr(cnot, attr) is getattr(module, attr), f"cnot.{attr}"
    assert set(cnot.__all__) == expected
    assert len(set(cnot.__all__)) == len(cnot.__all__)
    for attr in cnot.__all__:
        assert hasattr(cnot, attr), attr


LAZY_PROBE = """
import json, sys
import numpy as np
import cnot, cnot.cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith(("scipy.optimize", "scipy.sparse")))

before, linalg = loaded(), "scipy.linalg" in sys.modules
grid = cnot.Grid(cnot.Interval(0.0, 1.0), 16)
result = cnot.minimize_quantile(cnot.Scenario(
    mu=cnot.uniform_density(grid), cost=cnot.CostSpec.quadratic(),
    model=cnot.EnergyModel(grid=grid, congestion=cnot.CongestionSpec.entropy()), m=32))
solved, linalg_solved = result.converged, "scipy.linalg" in sys.modules
x = np.array([0.0, 1.0])
plan, _, value = cnot.solve_lp(np.array([0.5, 0.5]), x, np.array([0.5, 0.5]), x,
                               cost_matrix=(x[:, None] - x[None, :]) ** 2)
after = loaded()
import scipy.linalg.lapack
print(json.dumps({"before": before, "linalg": linalg, "solved": solved,
                  "linalg_solved": linalg_solved, "after": after,
                  "same_dptsv": scipy.linalg.lapack.dptsv is cnot.solver.dptsv,
                  "plan": plan.matrix.tolist(), "value": value}))
"""


def test_import_leaves_the_lp_solver_unloaded():
    """A fresh ``import cnot, cnot.cli`` loads neither ``scipy.optimize`` nor
    ``scipy.sparse``, and not the ``scipy.linalg`` package either: the solver
    takes LAPACK ``dptsv`` from scipy's extension file, and a solve loads no
    more.  The first ``solve_lp`` call loads only scipy's HiGHS bindings
    (``scipy.optimize._highspy._core``) from their file, still no
    ``scipy.optimize`` or ``scipy.sparse`` package, and returns the exact
    plan.  A later ``import scipy.linalg`` reuses the LAPACK extension, so
    ``scipy.linalg.lapack.dptsv`` is the solver's routine."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert out["before"] == []
    assert not out["linalg"]
    assert out["solved"] and not out["linalg_solved"]
    assert out["after"] and all(m.startswith("scipy.optimize._highspy._core") for m in out["after"])
    assert out["same_dptsv"]
    assert out["plan"] == [[0.5, 0.0], [0.0, 0.5]]
    assert out["value"] == 0.0


def test_readme_library_quick_start_runs():
    """The README's library quick-start runs as written, with no
    RuntimeWarning, and its solve converges."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split()[0] == "True"
