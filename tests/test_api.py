"""The package's public surface: every exported name exists, and the
top-level namespace re-exports exactly the submodules' public names."""

import importlib

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
    (the CLI stays out of the package namespace) plus ``__version__``."""
    expected = {"__version__"}
    for name in SUBMODULES:
        expected.update(importlib.import_module(f"cnot.{name}").__all__)
    assert set(cnot.__all__) == expected
    assert len(set(cnot.__all__)) == len(cnot.__all__)
    for attr in cnot.__all__:
        assert hasattr(cnot, attr), attr
