"""End-to-end tests for the command-line pipeline."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cnot import SolverParams, minimize_quantile
from cnot.cli import _key_template, load_scenario, main


def _csv_text(header, columns):
    """The text of a CSV formatted one value at a time: ``str`` for
    integers, ``%.17g`` for the rest (nan and inf included)."""
    lines = [header] + [
        ",".join(str(c) if isinstance(c, (int, np.integer)) else "%.17g" % float(c)
                 for c in row)
        for row in zip(*columns)
    ]
    return "\n".join(lines) + "\n"


def _write_scenario(path, **overrides):
    doc = {
        "interval": {"lo": 0.0, "hi": 1.0},
        "grid_n": 48,
        "quantile_m": 192,
        "mu": {"kind": "gaussian_truncated", "mean": 0.5, "sigma": 0.15},
        "cost": {"kind": "quadratic"},
        "congestion": {"kind": "entropy", "convention": "shifted"},
        "kernel": {"kind": "quadratic_distance", "kappa": 2.0},
        "potential": {"kind": "none"},
        "support_mode": "free",
        "solver": {"grad_tol": 1e-8},
        "seed": 0,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc, indent=2))
    return path


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip()


def test_missing_command_is_a_usage_error(capsys):
    """No command, or a command without ``--scenario``, exits 1 with an
    ``/args`` message, not argparse's exit 2."""
    assert main([]) == 1
    assert "command is required" in capsys.readouterr().err
    assert main(["solve"]) == 1
    err = capsys.readouterr().err
    assert "/args: " in err and "--scenario" in err


def test_unknown_scenario_key_reports_pointer(tmp_path, capsys):
    scn = _write_scenario(tmp_path / "s.json", extra=1)
    assert main(["solve", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "/extra" in err and "unknown field" in err
    for key in ("monotone_projection", "step0", "beta", "sigma"):
        scn = _write_scenario(tmp_path / "s.json", solver={key: 0.5})
        assert main(["solve", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"/solver/{key}" in err and "unknown field" in err


def test_bad_mu_kind_reports_pointer(tmp_path, capsys):
    scn = _write_scenario(tmp_path / "s.json", mu={"kind": "lognormal"})
    assert main(["solve", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == 1
    assert "/mu/kind" in capsys.readouterr().err


@pytest.mark.parametrize("section,kinds", [
    ("mu", "uniform, gaussian_truncated, table"),
    ("cost", "quadratic, convex_difference"),
    ("congestion", "entropy, power"),
    ("kernel", "none, quadratic_distance, cubic_distance, product"),
    ("potential", "none, poly"),
])
def test_section_kind_must_be_one_of_its_table(tmp_path, capsys, section, kinds):
    """Each section names its kinds once: an unknown kind, a missing one or
    one that is not a string exits 1 with the section's ``/kind`` pointer and
    the kinds listed; a field the named kind does not take is unknown."""
    for kind in ("other", None, ["list"]):
        scn = _write_scenario(tmp_path / "s.json", **{section: {"kind": kind}})
        assert main(["solve", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == 1
        assert f"error: /{section}/kind: must be one of: {kinds}\n" in capsys.readouterr().err
    first = kinds.split(", ")[0]
    scn = _write_scenario(tmp_path / "s.json", **{section: {"kind": first, "stray": 1}})
    assert main(["solve", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == 1
    assert f"error: /{section}/stray: unknown field" in capsys.readouterr().err


def test_missing_scenario_file(tmp_path, capsys):
    """A missing path, a directory and a file that is not UTF-8 exit 1."""
    assert main(["solve", "--scenario", str(tmp_path / "nope.json")]) == 1
    assert "not found" in capsys.readouterr().err
    assert main(["solve", "--scenario", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
    assert "error: /: scenario file not found" in capsys.readouterr().err
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"grid_n": 16, "note": "\xe9"}')
    assert main(["solve", "--scenario", str(latin), "--out", str(tmp_path / "o")]) == 1
    assert "error: /: not a UTF-8 text file" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--scenario", str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_solve_writes_artifacts(tmp_path):
    scn = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["solve", "--scenario", str(scn), "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] is True
    assert diag["command"] == "solve"
    assert diag["residual_eq"] < 1e-2
    assert len(diag["scenario_hash"]) == 64
    eq_lines = (out / "equilibrium.csv").read_text().strip().splitlines()
    assert eq_lines[0] == "node,nu"
    assert len(eq_lines) == 49  # header + one row per grid cell
    q_lines = (out / "quantile.csv").read_text().strip().splitlines()
    assert q_lines[0] == "p,G"
    assert len(q_lines) == 193
    # the CLI result matches a direct library call
    scenario = load_scenario(str(scn))
    result = minimize_quantile(scenario, SolverParams(grad_tol=1e-8))
    assert diag["J"] == pytest.approx(result.J_value, abs=1e-12)


def test_solve_records_the_coarse_levels_of_its_start(tmp_path):
    """``diagnostics.json`` lists each coarse level the start solved under
    ``coarse_levels``: none at m = 192, and 4096 then 8192 for the shipped
    figure-1 scenario at m = 16384."""
    scn = _write_scenario(tmp_path / "s.json")
    figure1 = Path(__file__).resolve().parents[1] / "scenarios" / "figure1.json"
    levels = []
    for name, path in (("small", scn), ("figure1", figure1)):
        out = tmp_path / name
        assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 0
        levels.append(json.loads((out / "diagnostics.json").read_text())["coarse_levels"])
    assert levels[0] == []
    assert [level["m"] for level in levels[1]] == [4096, 8192]
    assert all(level["converged"] for level in levels[1])


def test_solve_reruns_are_bit_identical(tmp_path):
    scn = _write_scenario(tmp_path / "s.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--scenario", str(scn), "--out", str(out_a)]) == 0
    assert main(["solve", "--scenario", str(scn), "--out", str(out_b)]) == 0
    for name in ("equilibrium.csv", "quantile.csv", "diagnostics.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_solve_iteration_cap_exits_2(tmp_path, capsys):
    scn = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    code = main(["solve", "--scenario", str(scn), "--out", str(out),
                 "--max-iters", "1", "--tol", "1e-14"])
    assert code == 2
    assert "did not converge" in capsys.readouterr().err
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] is False


def test_solve_certificate_error_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    """The certificate is computed when the diagnostics read it; an error
    there is reported like a solver failure: exit 2, the message in
    diagnostics.json and no CSV artifacts."""
    import cnot.verify

    def failing(*args, **kwargs):
        raise ValueError("certificate failed")

    monkeypatch.setattr(cnot.verify, "equilibrium_residual", failing)
    scn = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["solve", "--scenario", str(scn), "--out", str(out)]) == 2
    assert json.loads((out / "diagnostics.json").read_text())["error"] == "certificate failed"
    assert not (out / "equilibrium.csv").exists()
    assert "numerical failure" in capsys.readouterr().err


def test_key_template_matches_per_value_formatting():
    """A ``_key_template`` filled with row-major values gives the text of
    the per-value formatter, for one and two value columns: ``%.17g`` for
    floats (nan, +-inf and +-1e+-300 included), ``str`` for integer keys."""
    rng = np.random.default_rng(2)
    floats = rng.normal(0.0, 1.0, 40) * 10.0 ** rng.uniform(-300.0, 300.0, 40)
    floats[[3, 7, 11, 13, 17, 19, 23]] = [np.nan, np.inf, -np.inf,
                                          1e300, -1e300, 1e-300, -1e-300]
    other = floats[::-1].copy()
    row_major = np.column_stack((floats, other)).ravel().tolist()
    for keys in (floats, list(range(-5, 35)), np.arange(40, dtype=np.int64)):
        assert (_key_template("k,a", keys) % tuple(other.tolist())
                == _csv_text("k,a", (keys, other)))
        assert (_key_template("k,a,b", keys, values=2) % tuple(row_major)
                == _csv_text("k,a,b", (keys, floats, other)))
    text = _key_template("node,nu", np.linspace(0.0, 1.0, 7)) % ((1.0 / 3.0,) * 7)
    assert text.splitlines()[1:3] == ["0,0.33333333333333331",
                                      "0.16666666666666666,0.33333333333333331"]


def test_solve_support_override(tmp_path):
    scn = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["solve", "--scenario", str(scn), "--out", str(out),
                 "--support", "fixed"]) == 0
    q = np.loadtxt(out / "quantile.csv", delimiter=",", skiprows=1)
    assert q[0, 1] == 0.0 and q[-1, 1] == 1.0


def _canonical_hash(doc):
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_solve_flags_are_recorded_as_document_edits(tmp_path):
    """``solve``'s flags edit the scenario document, and diagnostics.json
    names the document that was solved: its support mode and the hash of
    its canonical JSON."""
    scn = _write_scenario(tmp_path / "s.json")
    doc = json.loads(scn.read_text())
    out = tmp_path / "fixed"
    assert main(["solve", "--scenario", str(scn), "--out", str(out),
                 "--support", "fixed"]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["support_mode"] == "fixed_endpoints"
    assert diag["scenario_hash"] == _canonical_hash({**doc, "support_mode": "fixed_endpoints"})
    out = tmp_path / "tol"
    assert main(["solve", "--scenario", str(scn), "--out", str(out),
                 "--tol", "1e-10", "--max-iters", "40"]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["support_mode"] == "free"
    assert diag["scenario_hash"] == _canonical_hash(
        {**doc, "solver": {"grad_tol": 1e-10, "max_iters": 40}})


@pytest.mark.parametrize("flags,pointer", [
    (["--max-iters", "0"], "/solver/max_iters"),
    (["--tol", "-1"], "/solver/grad_tol"),
    (["--tol", "nan"], "/solver/grad_tol"),
])
def test_solve_flags_pass_the_scenario_validator(tmp_path, capsys, flags, pointer):
    scn = _write_scenario(tmp_path / "s.json")
    assert main(["solve", "--scenario", str(scn), "--out", str(tmp_path / "o"), *flags]) == 1
    err = capsys.readouterr().err
    assert pointer in err and "numerical failure" not in err


def test_solver_edits_on_a_file_without_a_solver_section(tmp_path):
    """``--tol`` and ``sweep --param solver.grad_tol`` create the ``solver``
    section the file omits."""
    scn = _write_scenario(tmp_path / "s.json")
    doc = json.loads(scn.read_text())
    del doc["solver"]
    scn.write_text(json.dumps(doc))
    assert main(["solve", "--scenario", str(scn), "--out", str(tmp_path / "solve"),
                 "--tol", "1e-8"]) == 0
    assert main(["sweep", "--scenario", str(scn), "--out", str(tmp_path / "sweep"),
                 "--param", "solver.grad_tol", "--values", "1e-8"]) == 0


@pytest.mark.parametrize("section,value,pointer", [
    ("kernel", {"kind": "quadratic_distance", "kappa": float("inf")}, "/kernel/kappa"),
    ("kernel", {"kind": "quadratic_distance", "kappa": 10**400}, "/kernel/kappa"),
    ("mu", {"kind": "gaussian_truncated", "mean": float("nan"), "sigma": 0.15}, "/mu/mean"),
    ("mu", {"kind": "gaussian_truncated", "mean": 0.5, "sigma": float("inf")}, "/mu/sigma"),
    ("congestion", {"kind": "power", "alpha": float("inf")}, "/congestion/alpha"),
    ("potential", {"kind": "poly", "coeffs": [0.0, float("inf")]}, "/potential/coeffs"),
    ("interval", {"lo": 0.0, "hi": float("inf")}, "/interval/hi"),
    ("cost", {"kind": "convex_difference", "p": float("inf")}, "/cost/p"),
    ("cost", {"kind": "convex_difference", "p": 1.0}, "/cost/p"),
])
def test_non_finite_scenario_numbers_are_rejected(tmp_path, capsys, section, value, pointer):
    """``NaN`` and ``Infinity``, which Python's JSON reader accepts, an
    integer too large for a float and a cost exponent ``p <= 1`` fail
    validation with the field's pointer."""
    scn = _write_scenario(tmp_path / "s.json", **{section: value})
    assert main(["solve", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 1
    assert f"{pointer}: " in capsys.readouterr().err


def test_power_cost_loads_as_its_formula(tmp_path):
    """A ``convex_difference`` cost with exponent ``p`` loads as
    ``C(t) = |t|^p / p``."""
    scn = _write_scenario(tmp_path / "s.json", cost={"kind": "convex_difference", "p": 3})
    t = np.array([-2.0, -0.5, 0.0, 0.25, 1.5])
    assert np.array_equal(load_scenario(str(scn)).cost.C(t), np.abs(t) ** 3 / 3)


def test_gaussian_source_that_underflows_everywhere_is_a_validation_error(tmp_path, capsys):
    """A truncated Gaussian so narrow that every cell underflows to zero
    fails validation under ``/mu/sigma``, not with a traceback."""
    scn = _write_scenario(tmp_path / "s.json", grid_n=16, quantile_m=64,
                          mu={"kind": "gaussian_truncated", "mean": 0.5, "sigma": 1e-4})
    assert main(["solve", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "/mu/sigma: " in err and "underflows" in err
    assert "Traceback" not in err


def test_verify_runs_requested_checks(tmp_path):
    scn = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["verify", "--scenario", str(scn), "--out", str(out),
                 "--checks", "eq,purity,dc,deriv"]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["density_source"] == "solved"
    assert set(payload["results"]) == {"eq", "purity", "dc", "deriv"}
    assert payload["results"]["eq"]["residual_eq"] < 1e-2
    assert payload["results"]["purity"]["pure"] is True
    assert payload["results"]["dc"]["max_violation"] == 0.0
    deriv = payload["results"]["deriv"]
    assert max(deriv["errors"]) < 1e-3 * (1.0 + abs(deriv["predicted"]))


VERIFY_MODULES_PROBE = """
import json, sys
import cnot.cli

codes = [cnot.cli.run("verify", ["--scenario", f"{sys.argv[1]}/{name}.json",
                                 "--out", f"{sys.argv[2]}/{name}", "--checks", "eq,purity"])
         for name in ("uniform", "congested_gaussian", "cubic_attraction", "figure1")]
print(json.dumps({"codes": codes,
                  "optimize": sorted(m for m in sys.modules if m.startswith("scipy.optimize"))}))
"""


def test_verify_purity_loads_no_lp_solver(tmp_path):
    """In a fresh process, ``verify --checks eq,purity`` on the four shipped
    scenarios exits 0 and loads no ``scipy.optimize`` module: the purity
    LPs are answered by the certified monotone staircase, with no LP
    solver."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", VERIFY_MODULES_PROBE, str(root / "scenarios"),
                           str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out == {"codes": [0, 0, 0, 0], "optimize": []}


def test_verify_purity_writes_the_keys_the_benchmark_and_ci_read(tmp_path):
    """``verify --checks purity`` on a shipped scenario writes exactly
    ``pure``, ``lp_value``, ``monotone_value`` and ``atoms``, with
    ``monotone_value`` equal to ``lp_value``: ``perfbench/workloads.py`` and
    the purity steps of ``.github/workflows/ci.yml`` read those keys."""
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "congested_gaussian.json"
    out = tmp_path / "out"
    assert main(["verify", "--scenario", str(scenario), "--out", str(out),
                 "--checks", "purity"]) == 0
    purity = json.loads((out / "verify.json").read_text())["results"]["purity"]
    assert set(purity) == {"pure", "lp_value", "monotone_value", "atoms"}
    assert purity["monotone_value"] == purity["lp_value"]
    assert purity["pure"] is True


def test_verify_numerical_failure_exits_2_with_verify_json(tmp_path, monkeypatch, capsys):
    """A solver ``RuntimeError`` or a certificate ``ValueError`` in verify's
    own solve exits 2 with the message in verify.json; a ``ValueError`` in
    one check still marks only that check inapplicable, and a
    ``RuntimeError`` in one check marks it failed and exits 2."""
    import cnot.cli
    import cnot.verify

    scn = _write_scenario(tmp_path / "s.json")

    def raising(exc):
        def fail(*args, **kwargs):
            raise exc
        return fail

    for module, name, exc in ((cnot.cli, "minimize_quantile", RuntimeError("no descent")),
                              (cnot.verify, "equilibrium_residual",
                               ValueError("certificate failed"))):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, raising(exc))
            out = tmp_path / name
            assert main(["verify", "--scenario", str(scn), "--out", str(out),
                         "--checks", "eq"]) == 2
        payload = json.loads((out / "verify.json").read_text())
        assert payload["error"] == str(exc) and payload["command"] == "verify"
        assert f"numerical failure: {exc}" in capsys.readouterr().err

    monkeypatch.setattr(cnot.cli, "purity_check", raising(ValueError("not this one")))
    out = tmp_path / "check"
    assert main(["verify", "--scenario", str(scn), "--out", str(out),
                 "--checks", "eq,purity"]) == 0
    results = json.loads((out / "verify.json").read_text())["results"]
    assert results["purity"] == {"status": "inapplicable", "detail": "not this one"}
    assert "residual_eq" in results["eq"]

    monkeypatch.setattr(cnot.cli, "purity_check", raising(RuntimeError("overflowed")))
    out = tmp_path / "failed_check"
    assert main(["verify", "--scenario", str(scn), "--out", str(out),
                 "--checks", "eq,purity"]) == 2
    results = json.loads((out / "verify.json").read_text())["results"]
    assert results["purity"] == {"status": "failed", "detail": "overflowed"}
    assert "residual_eq" in results["eq"]
    assert "numerical failure; see verify.json" in capsys.readouterr().err


def test_verify_eq_reuses_the_solve_certificate(tmp_path, monkeypatch):
    """On a solved density the eq check reports the solve's certificate:
    one ``equilibrium_residual`` call, numbers equal to a direct call."""
    import cnot.cli
    import cnot.verify

    original = cnot.verify.equilibrium_residual
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cnot.verify, "equilibrium_residual", counting)
    monkeypatch.setattr(cnot.cli, "equilibrium_residual", counting)
    scn = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["verify", "--scenario", str(scn), "--out", str(out),
                 "--checks", "eq"]) == 0
    assert len(calls) == 1
    eq = json.loads((out / "verify.json").read_text())["results"]["eq"]
    scenario = load_scenario(str(scn))
    rep = original(scenario, minimize_quantile(scenario, SolverParams(grad_tol=1e-8)).nu)
    assert eq == {"residual_sup": rep.residual_sup, "residual_eq": rep.residual_eq,
                  "M": rep.M, "epsilon": rep.epsilon}


def test_malformed_density_csv_is_a_validation_error(tmp_path, capsys):
    """A density CSV that is not numeric, a directory in its place, or values
    that ``density_from_values`` refuses (negative, not finite, zero mass)
    exit 1 with the field's pointer, for ``--density``, ``--init-file`` and
    a ``mu`` table alike."""
    bad = tmp_path / "bad.csv"
    bad.write_text("node,nu\n0.1,abc\n")
    folder = tmp_path / "folder"
    folder.mkdir()
    cases = [(bad, "not a numeric CSV table"), (folder, "file not found")]
    for name, values, message in (
        ("neg.csv", [-1.0] + [1.0] * 47, "must be finite and non-negative"),
        ("nan.csv", [float("nan")] + [1.0] * 47, "must be finite and non-negative"),
        ("zero.csv", [0.0] * 48, "must carry positive mass"),
    ):
        (tmp_path / name).write_text("".join(f"{v!r}\n" for v in values))
        cases.append((tmp_path / name, "density values " + message))
    scn = _write_scenario(tmp_path / "s.json")
    for path, message in cases:
        for command, extra, pointer in (
            ("verify", ["--density", str(path), "--checks", "eq"], "/density"),
            ("jko", ["--init", "file", "--init-file", str(path)], "/init-file"),
        ):
            assert main([command, "--scenario", str(scn), "--out", str(tmp_path / command)]
                        + extra) == 1
            err = capsys.readouterr().err
            assert f"error: {pointer}: {message}" in err
            assert "numerical failure" not in err
        table = _write_scenario(tmp_path / "t.json", mu={"kind": "table", "path": path.name})
        assert main(["solve", "--scenario", str(table), "--out", str(tmp_path / "o")]) == 1
        assert f"error: /mu/path: {message}" in capsys.readouterr().err


def test_verify_unknown_check_name(tmp_path, capsys):
    scn = _write_scenario(tmp_path / "s.json")
    assert main(["verify", "--scenario", str(scn), "--out", str(tmp_path / "o"),
                 "--checks", "eq,bogus"]) == 1
    assert "/checks" in capsys.readouterr().err


def test_verify_second_order_check_inapplicable_with_potential(tmp_path):
    scn = _write_scenario(
        tmp_path / "s.json",
        potential={"kind": "poly", "coeffs": [0.0, 0.0, 1.0], "declared_convex": True},
    )
    out = tmp_path / "out"
    assert main(["verify", "--scenario", str(scn), "--out", str(out),
                 "--checks", "ma"]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["results"]["ma"]["status"] == "inapplicable"
    assert "potential" in payload["results"]["ma"]["detail"]


def test_verify_accepts_density_file(tmp_path):
    scn = _write_scenario(tmp_path / "s.json")
    solve_out = tmp_path / "solve"
    assert main(["solve", "--scenario", str(scn), "--out", str(solve_out)]) == 0
    out = tmp_path / "verify"
    assert main(["verify", "--scenario", str(scn), "--out", str(out),
                 "--density", str(solve_out / "equilibrium.csv"),
                 "--checks", "eq"]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["density_source"] == "file"
    assert payload["results"]["eq"]["residual_eq"] < 1e-2


def test_jko_writes_trajectory(tmp_path):
    scn = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["jko", "--scenario", str(scn), "--out", str(out),
                 "--tau", "0.5", "--steps", "3"]) == 0
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    assert rows[0] == "k,J,W2_step"
    assert len(rows) == 5  # header + initial point + 3 steps
    for k in range(4):
        assert (out / f"density_{k:04d}.csv").exists()
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["terminal_vs_direct_W2"] >= 0.0
    J = [float(line.split(",")[1]) for line in rows[1:]]
    assert all(b <= a + 1e-10 for a, b in zip(J, J[1:]))


def test_jko_stops_solving_at_its_fixed_point(tmp_path, monkeypatch):
    """Once a step returns its anchor bit for bit, the flow repeats that step
    without solving.  On the shipped uniform scenario (tau 0.1, 20 steps from
    two bumps) ``cnot jko`` solves fewer than 20 steps, and its trajectory and
    every density file have the bytes of a flow that solves all 20 steps by
    ``minimize_quantile``, formatted one value at a time."""
    import cnot.dynamics as dynamics
    from cnot import density_to_quantile, two_bumps_density
    from cnot.cli import _load_bundle
    from cnot.solver import _binned, _projected_newton, _QuantileProblem

    path = Path(__file__).resolve().parents[1] / "scenarios" / "uniform.json"
    binned = dynamics._binned  # once per step solved
    calls = []
    monkeypatch.setattr(dynamics, "_binned",
                        lambda *args, **kwargs: calls.append(1) or binned(*args, **kwargs))
    out = tmp_path / "out"
    assert main(["jko", "--scenario", str(path), "--out", str(out),
                 "--tau", "0.1", "--steps", "20", "--init", "two_bumps"]) == 0
    assert 0 < len(calls) < 20

    bundle = _load_bundle(str(path))
    scenario = bundle.scenario
    problem = _QuantileProblem(scenario)
    densities = [two_bumps_density(scenario.grid)]
    G = density_to_quantile(densities[0], scenario.m).values
    rows = [(0, problem.value(G), 0.0)]
    for k in range(1, 21):
        newton = _projected_newton(problem.anchored(G, 0.1), bundle.params, G0=G)
        result = _binned(scenario, *newton)
        assert result.converged
        G_new = result.G.values
        rows.append((k, problem.value(G_new), float(np.sqrt(np.sum((G_new - G) ** 2) / scenario.m))))
        densities.append(result.nu)
        G = G_new
    expected = {"trajectory.csv": _csv_text("k,J,W2_step", list(zip(*rows)))}
    for k, nu in enumerate(densities):
        expected[f"density_{k:04d}.csv"] = _csv_text("node,nu", (scenario.grid.nodes, nu.values))
    for name, text in expected.items():
        assert (out / name).read_bytes() == text.encode(), name


def test_jko_init_file_requires_path(tmp_path, capsys):
    scn = _write_scenario(tmp_path / "s.json")
    assert main(["jko", "--scenario", str(scn), "--out", str(tmp_path / "o"),
                 "--init", "file"]) == 1
    assert "--init-file" in capsys.readouterr().err


@pytest.mark.parametrize("flags,pointer", [
    (["--steps", "0"], "/steps"),
    (["--tau", "0"], "/tau"),
    (["--tau", "nan"], "/tau"),
])
def test_jko_flags_are_validated(tmp_path, capsys, flags, pointer):
    scn = _write_scenario(tmp_path / "s.json")
    assert main(["jko", "--scenario", str(scn), "--out", str(tmp_path / "o"), *flags]) == 1
    err = capsys.readouterr().err
    assert f"{pointer}: " in err and "numerical failure" not in err


def test_welfare_writes_report_and_taxes(tmp_path):
    scn = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["welfare", "--scenario", str(scn), "--out", str(out)]) == 0
    payload = json.loads((out / "welfare.json").read_text())
    assert payload["cost_of_anarchy"] >= 1.0
    assert payload["sc_optimum"] <= payload["sc_equilibrium"]
    assert payload["converged_equilibrium"] and payload["converged_optimum"]
    taxes = (out / "taxes.csv").read_text().strip().splitlines()
    assert taxes[0] == "node,tax_paper,tax_marginal"
    assert len(taxes) == 49


def test_welfare_json_holds_the_report_but_its_taxes(tmp_path):
    """``welfare.json`` holds the run metadata and every ``WelfareReport``
    field but the two tax vectors, which ``taxes.csv`` holds: the grid nodes
    and both taxes of ``cost_of_anarchy``, formatted one value at a time."""
    from dataclasses import fields

    from cnot.cli import _load_bundle
    from cnot.welfare import WelfareReport, cost_of_anarchy

    scn = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["welfare", "--scenario", str(scn), "--out", str(out)]) == 0
    bundle = _load_bundle(str(scn))
    report_keys = {f.name for f in fields(WelfareReport)} - {"tax_paper", "tax_marginal"}
    payload = json.loads((out / "welfare.json").read_text())
    assert set(payload) == report_keys | {"command", *bundle.metadata()}
    report = cost_of_anarchy(bundle.scenario, bundle.params)
    assert (out / "taxes.csv").read_bytes() == _csv_text(
        "node,tax_paper,tax_marginal",
        (bundle.scenario.grid.nodes, report.tax_paper, report.tax_marginal)).encode()


def test_welfare_on_unconverged_solves_exits_2(tmp_path, capsys):
    """A report resting on an unconverged solve is written with its
    convergence flags and taxes, and the command exits 2."""
    scn = _write_scenario(tmp_path / "s.json", solver={"max_iters": 1})
    out = tmp_path / "out"
    assert main(["welfare", "--scenario", str(scn), "--out", str(out)]) == 2
    assert "did not converge" in capsys.readouterr().err
    payload = json.loads((out / "welfare.json").read_text())
    assert payload["converged_equilibrium"] is False
    assert payload["converged_optimum"] is False
    assert "error" not in payload
    assert (out / "taxes.csv").exists()


def test_sweep_solves_each_value(tmp_path):
    scn = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(scn), "--out", str(out),
                 "--param", "kernel.kappa", "--values", "0.5,2.0"]) == 0
    rows = (out / "summary.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    assert rows[0].startswith("value,directory,exit_code")
    for i, value in enumerate(("0.5", "2")):
        run_dir = out / f"run_{i:03d}_kappa_{value}"
        assert (run_dir / "diagnostics.json").exists()
        assert (run_dir / "equilibrium.csv").exists()


def test_sweep_resolves_table_path_from_scenario_dir(tmp_path):
    """A relative ``mu.table`` path resolves against the swept scenario's
    directory, not the run directory; each run's scenario hash is that of
    the ``scenario.json`` written for it.  The first run's J is the one
    ``solve`` gives for that value, and that file re-solves on its own to
    the same J.  The second run starts from the first run's quantile
    (``warm_start``): its J is the one ``minimize_quantile`` gives for its
    ``scenario.json`` from the G of the first run's ``quantile.csv``."""
    nodes = (np.arange(48) + 0.5) / 48.0
    (tmp_path / "mu.csv").write_text(
        "node,value\n" + "\n".join(f"{x},{1.0 + 0.5 * np.cos(2.0 * np.pi * x)}"
                                    for x in nodes))
    mu = {"kind": "table", "path": "mu.csv"}
    scn = _write_scenario(tmp_path / "s.json", mu=mu)
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scn), "--out", str(out),
                 "--param", "kernel.kappa", "--values", "0.5,2"]) == 0
    rows = [r.split(",") for r in (out / "summary.csv").read_text().split()[1:]]
    G_first = np.loadtxt(out / rows[0][1] / "quantile.csv", delimiter=",", skiprows=1)[:, 1]
    for i, (row, kappa) in enumerate(zip(rows, (0.5, 2.0))):
        assert row[2] == "0"
        run_dir = out / row[1]
        canonical = json.dumps(json.loads((run_dir / "scenario.json").read_text()),
                               sort_keys=True, separators=(",", ":"))
        diag = json.loads((run_dir / "diagnostics.json").read_text())
        assert diag["scenario_hash"] == hashlib.sha256(canonical.encode()).hexdigest()
        assert diag["warm_start"] is (i == 1)
        if i == 0:
            single = _write_scenario(tmp_path / f"k{kappa}.json", mu=mu,
                                     kernel={"kind": "quadratic_distance", "kappa": kappa})
            solo = tmp_path / f"solve_{kappa}"
            assert main(["solve", "--scenario", str(single), "--out", str(solo)]) == 0
            assert float(row[3]) == json.loads((solo / "diagnostics.json").read_text())["J"]
            again = tmp_path / f"again_{kappa}"
            assert main(["solve", "--scenario", str(run_dir / "scenario.json"),
                         "--out", str(again)]) == 0
            assert json.loads((again / "diagnostics.json").read_text())["J"] == float(row[3])
        else:
            warm = minimize_quantile(load_scenario(str(run_dir / "scenario.json")),
                                     SolverParams(grad_tol=1e-8), G0=G_first)
            assert warm.J_value == float(row[3])


def test_sweep_records_a_run_failure_and_goes_on(tmp_path, monkeypatch, capsys):
    """A numerical failure in one run is written to that run's diagnostics
    and summary row (exit code 2); the other runs still solve, the one after
    the failure from the source quantile (``warm_start`` false)."""
    import cnot.cli

    solve = cnot.cli.minimize_quantile

    def failing_at_kappa_one(scenario, params, G0=None):
        if scenario.model.kernel.kappa == 1.0:
            raise RuntimeError("line search failed")
        return solve(scenario, params, G0=G0)

    monkeypatch.setattr(cnot.cli, "minimize_quantile", failing_at_kappa_one)
    scn = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(scn), "--out", str(out),
                 "--param", "kernel.kappa", "--values", "0.5,1,2"]) == 2
    rows = [r.split(",") for r in (out / "summary.csv").read_text().split()[1:]]
    assert [r[2] for r in rows] == ["0", "2", "0"]
    assert rows[1][3] == "nan" and rows[1][7] == "False"
    diag = json.loads((out / "run_001_kappa_1" / "diagnostics.json").read_text())
    assert diag["error"] == "line search failed" and diag["command"] == "solve"
    assert not (out / "run_001_kappa_1" / "equilibrium.csv").exists()
    assert (out / "run_002_kappa_2" / "equilibrium.csv").exists()
    assert json.loads((out / "run_002_kappa_2" / "diagnostics.json").read_text())[
        "warm_start"] is False
    assert "numerical failure: line search failed" in capsys.readouterr().err


def _solo_rows(tmp_path, name, **overrides):
    """``solve`` on ``_write_scenario`` with ``overrides``, in ``solo_<name>``:
    its exit code as text, its J as ``summary.csv`` writes it (``nan`` when
    it has none) and its output directory."""
    solo = tmp_path / f"solo_{name}"
    code = main(["solve", "--scenario", str(_write_scenario(tmp_path / f"{solo.name}.json",
                                                               **overrides)),
                 "--out", str(solo)])
    J = json.loads((solo / "diagnostics.json").read_text()).get("J", float("nan"))
    return str(code), "%.17g" % J, solo


def test_sweep_outside_the_uniqueness_regime_solves_each_value_cold(tmp_path):
    """A quadratic kernel with kappa < 0 is not declared convex, so no run
    starts from its neighbour's quantile: every run has ``warm_start``
    false and the bytes ``solve`` writes for its value."""
    scn = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(scn), "--out", str(out),
                 "--param", "kernel.kappa", "--values=-0.5,-0.25,-0.1"]) == 0
    rows = [r.split(",") for r in (out / "summary.csv").read_text().split()[1:]]
    assert len(rows) == 3
    for row, kappa in zip(rows, (-0.5, -0.25, -0.1)):
        code, J, solo = _solo_rows(tmp_path, f"{kappa}", kernel={"kind": "quadratic_distance",
                                                                  "kappa": kappa})
        assert (row[2], row[3]) == (code, J)
        run_dir = out / row[1]
        assert json.loads((run_dir / "diagnostics.json").read_text())["warm_start"] is False
        for name in ("equilibrium.csv", "quantile.csv"):
            assert (run_dir / name).read_bytes() == (solo / name).read_bytes()


@pytest.mark.parametrize("param, values", [("quantile_m", (96, 192, 384)),
                                           ("interval.hi", (1.0, 0.9, 1.1))])
def test_sweep_over_the_grid_or_m_starts_each_run_cold(tmp_path, param, values):
    """A run whose grid or ``m`` differs from the previous run's starts from
    its own source quantile (a previous quantile clipped to a new interval
    could have zero gaps): every run has ``warm_start`` false, the exit code
    and J that ``solve`` gives for its value, and the sweep exits with the
    worst of those codes."""
    scn = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    code = main(["sweep", "--scenario", str(scn), "--out", str(out),
                 "--param", param, "--values", ",".join(map(str, values))])
    rows = [r.split(",") for r in (out / "summary.csv").read_text().split()[1:]]
    solos = []
    for value in values:
        overrides = ({"quantile_m": value} if param == "quantile_m"
                     else {"interval": {"lo": 0.0, "hi": value}})
        solos.append(_solo_rows(tmp_path, f"{value}", **overrides)[:2])
    assert [(r[2], r[3]) for r in rows] == solos
    assert code == max(int(c) for c, _ in solos)
    for row in rows:
        assert json.loads((out / row[1] / "diagnostics.json").read_text())["warm_start"] is False


def test_figure1_sweep_over_kappa_converges_from_each_previous_run(tmp_path):
    """On the figure-1 physics kappa = 0.5, 1, 2, 4 are all inside the
    uniqueness regime, so runs 1-3 start from the previous run's quantile
    and every run converges."""
    path = Path(__file__).resolve().parents[1] / "scenarios" / "figure1.json"
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(path), "--out", str(out),
                 "--param", "kernel.kappa", "--values", "0.5,1,2,4"]) == 0
    rows = [r.split(",") for r in (out / "summary.csv").read_text().split()[1:]]
    assert [(r[2], r[7]) for r in rows] == [("0", "True")] * 4
    warm = [json.loads((out / r[1] / "diagnostics.json").read_text())["warm_start"]
            for r in rows]
    assert warm == [False, True, True, True]


def test_cold_figure1_solve_at_kappa_2_converges(tmp_path):
    """A cold ``cnot solve`` of the figure-1 physics at kernel.kappa = 2
    exits 0, and ``diagnostics.json`` names why it stopped (before the
    nested-iteration start, this solve stalled at a projected gradient of
    about 2e-7)."""
    raw = json.loads((Path(__file__).resolve().parents[1] / "scenarios" / "figure1.json")
                     .read_text())
    raw["kernel"]["kappa"] = 2.0
    path = tmp_path / "figure1_kappa2.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 0
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert diagnostics["converged"] and diagnostics["stop_reason"] in ("grad_tol", "round_off_floor")
    assert diagnostics["stalled"] is False


def test_congested_gaussian_sweep_over_quantile_m_converges(tmp_path):
    """``cnot sweep`` of congested_gaussian over quantile_m = 512, 1024,
    2048 exits 0, every run converged.  The m = 2048 solve once stalled at
    J's round-off floor (a projected gradient of 1.6e-8 against grad_tol
    1e-8); a stall there now ends as ``round_off_floor``."""
    path = Path(__file__).resolve().parents[1] / "scenarios" / "congested_gaussian.json"
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(path), "--out", str(out),
                 "--param", "quantile_m", "--values", "512,1024,2048"]) == 0
    rows = [r.split(",") for r in (out / "summary.csv").read_text().split()[1:]]
    assert [(r[2], r[7]) for r in rows] == [("0", "True")] * 3
    reasons = [json.loads((out / r[1] / "diagnostics.json").read_text())["stop_reason"]
               for r in rows]
    assert set(reasons) <= {"grad_tol", "round_off_floor"}


def test_solve_writes_the_bytes_of_per_value_formatting(tmp_path):
    """``solve`` fills key-column templates, and its ``equilibrium.csv`` and
    ``quantile.csv`` have the bytes of the two columns formatted one value
    at a time."""
    scn = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["solve", "--scenario", str(scn), "--out", str(out)]) == 0
    result = minimize_quantile(load_scenario(str(scn)), SolverParams(grad_tol=1e-8))
    assert (out / "equilibrium.csv").read_bytes() == _csv_text(
        "node,nu", (result.nu.grid.nodes, result.nu.values)).encode()
    assert (out / "quantile.csv").read_bytes() == _csv_text(
        "p,G", (result.G.probabilities, result.G.values)).encode()


def test_sweep_rejects_bad_values(tmp_path, capsys):
    """A value that is not a number, or not an integer for an integer
    field, exits 1 with ``/values``."""
    scn = _write_scenario(tmp_path / "s.json")
    for param, values in (("kernel.kappa", "1.0,abc"), ("solver.max_iters", "50,2.5")):
        assert main(["sweep", "--scenario", str(scn), "--out", str(tmp_path / "o"),
                     "--param", param, "--values", values]) == 1
        assert "/values" in capsys.readouterr().err


def test_sweep_validates_every_run_before_solving(tmp_path, capsys):
    scn = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(scn), "--out", str(out),
                 "--param", "solver.grad_tol", "--values", "1e-8,-1"]) == 1
    assert "/solver/grad_tol" in capsys.readouterr().err
    assert (out / "run_001_grad_tol_-1" / "scenario.json").exists()
    assert not (out / "run_000_grad_tol_1e-08" / "diagnostics.json").exists()


def test_sweep_rejects_unknown_param_path(tmp_path, capsys):
    scn = _write_scenario(tmp_path / "s.json")
    assert main(["sweep", "--scenario", str(scn), "--out", str(tmp_path / "o"),
                 "--param", "laser.power", "--values", "1.0"]) == 1
    assert "/param" in capsys.readouterr().err


_INTEGER_SWEEPS = {"solver.max_iters": 200, "quantile_m": 96, "grid_n": 32, "seed": 3}


@pytest.mark.parametrize("param", sorted(_INTEGER_SWEEPS))
def test_sweep_sets_integer_fields_as_integers(tmp_path, param):
    """An integer field can be swept: each value is parsed as an integer,
    written as one into the run's ``scenario.json``, and the run solves."""
    value = _INTEGER_SWEEPS[param]
    scn = _write_scenario(tmp_path / "s.json")
    out = tmp_path / "o"
    assert main(["sweep", "--scenario", str(scn), "--out", str(out),
                 "--param", param, "--values", str(value)]) == 0
    leaf = param.split(".")[-1]
    doc = json.loads((out / f"run_000_{leaf}_{value}" / "scenario.json").read_text())
    for key in param.split("."):
        doc = doc[key]
    assert doc == value and isinstance(doc, int)
    row = (out / "summary.csv").read_text().split()[1].split(",")
    assert row[0] == str(value) and row[2] == "0"


def test_load_scenario_checks_each_component_once(tmp_path, monkeypatch):
    """Loading a scenario calls the kernel's and the potential's
    ``validate_on`` once each, on the scenario's interval."""
    import cnot.energy

    calls = []
    for cls in (cnot.energy.InteractionKernel, cnot.energy.PotentialSpec):
        def counting(self, interval, *args, _check=cls.validate_on, **kwargs):
            calls.append((type(self).__name__, interval.lo, interval.hi))
            return _check(self, interval, *args, **kwargs)

        monkeypatch.setattr(cls, "validate_on", counting)
    scn = _write_scenario(tmp_path / "s.json", interval={"lo": 2.0, "hi": 5.0},
                          potential={"kind": "poly", "coeffs": [0.0, 0.0, 1.0],
                                     "declared_convex": True})
    load_scenario(str(scn))
    assert sorted(calls) == [("InteractionKernel", 2.0, 5.0), ("PotentialSpec", 2.0, 5.0)]


def test_table_density_source(tmp_path):
    nodes = (np.arange(48) + 0.5) / 48.0
    values = 1.0 + 0.5 * np.cos(2.0 * np.pi * nodes)
    table = tmp_path / "mu.csv"
    table.write_text("node,value\n" + "\n".join(f"{x},{v}" for x, v in zip(nodes, values)))
    scn = _write_scenario(tmp_path / "s.json", mu={"kind": "table", "path": "mu.csv"})
    out = tmp_path / "out"
    assert main(["solve", "--scenario", str(scn), "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] is True


def test_console_script_smoke():
    exe = shutil.which("cnot")
    assert exe is not None, "console script should be installed"
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    module = subprocess.run(
        [sys.executable, "-m", "cnot.cli"], capture_output=True, text=True
    )
    assert module.returncode == 1
    assert "command is required" in module.stderr
