import argparse
import ast
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import squeezelab
from squeezelab.algebra import MAX_LEVEL, MAX_M
from squeezelab.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
    parse_n_list,
    parse_r_grid,
    UsageError,
)
from squeezelab.evolve import MAX_ORACLE_SIZE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_r_grid():
    grid = parse_r_grid("0:1:0.25")
    assert grid == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert parse_r_grid("0:0:1") == [0.0]
    with pytest.raises(UsageError):
        parse_r_grid("1:0:0.1")
    with pytest.raises(UsageError):
        parse_r_grid("nope")


def test_parse_n_list():
    assert parse_n_list("100,200") == [100, 200]
    with pytest.raises(UsageError):
        parse_n_list("200,100")
    with pytest.raises(UsageError):
        parse_n_list("1")
    with pytest.raises(UsageError):
        parse_n_list("100,100")  # a repeated truncation compares a state with itself
    with pytest.raises(UsageError):
        parse_n_list("")


def test_sweep_row_count(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--n", "3", "--r", "0:0.05:0.01",
                     "--N", "200,201", "--out", str(out))
    assert code == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,N,r,mean_photon,leakage,norm_error,status"
    assert len(lines) == 1 + 2 * 6


def test_sweep_two_photon_closed_form(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--n", "2", "--r", "0:0.5:0.1",
                     "--N", "500", "--out", str(out))
    assert code == EXIT_OK
    for line in out.read_text().strip().split("\n")[1:]:
        _, _, r, photon, _, _, status = line.split(",")
        assert status == "ok"
        assert abs(float(photon) - math.sinh(2 * float(r)) ** 2) <= 1e-8


def test_sweep_single_zero_point(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "3", "--r", "0:0:1", "--N", "100")
    assert code == EXIT_OK
    row = out.strip().split("\n")[1].split(",")
    assert float(row[3]) == pytest.approx(0.0, abs=1e-20)


def test_sweep_usage_error_writes_no_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", "--r", "1:0:0.1", "--N", "100", "--out", str(out))
    assert code == EXIT_USAGE
    assert not out.exists()
    assert "usage error" in err


def test_compare_usage_error_writes_no_file(tmp_path, capsys):
    # the summary path is unwritable: the CSV must not be left behind, nor an old one truncated
    args = ["compare", "--n", "3", "--N", "100,101", "--M", "3", "--r", "0:0.01:0.01",
            "--summary-out", str(tmp_path / "missing" / "summary.json")]
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("kept\n")
    for out in (new, old):
        code, stdout, err = run(capsys, *args, "--out", str(out))
        assert code == EXIT_USAGE and stdout == ""
        assert err.startswith("usage error: cannot write ") and err.count("\n") == 1
    assert not new.exists()
    assert old.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["coeffs", "--n", "0", "--M", "3"],
    ["coeffs", "--n", "3", "--M", "0"],
    ["fit", "--n", "3", "--M", "0"],
    ["sweep", "--n", "0", "--N", "10", "--r", "0:0.1:0.1"],
    ["sweep", "--N", "3", "--n", "3"],
    ["compare", "--n", "3", "--M", "0"],
    ["sweep", "--N", "4,5", "--n", "4"],
    ["compare", "--N", "3,4", "--n", "3"],
    ["verify", "--n", "-1", "--check", "c2"],
    ["verify", "--check", "positivity", "--levels", "-1"],
    ["verify", "--n", "0"],
    ["verify", "--check", "monotonic", "--N", "4,5"],
    ["verify", "--check", "monotonic", "--n", "3", "--N", "1000,1000"],
    ["fit", "--n", "1", "--M", "3"],
])
def test_out_of_range_values_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--bogus"],
    ["sweep", "--n", "x"],
    ["sweep", "--tol", "1e-12"],
    ["compare", "--tol", "1e-12"],
    [],
    # knobs that were removed: their values are module constants now
    ["sweep", "--tail", "10"],
    ["fit", "--last-points", "5"],
    ["verify", "--M", "5"],
    ["verify", "--leak-tol", "1e-10"],
    ["verify", "--agree-tol", "1e-8"],
    ["compare", "--agree-tol", "1e-6"],
])
def test_parse_errors_exit_with_usage_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error" in err


def test_cli_option_surface():
    # every flag of every subcommand; a new knob has to be added here on purpose
    subcommands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    options = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in subcommands.items()
    }
    assert options == {
        "sweep": {"--n", "--out", "--r", "--N"},
        "coeffs": {"--n", "--out", "--M"},
        "fit": {"--n", "--out", "--M", "--coeffs"},
        "verify": {"--check", "--n", "--levels", "--N", "--r"},
        "compare": {"--n", "--out", "--r", "--N", "--M", "--summary-out"},
    }
    assert sum(map(len, options.values())) == 22


def test_library_surface():
    # the package's public names; a new record type or wrapper has to be added here on purpose
    assert set(squeezelab.__all__) == {
        "algebra", "evolve", "fock",
        "BudgetExceededError", "FockDim", "SqueezeParams", "a_n_commutator_closed_form",
        "commutator_diagonal_value", "generator",
        "NotConvergedError", "VacuumSectorPropagator", "certify_truncation_pair", "expm_state",
        "second_derivative_check",
        "BosonPoly", "CoefficientSeries", "FitResult", "coefficients", "commutator",
        "fit_exponential", "multiply", "taylor_partial_sum", "verify_closed_form",
    }


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "3", "--N", "5", "--r", "0:0.1:0.1"],
    ["compare", "--n", "3", "--N", "5,6", "--M", "3", "--r", "0:0.1:0.1"],
    ["verify", "--check", "monotonic", "--n", "3", "--N", "8,9"],
])
def test_small_truncations_run(capsys, argv):
    # the leakage tail shrinks to N - 1 levels instead of refusing N <= 10
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    assert out and err == ""


def test_help_exits_ok(capsys):
    code, out, _ = run(capsys, "sweep", "--help")
    assert code == EXIT_OK
    assert "--tol" not in out


def test_sweep_deterministic_output(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        run(capsys, "sweep", "--n", "3", "--r", "0:0.1:0.02", "--N", "100,200",
            "--out", str(path))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_coeffs_single_leading_coefficient(capsys):
    code, out, _ = run(capsys, "coeffs", "--n", "3", "--M", "1")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "n,m,numerator,denominator,decimal"
    assert lines[1].split(",")[:4] == ["3", "2", "18", "1"]
    assert len(lines) == 2


def test_coeffs_displacement_terminates(capsys):
    code, out, _ = run(capsys, "coeffs", "--n", "1", "--M", "3")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [(r[1], r[2]) for r in rows] == [("2", "1"), ("4", "0"), ("6", "0")]


def test_coeffs_quadri_leading(capsys):
    code, out, _ = run(capsys, "coeffs", "--n", "4", "--M", "1")
    assert code == EXIT_OK
    assert out.strip().split("\n")[1].split(",")[:4] == ["4", "2", "96", "1"]


def test_coeffs_budget_exit_code(capsys):
    # refused before any work: computing M = MAX_M + 1 would take over a second here
    over = str(MAX_M + 1)
    for argv, limit in (
        (("coeffs", "--n", "2", "--M", over), f"M > {MAX_M}"),
        (("fit", "--n", "3", "--M", over), f"M > {MAX_M}"),
        (("coeffs", "--n", "7", "--M", "172"), f"2nM > {MAX_LEVEL}"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_BUDGET and out == ""
        assert f"budget exceeded: {limit}" in err
    code, out, _ = run(capsys, "coeffs", "--n", "4", "--M", "30")
    assert code == EXIT_OK
    assert len(out.strip().split("\n")) == 31


def test_verify_norm_budget_exit_code(capsys):
    # the dense oracle is refused before its matrix is built
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--check", "norm", "--levels", "2100")
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_BUDGET and out == ""
    assert f"budget exceeded: N > {MAX_ORACLE_SIZE}" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--levels", "2100"],
    # 2041 + 2 * 4 + 4 = 2053 levels at n = 4, the largest default order
    ["verify", "--levels", "2041"],
    ["verify", "--n", "2", "--levels", "2041"],
])
def test_verify_over_budget_prints_nothing(capsys, argv):
    # refused before the first check runs, not after the cheap checks have passed
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BUDGET and out == ""
    assert err == f"error: resource budget exceeded: N > {MAX_ORACLE_SIZE}\n"


def test_verify_norm_budget_applies_only_to_the_norm_check(capsys):
    code, out, _ = run(capsys, "verify", "--check", "closed-form", "--levels", "2100", "--n", "1")
    assert code == EXIT_OK
    assert "PASS closed-form n=1" in out
    # n = 1 keeps 2041 + 6 = 2047 levels, inside the cap
    code, out, _ = run(capsys, "verify", "--check", "norm", "--n", "1", "--levels", "2041")
    assert code == EXIT_OK and "PASS norm-preservation n=1" in out


def test_fit_defaults_tri_squeezed(tmp_path, capsys):
    out = tmp_path / "fit.json"
    code, _, _ = run(capsys, "fit", "--n", "3", "--M", "20", "--out", str(out))
    assert code == EXIT_OK
    fit = json.loads(out.read_text())
    assert 1.89 <= fit["alpha"] <= 2.01
    assert 0.124 <= fit["radius"] <= 0.151
    assert fit["points_used"] == [32, 34, 36, 38, 40]


def test_fit_quadri_squeezed(capsys):
    code, out, _ = run(capsys, "fit", "--n", "4", "--M", "10")
    assert code == EXIT_OK
    fit = json.loads(out)
    assert 0.02 <= fit["radius"] <= 0.045
    assert 3.1 <= fit["alpha"] <= 3.7


def coefficient_file(tmp_path, *rows):
    path = tmp_path / "coeffs.csv"
    path.write_text("\n".join(["n,m,numerator,denominator,decimal", *rows]) + "\n")
    return str(path)


@pytest.mark.parametrize("rows", [
    ["3,2,18.5,1,18.5"],  # non-integer numerator
    ["3,2,18,0,inf"],  # zero denominator
    ["3,2,18"],  # missing fields
])
def test_fit_bad_coefficient_file_is_usage_error(tmp_path, capsys, rows):
    code, out, err = run(capsys, "fit", "--coeffs", coefficient_file(tmp_path, *rows))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_fit_missing_coefficient_file_is_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "fit", "--coeffs", str(tmp_path / "missing.csv"))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "missing.csv" in err


@pytest.mark.parametrize("argv", [
    ["coeffs", "--n", "3", "--M", "2", "--out", "{missing}/coeffs.csv"],
    ["compare", "--n", "3", "--N", "100,101", "--M", "3", "--r", "0:0.01:0.01",
     "--out", "{tmp}/compare.csv", "--summary-out", "{missing}/summary.json"],
])
def test_output_into_missing_directory_is_usage_error(tmp_path, capsys, argv):
    argv = [arg.format(tmp=tmp_path, missing=tmp_path / "missing") for arg in argv]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("usage error: cannot write ") and err.count("\n") == 1


def test_fit_from_synthetic_file(tmp_path, capsys):
    path = tmp_path / "coeffs.csv"
    lines = ["n,m,numerator,denominator,decimal"]
    for m in range(2, 21, 2):
        c = Fraction(math.exp(m))
        lines.append(f"0,{m},{c.numerator},{c.denominator},{float(c):.17g}")
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "fit", "--coeffs", str(path))
    assert code == EXIT_OK
    fit = json.loads(out)
    assert fit["alpha"] == pytest.approx(1.0, abs=1e-9)


def test_verify_closed_form_check(capsys):
    code, out, _ = run(capsys, "verify", "--check", "closed-form", "--n", "4",
                       "--levels", "10")
    assert code == EXIT_OK
    assert "PASS closed-form n=4" in out


def test_verify_fast_checks(capsys):
    for check in ("positivity", "c2", "odd-zero", "phase"):
        code, out, _ = run(capsys, "verify", "--check", check)
        assert code == EXIT_OK, out
        assert "FAIL" not in out


def test_verify_odd_zero_check_can_fail(capsys, monkeypatch):
    def odd_coefficient(n, M):
        raise AssertionError("odd coefficient m=3 is nonzero: 1/3!")

    monkeypatch.setattr(squeezelab.algebra, "coefficients", odd_coefficient)
    code, out, err = run(capsys, "verify", "--check", "odd-zero", "--n", "3")
    assert code == EXIT_CHECK_FAILED and err == ""
    assert out == "FAIL odd-coefficients-zero n=3 (odd coefficient m=3 is nonzero: 1/3!)\n"


def test_verify_monotonic(capsys):
    code, out, _ = run(capsys, "verify", "--check", "monotonic", "--n", "3",
                       "--N", "1000,1001", "--r", "0:0.3:0.01")
    assert code == EXIT_OK
    assert "PASS monotonic n=3" in out


def test_compare_all_converged_below_radius(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    summary_path = tmp_path / "cmp.json"
    code, _, _ = run(capsys, "compare", "--n", "3", "--N", "1000,1001",
                     "--M", "20", "--r", "0:0.04:0.01", "--out", str(out),
                     "--summary-out", str(summary_path))
    assert code == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "r,numeric_N,numeric_Nprime,taylor,diff_num,diff_taylor,converged"
    assert all(line.endswith("true") for line in lines[1:])
    summary = json.loads(summary_path.read_text())
    assert 0.07 <= summary["estimated_radius"] <= 0.28  # within a factor 2 of 0.14


def test_compare_requires_truncation_pair(capsys):
    code, _, err = run(capsys, "compare", "--N", "100,200,300", "--r", "0:0.01:0.01")
    assert code == EXIT_USAGE
    assert "usage error" in err


SCIPY_PROBE = """
import sys
from squeezelab.cli import main
for argv in {runs!r}:
    assert main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def scipy_modules_after(tmp_path, *runs):
    """Names of the scipy modules loaded by a fresh interpreter that runs the CLI calls `runs`."""
    path = [str(Path(squeezelab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE.format(runs=list(runs))],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


def test_sweep_and_compare_never_import_scipy(tmp_path):
    # loading scipy would be most of a CLI start; every command runs on numpy alone
    assert scipy_modules_after(
        tmp_path,
        ["sweep", "--n", "3", "--r", "0:0.1:0.05", "--N", "200,201", "--out", "sweep.csv"],
        ["compare", "--n", "3", "--r", "0:0.1:0.05", "--N", "200,201", "--M", "4",
         "--out", "compare.csv", "--summary-out", "summary.json"],
    ) == []


def test_verify_norm_check_never_imports_scipy(tmp_path):
    # the dense numpy eigendecomposition is the norm check's oracle
    assert scipy_modules_after(tmp_path, ["verify", "--check", "norm"], ["verify"]) == []


def test_coeffs_and_fit_never_import_scipy(tmp_path):
    assert scipy_modules_after(
        tmp_path,
        ["coeffs", "--n", "3", "--M", "4", "--out", "coeffs.csv"],
        ["fit", "--n", "3", "--M", "6", "--out", "fit.json"],
    ) == []
