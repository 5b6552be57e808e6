import argparse
import ast
import cmath
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import squeezelab
from squeezelab.algebra import MAX_LEVEL, MAX_M
from squeezelab.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    MAX_ROWS,
    build_parser,
    main,
    parse_n_list,
    parse_r_grid,
    UsageError,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_r_grid():
    grid = parse_r_grid("0:1:0.25")
    assert grid.dtype == np.float64
    assert grid.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert parse_r_grid("0:0:1").tolist() == [0.0]
    # the array holds the doubles start + step * i, bit for bit
    start, step = 0.3, 0.0007
    grid = parse_r_grid(f"{start}:0.7:{step}")
    assert len(grid) == 572
    assert grid.tobytes() == np.array([start + step * i for i in range(572)]).tobytes()
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


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_default_truncations_give_distinct_chains(command):
    # floor((N-1)/n) differs within each N, N + 1 pair, so no row repeats another
    pairs = parse_n_list(build_parser().parse_args([command]).N)
    for n in range(1, 7):
        lengths = [(N - 1) // n for N in pairs]
        assert len(set(lengths)) == len(lengths)


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
    args = ["compare", "--n", "3", "--N", "102,103", "--M", "3", "--r", "0:0.01:0.01",
            "--summary-out", str(tmp_path / "missing" / "summary.json")]
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("kept\n")
    for out in (new, old):
        code, stdout, err = run(capsys, *args, "--out", str(out))
        assert code == EXIT_USAGE and stdout == ""
        assert err.startswith("usage error: cannot write ") and err.count("\n") == 1
    assert not new.exists()
    assert old.read_text() == "kept\n"


def test_output_to_a_device_is_written_without_truncating_it(capsys):
    # a character device has no length to truncate
    sweep = ("sweep", "--n", "3", "--N", "100", "--r", "0:0.01:0.01", "--out", os.devnull)
    assert run(capsys, *sweep)[:2] == (EXIT_OK, "")
    compare = ("compare", "--n", "3", "--N", "102,103", "--M", "3", "--r", "0:0.01:0.01",
               "--summary-out", os.devnull)
    code, out, _ = run(capsys, *compare)
    assert code == EXIT_OK and out.startswith("r,numeric_N")


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
    # N and N' that keep the same levels 0, n, 2n, ... give one chain twice
    ["verify", "--check", "monotonic", "--n", "3", "--N", "1000,1001"],
    ["verify", "--check", "convex", "--N", "1000,1002"],
    ["verify", "--N", "4000,4001"],
    ["compare", "--N", "4000,4001"],
    ["compare", "--n", "4", "--N", "1001,1003", "--r", "0:0.01:0.01"],
    ["fit", "--n", "1", "--M", "3"],
    # a non-finite start, stop or step
    ["sweep", "--r", "0:inf:1"],
    ["sweep", "--r", "nan:1:0.1"],
    ["sweep", "--r", "0:nan:0.1"],
    ["sweep", "--r", "0:1:nan"],
    ["sweep", "--r", "0:1:inf"],
    ["compare", "--r", "0:1:-inf"],
    ["verify", "--check", "convex", "--r", "inf:inf:1"],
    # every check reads --r, so a bad grid is refused whichever check runs
    ["verify", "--check", "c2", "--r", "nonsense"],
    ["verify", "--check", "closed-form", "--r", "0:nan:0.1"],
    # verify compares the chain with a 64-level oracle, so n must stay below 64
    ["verify", "--n", "64"],
    ["verify", "--n", "241"],
    ["verify", "--n", "2000", "--check", "positivity"],
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
        "BudgetExceededError", "commutator_diagonal_value", "generator",
        "VacuumSectorPropagator", "certify_truncation_pair", "expm_state",
        "second_derivative_check",
        "BosonPoly", "coefficients", "commutator",
        "fit_exponential", "multiply", "taylor_partial_sum", "verify_closed_form",
    }


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "3", "--N", "5", "--r", "0:0.1:0.1"],
    ["compare", "--n", "3", "--N", "6,7", "--M", "3", "--r", "0:0.1:0.1"],
    ["verify", "--check", "monotonic", "--n", "3", "--N", "9,10"],
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


def test_verify_levels_do_not_size_the_oracle(capsys):
    # --levels sizes only the exact checks; the chain is checked against a fixed 64-level oracle
    code, out, err = run(capsys, "verify", "--levels", "2100")
    assert code == EXIT_OK and err == ""
    for n in (1, 2, 3, 4):
        assert f"PASS closed-form n={n}" in out
        assert f"PASS norm-preservation n={n} (" in out
        assert f"PASS phase-invariance n={n} (" in out


@pytest.mark.parametrize("argv", [
    ["sweep", "--r", "0:1:1e-9"],
    # 200001 points: under the cap alone, over it at the six default truncations
    ["sweep", "--r", "0:1:5e-6"],
    ["sweep", "--r", "0:1e308:1e-308"],  # the point count overflows to inf
    ["compare", "--r", "0:1:1e-9"],
    ["verify", "--check", "monotonic", "--r", "0:1:1e-9"],
])
def test_oversized_r_grid_is_refused_before_it_is_built(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_BUDGET and out == ""
    assert err == f"error: resource budget exceeded: rows > {MAX_ROWS}\n"


def test_row_cap_counts_points_times_truncations(capsys, monkeypatch):
    monkeypatch.setattr(squeezelab.cli, "MAX_ROWS", 10)
    for argv, code in (
        (("sweep", "--r", "0:0.9:0.1", "--N", "10"), EXIT_OK),
        (("sweep", "--r", "0:1:0.1", "--N", "10"), EXIT_BUDGET),
        (("sweep", "--r", "0:0.4:0.1", "--N", "10,11"), EXIT_OK),
        (("sweep", "--r", "0:0.5:0.1", "--N", "10,11"), EXIT_BUDGET),
        (("compare", "--r", "0:0.9:0.1", "--N", "30,31", "--M", "5"), EXIT_OK),
        (("compare", "--r", "0:1:0.1", "--N", "30,31", "--M", "5"), EXIT_BUDGET),
        # positivity evaluates levels 0..--levels, one row each
        (("verify", "--check", "positivity", "--n", "1", "--r", "0:0:1", "--levels", "9"), EXIT_OK),
        (("verify", "--check", "positivity", "--n", "1", "--r", "0:0:1", "--levels", "10"),
         EXIT_BUDGET),
    ):
        assert run(capsys, *argv)[0] == code


def test_chain_too_long_for_the_solver_exits_with_budget_code(capsys):
    # at n = 1 the chain's bidiagonal solves leave floating-point range near N = 5 10^5;
    # at n = 50 and n = 90 the chain's Lanczos solve does, at N = 3000; at (17, 1000)
    # and (26, 6000) its eigenpairs no longer rebuild |0> to the amplitude tolerance
    for n, size, limit in ((1, 600_000, "range"), (50, 3000, "range"), (90, 3000, "range"),
                           (17, 1000, "precision"), (26, 6000, "precision")):
        code, out, err = run(capsys, "sweep", "--n", str(n), "--N", str(size), "--r", "0:0.1:0.1")
        assert code == EXIT_BUDGET and out == ""
        assert err.startswith("error: resource budget exceeded: ") and err.count("\n") == 1
        assert err.endswith(f"-site chain > floating-point {limit}\n")


def test_chain_build_over_its_memory_cap_exits_with_budget_code(capsys, monkeypatch):
    argv = ("sweep", "--n", "1", "--N", "2000", "--r", "0:0.1:0.1")
    assert run(capsys, *argv)[0] == EXIT_OK
    # the (1, 2000) build keeps 246 Ritz pairs, about 7 MB of basis, eigenvectors and Ritz
    # temporaries; at a 4 MB cap a growth step is refused before it allocates
    monkeypatch.setattr(squeezelab.evolve, "MAX_CHAIN_BYTES", 1 << 22)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BUDGET and out == ""
    assert err == "error: resource budget exceeded: 2000-site chain > 4 MB\n"


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_gated_workloads_pass_the_benchmark_output_check(capsys):
    sys.path.insert(0, str(PERFBENCH))
    try:
        from check import check_output
    finally:
        sys.path.remove(str(PERFBENCH))
    spec = json.loads((PERFBENCH / "workloads.json").read_text())
    gated = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]
    for name in (workload["name"] for workload in gated):
        workload = spec["workloads"][name]
        code, out, _ = run(capsys, *workload["argv"])
        reference = (PERFBENCH / workload["reference"]).read_text()
        assert code == EXIT_OK
        assert check_output(workload["check"], out, reference, spec["tolerances"]) == [], name


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


def test_fit_of_written_coefficients_matches_direct_fit(tmp_path, capsys):
    # coeffs writes every c_m exactly, so fitting the file prints the same bytes
    path = str(tmp_path / "coeffs.csv")
    assert run(capsys, "coeffs", "--n", "3", "--M", "20", "--out", path)[0] == EXIT_OK
    from_file = run(capsys, "fit", "--coeffs", path)
    assert from_file[0] == EXIT_OK
    assert from_file[1] == run(capsys, "fit", "--n", "3", "--M", "20")[1]


def coefficient_file(tmp_path, *rows):
    path = tmp_path / "coeffs.csv"
    path.write_text("\n".join(["n,m,numerator,denominator,decimal", *rows]) + "\n")
    return str(path)


@pytest.mark.parametrize("rows", [
    ["3,2,18.5,1,18.5"],  # non-integer numerator
    ["3,2,18,0,inf"],  # zero denominator
    ["3,2,18"],  # missing fields
    ["3,2,18,1,18", "4,2,96,1,96"],  # two orders
    ["3,2,18,1,18", "3,4,-1188,1,-1188", "3,2,18,1,18"],  # a power twice
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
    ["compare", "--n", "3", "--N", "102,103", "--M", "3", "--r", "0:0.01:0.01",
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


def _absolute(amplitudes, levels):
    return np.abs(amplitudes)


def _unsigned(amplitudes, levels):
    # undoes the (-1)^(j//2) gauge sign on site j
    j = np.arange(len(levels))
    return amplitudes * (1 - 2 * (j // 2 % 2))[:, None]


@pytest.mark.parametrize("corrupt, failing", [
    # at real r every oracle amplitude is positive in this gauge, so only phase can see |.|
    (_absolute, ["phase"]),
    (_unsigned, ["norm", "phase"]),
])
def test_verify_catches_a_broken_chain(capsys, monkeypatch, corrupt, failing):
    chain_grid = squeezelab.evolve.VacuumSectorPropagator.chain_grid
    monkeypatch.setattr(squeezelab.evolve.VacuumSectorPropagator, "chain_grid",
                        lambda self, r: corrupt(chain_grid(self, r), self.levels))
    for check in failing:
        code, out, err = run(capsys, "verify", "--check", check)
        assert code == EXIT_CHECK_FAILED and err == ""
        lines = out.splitlines()
        assert len(lines) == 4 and all(line.startswith("FAIL ") for line in lines)


def test_verify_phase_spread_comes_from_the_oracle(capsys, monkeypatch):
    # an oracle whose |r| grows with arg r is not phase-covariant: <N> moves with the angle
    expm_state = squeezelab.evolve.expm_state
    monkeypatch.setattr(squeezelab.evolve, "expm_state", lambda n, r, size: expm_state(
        n, r * (1 + 0.1 * abs(math.sin(cmath.phase(r)))), size))
    code, out, err = run(capsys, "verify", "--check", "phase", "--n", "3")
    assert code == EXIT_CHECK_FAILED and err == ""
    match = re.fullmatch(r"FAIL phase-invariance n=3 \(spread (\S+), oracle \S+\)\n", out)
    assert match and float(match[1]) > 1e-9


def test_verify_monotonic(capsys):
    code, out, _ = run(capsys, "verify", "--check", "monotonic", "--n", "3",
                       "--N", "1002,1003", "--r", "0:0.3:0.01")
    assert code == EXIT_OK
    assert "PASS monotonic n=3" in out
    # the certified points are the grid's prefix that ends at r_max
    match = re.fullmatch(r"PASS monotonic n=3 \(certified region r <= (\S+) \((\d+) points\)\)\n",
                         out)
    points = int(match[2])
    assert points > 2 and match[1] == f"{parse_r_grid('0:0.3:0.01')[points - 1]:g}"


def test_verify_says_when_a_check_had_nothing_to_check(capsys):
    # no n = 4 pair certifies more than r = 0.005 of the default grid, and at n = 40 only r = 0
    code, out, _ = run(capsys, "verify")
    assert code == EXIT_OK
    vacuous = [line for line in out.splitlines() if "vacuous" in line]
    assert vacuous == ["PASS convex n=4 (0 interior points, vacuous)"]
    assert run(capsys, "verify", "--n", "40", "--check", "monotonic")[:2] == (
        EXIT_OK, "PASS monotonic n=40 (certified region r <= 0 (1 points, vacuous))\n")
    assert run(capsys, "verify", "--n", "40", "--check", "convex")[:2] == (
        EXIT_OK, "PASS convex n=40 (0 interior points, vacuous)\n")


def test_compare_all_converged_below_radius(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    summary_path = tmp_path / "cmp.json"
    code, _, _ = run(capsys, "compare", "--n", "3", "--N", "1002,1003",
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
        ["sweep", "--n", "3", "--r", "0:0.1:0.05", "--N", "201,202", "--out", "sweep.csv"],
        ["compare", "--n", "3", "--r", "0:0.1:0.05", "--N", "201,202", "--M", "4",
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
