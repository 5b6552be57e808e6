import argparse
import ast
import cmath
import csv
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import squeezelab
from squeezelab.algebra import MAX_LEVEL, MAX_M, chain_length, coefficients, fit_exponential
from squeezelab.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    MAX_ROWS,
    VERIFY_GRID,
    VERIFY_LEVELS,
    VERIFY_ORDERS,
    VERIFY_PAIR_FROM,
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


def test_verify_pairs_give_adjacent_chains(capsys):
    # verify's pair is fixed, so no argument check refuses one that repeats a chain
    code, out, _ = run(capsys, "verify", "--check", "monotonic")
    pairs = re.findall(r"^PASS monotonic n=(\d+) \(.*, N = (\d+),(\d+)\)$", out, re.MULTILINE)
    assert code == EXIT_OK and [int(n) for n, _, _ in pairs] == list(VERIFY_ORDERS)
    for n, N, N_next in pairs:
        assert chain_length(int(n), int(N_next)) - chain_length(int(n), int(N)) == 1


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


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_compare_refuses_one_regular_file_for_both_outputs(tmp_path, capsys, monkeypatch, existing):
    # the summary's truncate would wipe the rows just written through the other handle
    monkeypatch.chdir(tmp_path)
    both = tmp_path / "both.csv"
    if existing:
        both.write_text("kept\n")
    (tmp_path / "link.csv").symlink_to(both)
    for out, summary in (("both.csv", "./both.csv"), ("link.csv", str(both))):
        code, stdout, err = run(capsys, "compare", "--n", "3", "--N", "102,103", "--M", "3",
                                "--r", "0:0.01:0.01", "--out", out, "--summary-out", summary)
        assert code == EXIT_USAGE and stdout == ""
        assert err == f"usage error: {out} and {summary} name the same file\n"
    assert both.read_text() == "kept\n" if existing else not both.exists()
    assert (tmp_path / "link.csv").is_symlink()  # the caller's link stays, dangling or not


def test_unwritable_path_never_removes_what_it_does_not_name(tmp_path, capsys, monkeypatch):
    # "missing/../keep.csv" does not exist, as missing/ does not, yet it resolves to keep.csv
    monkeypatch.chdir(tmp_path)
    keep = tmp_path / "keep.csv"
    keep.write_text("kept\n")
    for out in ("missing/../keep.csv", "", "missing/.."):
        code, stdout, err = run(capsys, "sweep", "--n", "3", "--N", "100", "--r", "0:0.01:0.01",
                                "--out", out)
        assert code == EXIT_USAGE and stdout == ""
        assert err.startswith("usage error: cannot write ") and err.count("\n") == 1, err
    assert keep.read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["keep.csv"]


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
    ["verify", "--n", "0"],
    ["compare", "--N", "1000,1000"],
    # N and N' that keep the same levels 0, n, 2n, ... give one chain twice
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
    ["compare", "--r", "inf:inf:1"],
    ["compare", "--r", "nonsense"],
    # verify compares the chain with a 64-level oracle, so n must stay below 64
    ["verify", "--n", "64"],
    ["verify", "--n", "241"],
    ["verify", "--n", "2000", "--check", "positivity"],
    # a truncation that is not an integer
    ["sweep", "--N", "x"],
    ["sweep", "--N", "100,abc"],
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
    ["verify", "--levels", "10"],
    ["verify", "--N", "1002,1003"],
    ["verify", "--r", "0:0.1:0.1"],
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
        "fit": {"--n", "--out", "--M"},
        "verify": {"--check", "--n"},
        "compare": {"--n", "--out", "--r", "--N", "--M", "--summary-out"},
    }
    assert sum(map(len, options.values())) == 18


def test_library_surface():
    # the package's public names; a new record type or wrapper has to be added here on purpose
    assert set(squeezelab.__all__) == {
        "algebra", "evolve",
        "BudgetExceededError", "commutator_diagonal_value", "generator",
        "VacuumSectorPropagator", "certify_truncation_pair", "expm_state",
        "BosonPoly", "coefficients", "commutator",
        "fit_exponential", "multiply", "taylor_partial_sum", "verify_closed_form",
    }


def test_test_modules_mirror_the_source_modules():
    # one test module per source module, plus the two suites that cut across them; a test
    # module named after a source file that went fails here
    sources = {path.stem for path in Path(squeezelab.__file__).parent.glob("*.py")}
    tests = {path.stem for path in Path(__file__).parent.glob("test_*.py")}
    assert tests == ({f"test_{name}" for name in sources - {"__init__"}}
                     | {"test_acceptance", "test_demos"})


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "3", "--N", "5", "--r", "0:0.1:0.1"],
    ["compare", "--n", "3", "--N", "6,7", "--M", "3", "--r", "0:0.1:0.1"],
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
    # verify's help states its fixed configuration; argparse wraps it, so collapse whitespace
    code, out, _ = run(capsys, "verify", "--help")
    assert code == EXIT_OK
    assert (f"Run the invariant suite on levels 0..{VERIFY_LEVELS}, the r grid {VERIFY_GRID} and "
            f"the truncation pair N = n ceil({VERIFY_PAIR_FROM}/n), N + 1."
            in " ".join(out.split()))
    assert "--levels" not in out and "--N" not in out and "--r" not in out


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


@pytest.mark.parametrize("argv", [
    ["sweep", "--r", "0:1:1e-9"],
    # 200001 points: under the cap alone, over it at the six default truncations
    ["sweep", "--r", "0:1:5e-6"],
    ["sweep", "--r", "0:1e308:1e-308"],  # the point count overflows to inf
    ["compare", "--r", "0:1:1e-9"],
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
    # the (1, 2000) build keeps 246 Ritz pairs, about 5.4 MB of basis, even-site eigenvectors
    # and Ritz temporaries; at a 4 MB cap a growth step is refused before it allocates
    monkeypatch.setattr(squeezelab.evolve, "MAX_CHAIN_BYTES", 1 << 22)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BUDGET and out == ""
    assert err == "error: resource budget exceeded: 2000-site chain > 4 MB\n"


@pytest.mark.parametrize("argv, sites", [
    (["sweep", "--n", "3", "--N", "300", "--r", "1e307:1.5e307:1e307"], 100),
    (["compare", "--n", "3", "--N", "300,301", "--r", "1e307:1.5e307:1e307"], 100),
])
def test_r_whose_phase_overflows_exits_with_budget_code(capsys, argv, sites):
    # unchecked, lambda |r| overflows to inf and cos(inf) is nan, with RuntimeWarnings: sweep
    # would print nan rows as `ok`
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == EXIT_BUDGET and out == ""
    assert err == (f"error: resource budget exceeded: |r| on a {sites}-site chain "
                   f"> floating-point range\n")


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
    # the library's alpha, bit for bit, and the radius exp(-alpha) of it
    assert fit["alpha"] == fit_exponential(coefficients(3, 20))[0]
    assert fit["radius"] * math.exp(fit["alpha"]) == pytest.approx(1.0, rel=1e-15)


def test_fit_quadri_squeezed(capsys):
    code, out, _ = run(capsys, "fit", "--n", "4", "--M", "10")
    assert code == EXIT_OK
    fit = json.loads(out)
    assert 0.02 <= fit["radius"] <= 0.045
    assert 3.1 <= fit["alpha"] <= 3.7


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


def test_verify_closed_form_check(capsys):
    code, out, _ = run(capsys, "verify", "--check", "closed-form", "--n", "4")
    assert code == EXIT_OK
    assert "PASS closed-form n=4" in out


def test_verify_fast_checks(capsys):
    for check in ("positivity", "c2", "odd-zero", "phase"):
        code, out, _ = run(capsys, "verify", "--check", check)
        assert code == EXIT_OK, out
        assert "FAIL" not in out


def test_verify_odd_zero_check_can_fail(capsys, monkeypatch):
    # a Wick commutator that adds the identity gives <0|ad_A^m(a†a)|0> = 1 from m = 1 on
    commutator = squeezelab.algebra.commutator
    monkeypatch.setattr(squeezelab.algebra, "commutator",
                        lambda P, Q: commutator(P, Q) + squeezelab.algebra.BosonPoly({(0, 0): 1}))
    code, out, err = run(capsys, "verify", "--check", "odd-zero", "--n", "3")
    assert code == EXIT_CHECK_FAILED and err == ""
    assert out == "FAIL odd-coefficients-zero n=3 (odd coefficient m=1 is nonzero: 1/1!)\n"


def test_verify_odd_zero_check_asks_the_oracle_not_the_chain(capsys, monkeypatch):
    def broken(n, M):
        raise RuntimeError("the chain recurrence was called")

    monkeypatch.setattr(squeezelab.algebra, "coefficients", broken)
    code, out, err = run(capsys, "verify", "--check", "odd-zero")
    assert (code, err) == (EXIT_OK, "")
    assert out == "".join(f"PASS odd-coefficients-zero n={n}\n" for n in (1, 2, 3, 4))


def test_verify_norm_check_passes_a_working_n16_chain(capsys):
    # the oracle gap, 1.09e-10, is the phases' rounding floor: over AMPLITUDE_TOL, under
    # the tolerance 4 eps sqrt(16!) r = 4.1e-10
    code, out, _ = run(capsys, "verify", "--n", "16", "--check", "norm")
    assert code == EXIT_OK, out


def test_verify_phase_check_passes_working_chains_and_refuses_above_its_order(capsys):
    # at n = 15 the oracle puts 1.58e-9 off the chain, 78 eps sqrt(15!) |r|, and at n = 17 and
    # 21 its <N> spreads by 1.5e-8 and 3.2e-6 over the angles: its rounding, not the chain's
    for n in (15, 17, 21):
        code, out, _ = run(capsys, "verify", "--n", str(n), "--check", "phase")
        assert code == EXIT_OK, out
    for argv in (("--check", "phase"), ()):  # the whole suite runs the phase check too
        code, out, err = run(capsys, "verify", "--n", "22", *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("usage error: verify's phase check resolves nothing above n = 21: 22; "
                       "choose another --check\n")
    assert run(capsys, "verify", "--n", "22", "--check", "norm")[0] == EXIT_OK


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
        # the n = 16 tolerance, raised to the rounding floor, still sees a broken chain
        code, out, _ = run(capsys, "verify", "--n", "16", "--check", check)
        assert code == EXIT_CHECK_FAILED and out.startswith("FAIL "), out


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
    code, out, _ = run(capsys, "verify", "--check", "monotonic", "--n", "3")
    assert code == EXIT_OK
    assert "PASS monotonic n=3" in out
    # the certified points are the grid's prefix that ends at r_max
    match = re.fullmatch(r"PASS monotonic n=3 \(certified region r <= (\S+) \((\d+) points\), "
                         r"N = 1002,1003\)\n", out)
    points = int(match[2])
    assert points > 2 and match[1] == f"{parse_r_grid(VERIFY_GRID)[points - 1]:g}"


def test_verify_says_when_a_check_had_nothing_to_check(capsys):
    # a check is vacuous when no r > 0 is certified: the default n = 4 pair certifies
    # r = 0.005 of the default grid, so no line is, and at n = 40 only r = 0 is certified
    code, out, _ = run(capsys, "verify")
    assert code == EXIT_OK and "vacuous" not in out
    assert "PASS convex n=4 (bulk - wall >= 192 at 2 certified points, N = 1000,1001)\n" in out
    assert run(capsys, "verify", "--n", "40", "--check", "monotonic")[:2] == (
        EXIT_OK,
        "PASS monotonic n=40 (certified region r <= 0 (1 points, vacuous), N = 1000,1001)\n")
    # at r = 0 the curvature is bulk = 2n n!, and wall = 0
    assert run(capsys, "verify", "--n", "40", "--check", "convex")[:2] == (
        EXIT_OK, f"PASS convex n=40 (bulk - wall >= {80 * math.factorial(40):.3g} "
                 "at 1 certified points, vacuous, N = 1000,1001)\n")
    # the oracle tolerance 4 eps sqrt(n!) 0.1 is 0.26 at n = 29 and 1.4 at n = 30
    for n in (29, 30):
        code, out, _ = run(capsys, "verify", "--n", str(n), "--check", "norm")
        assert code == EXIT_OK and out.endswith(", vacuous)\n") == (n == 30), out


def test_verify_convex_fails_where_the_wall_exceeds_the_bulk(capsys, monkeypatch):
    # the check reads the exact curvature bulk - wall: one certified point that bends down fails it
    grid_diagnostics = squeezelab.evolve.VacuumSectorPropagator.grid_diagnostics

    def bent(self, r_values):
        cols = grid_diagnostics(self, r_values)
        cols.wall[1] = 2 * cols.bulk[1]  # r = 0.005, certified at every default order
        return cols
    monkeypatch.setattr(squeezelab.evolve.VacuumSectorPropagator, "grid_diagnostics", bent)
    code, out, err = run(capsys, "verify", "--check", "convex")
    assert code == EXIT_CHECK_FAILED and err == ""
    lines = out.splitlines()
    assert [line.split(" (")[0] for line in lines] == [f"FAIL convex n={n}" for n in (1, 2, 3, 4)]
    assert all(re.search(r"bulk - wall >= -\S+ at \d+ certified points, N = \d+,\d+\)$", line)
               for line in lines)


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


def run_compare(tmp_path, capsys, n, N_pair, M, r_spec):
    """Rows of `squeezelab compare` (floats, and converged as a bool) and its summary."""
    out, summary = tmp_path / "compare.csv", tmp_path / "summary.json"
    code, _, err = run(capsys, "compare", "--n", str(n), "--N", N_pair, "--M", str(M),
                       "--r", r_spec, "--out", str(out), "--summary-out", str(summary))
    assert code == EXIT_OK, err
    with open(out) as handle:
        rows = [
            {key: value == "true" if key == "converged" else float(value)
             for key, value in row.items()}
            for row in csv.DictReader(handle)
        ]
    return rows, json.loads(summary.read_text())


def test_compare_table_zero_row(tmp_path, capsys):
    rows, _ = run_compare(tmp_path, capsys, 3, "501,502", 5, "0:0:1")
    row = rows[0]
    assert row["numeric_N"] == 0.0
    assert row["numeric_Nprime"] == 0.0
    assert row["taylor"] == 0.0
    assert row["converged"]


def test_compare_inside_radius_converges(tmp_path, capsys):
    rows, _ = run_compare(tmp_path, capsys, 3, "2001,2002", 20, "0:0.05:0.01")
    assert len(rows) == 6
    assert all(row["converged"] for row in rows)
    for row in rows:
        assert row["diff_num"] <= 1e-6
        assert row["diff_taylor"] <= 1e-6


def test_compare_beyond_radius_disagrees(tmp_path, capsys):
    rows, summary = run_compare(tmp_path, capsys, 3, "3000,3001", 20, "0.3:0.3:1")
    assert not rows[0]["converged"]
    assert summary["first_disagreement_r"] == 0.3


def test_compare_two_photon_never_disagrees(tmp_path, capsys):
    rows, summary = run_compare(tmp_path, capsys, 2, "800,801", 30, "0:0.5:0.05")
    assert len(rows) == 11
    assert all(row["converged"] for row in rows)
    assert summary["first_disagreement_r"] is None


def test_compare_csv_schema_and_summary(tmp_path, capsys):
    rows, summary = run_compare(tmp_path, capsys, 3, "501,502", 5, "0:0.01:0.01")
    lines = (tmp_path / "compare.csv").read_text().strip().split("\n")
    assert lines[0] == "r,numeric_N,numeric_Nprime,taylor,diff_num,diff_taylor,converged"
    assert len(lines) == 3
    assert summary["N_pair"] == [501, 502]
    assert summary["agree_tol"] == 1e-6
    assert summary["estimated_radius"] == pytest.approx(math.exp(-summary["alpha"]))


def test_compare_over_several_csv_blocks(tmp_path, capsys):
    # 10001 rows, three 4096-row blocks; the pair stops agreeing near r = 0.093
    rows, summary = run_compare(tmp_path, capsys, 3, "1002,1003", 20, "0:0.2:0.00002")
    assert len(rows) == 10001
    first = next(i for i, row in enumerate(rows) if row["r"] > 0 and not row["converged"])
    assert first > 4096
    assert summary["first_disagreement_r"] == rows[first]["r"]


def test_compare_summary_without_a_fit(tmp_path, capsys):
    # n = 1 has a single non-zero coefficient: the table is still written, with no radius
    rows, summary = run_compare(tmp_path, capsys, 1, "100,101", 5, "0:0.1:0.1")
    assert all(row["converged"] for row in rows)
    assert summary["estimated_radius"] is None and summary["alpha"] is None


MODULES_PROBE = """
import sys
import {module}
for argv in {runs!r}:
    assert squeezelab.cli.main(argv) == {code}, argv
print(sorted({{name.split(".")[0] for name in sys.modules}}))
"""


def probe_env(**variables):
    """os.environ without a caller's OpenBLAS timeout, with `variables` and this source tree."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    path = [str(Path(squeezelab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return dict(env, PYTHONPATH=os.pathsep.join(path), **variables)


def modules_after(tmp_path, *runs, module="squeezelab.cli", code=EXIT_OK):
    """Top-level modules a fresh interpreter holds after `import module` and the CLI calls `runs`."""
    done = subprocess.run(
        [sys.executable, "-c", MODULES_PROBE.format(module=module, runs=list(runs), code=code)],
        cwd=tmp_path, env=probe_env(),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


def test_sweep_and_compare_never_import_scipy(tmp_path):
    # loading scipy would be most of a CLI start; every command runs on numpy alone
    assert "scipy" not in modules_after(
        tmp_path,
        ["sweep", "--n", "3", "--r", "0:0.1:0.05", "--N", "201,202", "--out", "sweep.csv"],
        ["compare", "--n", "3", "--r", "0:0.1:0.05", "--N", "201,202", "--M", "4",
         "--out", "compare.csv", "--summary-out", "summary.json"],
    )


def test_verify_norm_check_never_imports_scipy(tmp_path):
    # the dense numpy eigendecomposition is the norm check's oracle
    assert "scipy" not in modules_after(tmp_path, ["verify", "--check", "norm"], ["verify"])


def test_coeffs_and_fit_never_import_scipy(tmp_path):
    assert "scipy" not in modules_after(
        tmp_path,
        ["coeffs", "--n", "3", "--M", "4", "--out", "coeffs.csv"],
        ["fit", "--n", "3", "--M", "6", "--out", "fit.json"],
    )


@pytest.mark.parametrize("module, runs, code, loads_numpy", [
    ("squeezelab", [], EXIT_OK, False),
    ("squeezelab.cli", [], EXIT_OK, False),
    ("squeezelab.cli", [["coeffs", "--n", "3", "--M", "6", "--out", "coeffs.csv"],
                        ["fit", "--n", "3", "--M", "6", "--out", "fit.json"]], EXIT_OK, False),
    ("squeezelab.cli", [["verify", "--check", check]
                        for check in ("closed-form", "positivity", "c2", "odd-zero")], EXIT_OK, False),
    ("squeezelab.cli", [["coeffs", "--n", "0"]], EXIT_USAGE, False),
    # the control: a command that computes in floating point does load numpy
    ("squeezelab.cli", [["sweep", "--n", "3", "--r", "0:0.1:0.05", "--N", "201,202",
                         "--out", "sweep.csv"]], EXIT_OK, True),
], ids=["import-package", "import-cli", "coeffs-fit", "exact-verify", "usage-error", "sweep"])
def test_numpy_loads_only_for_floating_point_commands(tmp_path, module, runs, code, loads_numpy):
    assert ("numpy" in modules_after(tmp_path, *runs, module=module, code=code)) is loads_numpy


TIMEOUT_PROBE = """
import os
import sys
{preload}
import squeezelab.cli

at_numpy_import = []


class Watch:  # records the variable at the moment numpy is first looked for
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not at_numpy_import:
            at_numpy_import.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))


sys.meta_path.insert(0, Watch())
before = dict(os.environ)
assert squeezelab.cli.main({argv!r}) == 0
changed = {{k: os.environ.get(k) for k in before.keys() | os.environ.keys()
           if before.get(k) != os.environ.get(k)}}
print(repr((at_numpy_import, changed)))
"""


@pytest.mark.parametrize("variables, preload, at_numpy_import, changed", [
    # the default is in place before numpy, and so OpenBLAS, loads
    ({}, "", ["4"], {"OPENBLAS_THREAD_TIMEOUT": "4"}),
    # a caller's value is left as it is
    ({"OPENBLAS_THREAD_TIMEOUT": "20"}, "", ["20"], {}),
    # the bundled OpenBLAS does not read the GotoBLAS name, so it is no opt-out, and stays as set
    ({"GOTO_THREAD_TIMEOUT": "20"}, "", ["4"], {"OPENBLAS_THREAD_TIMEOUT": "4"}),
    # once numpy is loaded the variable is read already, so main leaves it alone
    ({}, "import numpy", [], {}),
], ids=["default", "caller-openblas", "caller-goto", "numpy-loaded"])
def test_cli_sets_the_blas_thread_timeout_only_as_a_default(
        tmp_path, variables, preload, at_numpy_import, changed):
    argv = ["sweep", "--n", "3", "--r", "0:0.1:0.05", "--N", "201,202", "--out", "sweep.csv"]
    done = subprocess.run(
        [sys.executable, "-c", TIMEOUT_PROBE.format(preload=preload, argv=argv)],
        cwd=tmp_path, env=probe_env(**variables), capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert ast.literal_eval(done.stdout.strip().splitlines()[-1]) == (at_numpy_import, changed)


@pytest.mark.parametrize("argv", [
    # n = 1 chains are long enough that the second BLAS thread shares the work
    ["sweep", "--n", "1", "--N", "2000,2001", "--r", "0:1:0.01"],
    ["verify"],
], ids=["sweep-n1", "verify"])
def test_output_bytes_do_not_depend_on_the_blas_thread_timeout(tmp_path, argv):
    # the timeout decides only how the idle worker waits; 28 is OpenBLAS's own default
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "squeezelab.cli", *argv], cwd=tmp_path,
            env=probe_env(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", **variables),
            capture_output=True, check=True, timeout=120,
        ).stdout
        for variables in ({}, {"OPENBLAS_THREAD_TIMEOUT": "28"})
    ]
    assert outputs[0] == outputs[1] and len(outputs[0]) > 1000


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS caps its threads at the usable cores: both runs would match")
@pytest.mark.parametrize("argv", [
    # chains long enough that two BLAS threads split the build's products and eigensolves
    ["sweep", "--n", "1", "--N", "2000,2001", "--r", "0:1:0.01"],
    ["sweep", "--n", "3", "--N", "60000,60001", "--r", "0:1:0.005"],
    # here they split grid_diagnostics' products too
    ["sweep", "--n", "1", "--N", "2000,2001", "--r", "0:1:0.005"],
], ids=["sweep-n1", "sweep-n3-paper-scale", "sweep-n1-grid"])
def test_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, argv):
    # the chain is built and evaluated on one BLAS thread, whatever the caller's count
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "squeezelab.cli", *argv], cwd=tmp_path,
            env=probe_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
            capture_output=True, check=True, timeout=120,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outputs[0] == outputs[1] and len(outputs[0]) > 10000
