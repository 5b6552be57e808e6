"""Command-line front end emitting plot-ready CSV/JSON.

Subcommands: sweep, coeffs, fit, verify, compare.  This is the one module
that knows an output format: the library returns numbers, and the three CSV
tables, the fit and compare JSON and verify's PASS/FAIL lines are all
written here.  Exit codes: 0 success, 1 usage error, 2 failed verify check,
3 resource budget exceeded (--M above algebra.MAX_M, 2 n M above
algebra.MAX_LEVEL, or a verify norm check on more than
evolve.MAX_ORACLE_SIZE levels).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from . import algebra, evolve
from .fock import BudgetExceededError, FockDim, SqueezeParams, commutator_diagonal_value

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_BUDGET = 3

VERIFY_ORDERS = (1, 2, 3, 4)  # the orders verify checks without --n


class UsageError(ValueError):
    pass


def parse_r_grid(spec: str) -> list[float]:
    """Parse 'start:stop:step' into an inclusive ascending grid."""
    try:
        start_s, stop_s, step_s = spec.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise UsageError(f"bad r-grid spec {spec!r}, expected start:stop:step") from exc
    if start < 0 or stop < start or step <= 0:
        raise UsageError(f"r-grid must satisfy 0 <= start <= stop, step > 0: {spec!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + step * i for i in range(count)]


def parse_n_list(spec: str) -> list[int]:
    try:
        values = [int(tok) for tok in spec.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"bad truncation list {spec!r}") from exc
    if not values or values[0] < 2 or sorted(set(values)) != values:
        raise UsageError(f"truncation list must be strictly ascending integers >= 2: {spec!r}")
    return values


def check_args(args) -> None:
    """Reject out-of-range numbers, and a verify norm check over budget, before any work is done."""
    for flag, low in (("n", 1), ("M", 1), ("levels", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < low:
            raise UsageError(f"--{flag} must be >= {low}, got {value}")
    order = args.n if args.n is not None else max(VERIFY_ORDERS)
    if getattr(args, "N", None) and parse_n_list(args.N)[0] <= order:
        raise UsageError(f"every truncation in --N must exceed the order: {args.N!r}")
    if args.command == "verify" and args.check in (None, "norm"):
        if _norm_check_size(args.levels, order) > evolve.MAX_ORACLE_SIZE:
            raise BudgetExceededError("N", evolve.MAX_ORACLE_SIZE)


def _norm_check_size(levels: int, n: int) -> int:
    """Truncation of verify's norm check: --levels plus two steps of n, and at least 64."""
    return max(levels + 2 * n + 4, 64)


SWEEP_HEADER = "n,N,r,mean_photon,leakage,norm_error,status"
COMPARE_HEADER = "r,numeric_N,numeric_Nprime,taylor,diff_num,diff_taylor,converged"
COEFFS_HEADER = "n,m,numerator,denominator,decimal"


def _csv(header: str, rows) -> str:
    """`header`, then one line per row: floats (numpy's too) to 17 significant
    digits, booleans in lower case, anything else as str()."""
    def cell(value) -> str:
        if isinstance(value, (bool, np.bool_)):
            return str(bool(value)).lower()
        if isinstance(value, (float, np.floating)):
            return f"{value:.17g}"
        return str(value)

    lines = [header, *(",".join(map(cell, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _write(*outputs: tuple[str | None, str]) -> None:
    """Write each (path, text), to stdout where the path is None or "-".

    Every file is opened before any is written, so when one path cannot be
    written nothing is: files this call created are removed again, and
    existing files keep their contents.
    """
    new = [path for path, _ in outputs if path not in (None, "-") and not os.path.exists(path)]
    with contextlib.ExitStack() as stack:
        try:  # "a" creates a file without truncating it
            handles = [
                sys.stdout if path in (None, "-") else stack.enter_context(open(path, "a"))
                for path, _ in outputs
            ]
        except OSError as exc:
            for path in filter(os.path.exists, new):
                os.remove(path)
            raise UsageError(f"cannot write {exc.filename}: {exc.strerror}") from exc
        for handle, (_, text) in zip(handles, outputs):
            if handle is not sys.stdout:
                handle.truncate(0)
            handle.write(text)


def cmd_sweep(args) -> int:
    r_grid = parse_r_grid(args.r)
    rows = []
    for N in parse_n_list(args.N):
        stats = evolve.VacuumSectorPropagator(args.n, FockDim(N)).grid_diagnostics(r_grid)
        rows += [(args.n, N, r, *values, "ok") for r, *values in zip(r_grid, *stats)]
    _write((args.out, _csv(SWEEP_HEADER, rows)))
    return EXIT_OK


def _decimal(c: Fraction) -> str:
    """c's double to 17 significant digits, or c itself outside the normal double range."""
    try:
        x = float(c)
    except OverflowError:
        x = math.inf
    if c == 0 or sys.float_info.min <= abs(x) < math.inf:
        return f"{x:.17g}"
    with localcontext() as context:
        context.prec = 17
        return format((Decimal(c.numerator) / c.denominator).normalize(), ".17g")


def cmd_coeffs(args) -> int:
    series = algebra.coefficients(args.n, args.M)
    rows = [(series.n, m, c.numerator, c.denominator, _decimal(c)) for m, c in series.entries]
    _write((args.out, _csv(COEFFS_HEADER, rows)))
    return EXIT_OK


def read_coefficient_csv(path: str) -> algebra.CoefficientSeries:
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0].strip() != COEFFS_HEADER:
        raise UsageError(f"unexpected coefficient CSV header in {path}")
    entries = []
    n = None
    for line in filter(str.strip, lines[1:]):
        try:
            n_s, m_s, num_s, den_s, _dec = line.strip().split(",")
            n = int(n_s)
            entries.append((int(m_s), Fraction(int(num_s), int(den_s))))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad coefficient row {line.strip()!r} in {path}") from exc
    if n is None:
        raise UsageError(f"no coefficient rows in {path}")
    entries.sort()
    return algebra.CoefficientSeries(n=n, entries=entries)


def cmd_fit(args) -> int:
    if args.coeffs:
        series = read_coefficient_csv(args.coeffs)
    else:
        series = algebra.coefficients(args.n, args.M)
    try:
        fit = algebra.fit_exponential(series)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    record = {"n": fit.n, "M": len(series.entries), "points_used": fit.points_used,
              "alpha": fit.alpha, "alpha_stderr": fit.alpha_stderr, "radius": fit.radius}
    _write((args.out, json.dumps(record, indent=2) + "\n"))
    return EXIT_OK


def cmd_compare(args) -> int:
    """Taylor partial sum against the numerics at two truncations, row by row.

    A row converges when all three values agree to evolve.AGREE_TOL absolute
    and neither truncation leaks more than evolve.LEAK_TOL.
    """
    r_grid = parse_r_grid(args.r)
    n_pair = parse_n_list(args.N)
    if len(n_pair) != 2:
        raise UsageError("compare needs exactly two truncations, e.g. --N 4000,4001")
    series = algebra.coefficients(args.n, args.M)
    (photons_a, leak_a, _), (photons_b, leak_b, _) = (
        evolve.VacuumSectorPropagator(args.n, FockDim(N)).grid_diagnostics(r_grid) for N in n_pair
    )
    rows = []
    for r, pa, pb, la, lb in zip(r_grid, photons_a, photons_b, leak_a, leak_b):
        taylor = algebra.taylor_partial_sum(series, r)
        diffs = (abs(pa - pb), abs(taylor - pa), abs(taylor - pb))
        converged = (all(d <= evolve.AGREE_TOL for d in diffs)
                     and la <= evolve.LEAK_TOL and lb <= evolve.LEAK_TOL)
        rows.append((r, pa, pb, taylor, diffs[0], diffs[1], converged))
    try:
        fit = algebra.fit_exponential(series)
    except ValueError:  # fewer than FIT_POINTS non-zero coefficients
        fit = None
    summary = {
        "n": args.n,
        "M": args.M,
        "N_pair": n_pair,
        "agree_tol": evolve.AGREE_TOL,
        "estimated_radius": fit.radius if fit else None,
        "alpha": fit.alpha if fit else None,
        # the smallest r > 0 whose row does not converge
        "first_disagreement_r": next((row[0] for row in rows if row[0] > 0 and not row[-1]), None),
    }
    _write(
        (args.out, _csv(COMPARE_HEADER, rows)),
        (args.summary_out, json.dumps(summary, indent=2) + "\n"),
    )
    return EXIT_OK


def _verify_checks(args):
    """Yield (name, passed, detail) tuples for the requested checks."""
    orders = [args.n] if args.n is not None else VERIFY_ORDERS
    want = args.check

    if want in (None, "closed-form"):
        for n in orders:
            report = algebra.verify_closed_form(n, max_level=args.levels)
            detail = "" if report.ok else f"first mismatch at level {report.first_mismatch}"
            yield (f"closed-form n={n}", report.ok and report.vacuum_value_ok, detail)

    if want in (None, "positivity"):
        for n in orders:
            values = [commutator_diagonal_value(n, m) for m in range(args.levels + 1)]
            ok = all(v > 0 for v in values) and values[0] == math.factorial(n)
            yield (f"positivity n={n}", ok, f"min {min(values)}")

    if want in (None, "c2"):
        for n in orders:
            c2 = algebra.coefficients(n, 1).coefficient(2)
            ok = c2 == n * math.factorial(n)
            yield (f"c2 n={n}", ok, f"c2 = {c2}")

    if want in (None, "odd-zero"):
        for n in orders:
            try:
                algebra.coefficients(n, 5)  # raises if an odd coefficient is non-zero
            except AssertionError as exc:
                yield (f"odd-coefficients-zero n={n}", False, str(exc))
            else:
                yield (f"odd-coefficients-zero n={n}", True, "")

    if want in (None, "norm"):
        for n in orders:
            dim = FockDim(_norm_check_size(args.levels, n))
            amps = evolve.expm_state(SqueezeParams(n, 0.1), dim)
            error = abs(float(np.linalg.norm(amps)) - 1.0)
            yield (f"norm-preservation n={n}", error <= 1e-10, f"|norm-1| = {error:.2e}")

    if want in (None, "phase"):
        for n in orders:
            dim = FockDim(64)
            photons = []
            for theta in (0.0, math.pi / 4, math.pi / 2):
                r = 0.08 * complex(math.cos(theta), math.sin(theta))
                probs = np.abs(evolve.expm_state(SqueezeParams(n, r), dim)) ** 2
                photons.append(float(np.arange(dim.size) @ probs))
            spread = max(photons) - min(photons)
            yield (f"phase-invariance n={n}", spread <= 1e-9, f"spread {spread:.2e}")

    if want in (None, "monotonic", "convex"):
        n_pair = parse_n_list(args.N) if args.N else [1000, 1001]
        if len(n_pair) != 2:
            raise UsageError("monotonicity check needs exactly two truncations")
        r_grid = parse_r_grid(args.r) if args.r else parse_r_grid("0:0.5:0.005")
        for n in orders:
            r_max, photons = evolve.certify_truncation_pair(n, (n_pair[0], n_pair[1]), r_grid)
            # r_grid is ascending, so the certified points are a prefix of it
            certified = [r for r in r_grid if r <= r_max]
            values = list(photons[:len(certified)])
            if want in (None, "monotonic"):
                mono = all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
                yield (
                    f"monotonic n={n}", mono,
                    f"certified region r <= {r_max:g} ({len(certified)} points)",
                )
            if want in (None, "convex"):
                scale = max([abs(v) for v in values] + [1.0])
                second = [
                    values[i + 1] - 2 * values[i] + values[i - 1]
                    for i in range(1, len(values) - 1)
                ]
                convex = all(s >= -1e-8 * scale for s in second)
                yield (f"convex n={n}", convex, f"{len(second)} interior points")


def cmd_verify(args) -> int:
    all_ok = True
    for name, ok, detail in _verify_checks(args):
        status = "PASS" if ok else "FAIL"
        line = f"{status} {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeezelab",
        description="Numerics and exact algebra for generalized n-photon squeezed states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, grid=True):
        p.add_argument("--n", type=int, default=3, help="squeezing order")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if grid:
            p.add_argument("--r", default="0:1:0.005", help="grid as start:stop:step")

    p = sub.add_parser("sweep", help="mean photon number over (r, N)")
    common(p)
    p.add_argument("--N", default="2000,2001,4000,4001,6000,6001")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("coeffs", help="exact Taylor coefficients of <a†a>")
    common(p, grid=False)
    p.add_argument("--M", type=int, default=20, help="number of non-zero coefficients")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("fit", help="log-linear growth fit and convergence radius")
    common(p, grid=False)
    p.add_argument("--M", type=int, default=20)
    p.add_argument("--coeffs", default=None, help="read coefficients from CSV")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--check", default=None, choices=[
        "closed-form", "positivity", "c2", "odd-zero", "norm", "phase",
        "monotonic", "convex",
    ])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--levels", type=int, default=20)
    p.add_argument("--N", default=None, help="truncation pair for monotonicity")
    p.add_argument("--r", default=None, help="grid as start:stop:step")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="Taylor partial sum vs truncated numerics")
    common(p)
    p.add_argument("--N", default="4000,4001", help="pair of truncations")
    p.add_argument("--M", type=int, default=20)
    p.add_argument("--summary-out", default=None, help="summary JSON path (default stdout)")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a parse error; 2 is reserved here
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        check_args(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
