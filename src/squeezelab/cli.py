"""Command-line front end emitting plot-ready CSV/JSON.

Subcommands: sweep, coeffs, fit, verify, compare.  Exit codes:
0 success, 1 usage error, 2 failed verify check, 3 resource budget exceeded
(--M above algebra.MAX_M, or 2 n M above algebra.MAX_LEVEL).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import algebra, evolve, series
from .fock import FockDim, SqueezeParams, commutator_diagonal_value

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_BUDGET = 3


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
    if not values or any(v < 2 for v in values) or sorted(values) != values:
        raise UsageError(f"truncation list must be ascending integers >= 2: {spec!r}")
    return values


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def cmd_sweep(args) -> int:
    r_grid = parse_r_grid(args.r)
    n_list = parse_n_list(args.N)
    result = evolve.sweep_photon_number(args.n, r_grid, n_list, tail=args.tail)
    _write(args.out, result.to_csv())
    return EXIT_OK


def cmd_coeffs(args) -> int:
    series_ = algebra.coefficients(args.n, args.M)
    _write(args.out, series_.to_csv())
    return EXIT_OK


def read_coefficient_csv(path: str) -> algebra.CoefficientSeries:
    entries = []
    n = None
    with open(path) as handle:
        header = handle.readline().strip()
        if header != algebra.CoefficientSeries.CSV_HEADER:
            raise UsageError(f"unexpected coefficient CSV header in {path}")
        for line in handle:
            if not line.strip():
                continue
            n_s, m_s, num_s, den_s, _dec = line.strip().split(",")
            n = int(n_s)
            entries.append((int(m_s), Fraction(int(num_s), int(den_s))))
    if n is None:
        raise UsageError(f"no coefficient rows in {path}")
    entries.sort()
    return algebra.CoefficientSeries(n=n, entries=entries)


def cmd_fit(args) -> int:
    if args.coeffs:
        series_ = read_coefficient_csv(args.coeffs)
    else:
        series_ = algebra.coefficients(args.n, args.M)
    try:
        fit = series.fit_exponential(series_, last_points=args.last_points)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write(args.out, json.dumps(fit.to_dict(M=len(series_.entries)), indent=2) + "\n")
    return EXIT_OK


def cmd_compare(args) -> int:
    r_grid = parse_r_grid(args.r)
    n_pair = parse_n_list(args.N)
    if len(n_pair) != 2:
        raise UsageError("compare needs exactly two truncations, e.g. --N 4000,4001")
    table = series.compare_taylor_numeric(
        args.n, (n_pair[0], n_pair[1]), args.M, r_grid, agree_tol=args.agree_tol
    )
    _write(args.out, table.to_csv())
    summary = json.dumps(table.summary(args.agree_tol), indent=2) + "\n"
    _write(args.summary_out, summary)
    return EXIT_OK


def _verify_checks(args):
    """Yield (name, passed, detail) tuples for the requested checks."""
    orders = [args.n] if args.n else [1, 2, 3, 4]
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
            # coefficients() raises if any odd coefficient is non-zero
            algebra.coefficients(n, max(2, min(5, args.M)))
            yield (f"odd-coefficients-zero n={n}", True, "")

    if want in (None, "norm"):
        for n in orders:
            dim = FockDim(max(args.levels + 2 * n + 4, 64))
            state = evolve.squeezed_state(SqueezeParams(n, 0.1), dim, method="expm")
            ok = state.norm_error <= 1e-10
            yield (f"norm-preservation n={n}", ok, f"|norm-1| = {state.norm_error:.2e}")

    if want in (None, "phase"):
        for n in orders:
            dim = FockDim(64)
            photons = []
            for theta in (0.0, math.pi / 4, math.pi / 2):
                r = 0.08 * complex(math.cos(theta), math.sin(theta))
                state = evolve.squeezed_state(SqueezeParams(n, r), dim, method="expm")
                photons.append(evolve.mean_photon(state))
            spread = max(photons) - min(photons)
            yield (f"phase-invariance n={n}", spread <= 1e-9, f"spread {spread:.2e}")

    if want in (None, "monotonic", "convex"):
        n_pair = parse_n_list(args.N) if args.N else [1000, 1001]
        if len(n_pair) != 2:
            raise UsageError("monotonicity check needs exactly two truncations")
        r_grid = parse_r_grid(args.r) if args.r else parse_r_grid("0:0.5:0.005")
        for n in orders:
            r_max, photons = evolve.certify_truncation_pair(
                n, (n_pair[0], n_pair[1]), r_grid,
                leak_tol=args.leak_tol, agree_tol=args.agree_tol,
            )
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
    p.add_argument("--tail", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("coeffs", help="exact Taylor coefficients of <a†a>")
    common(p, grid=False)
    p.add_argument("--M", type=int, default=20, help="number of non-zero coefficients")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("fit", help="log-linear growth fit and convergence radius")
    common(p, grid=False)
    p.add_argument("--M", type=int, default=20)
    p.add_argument("--last-points", type=int, default=5)
    p.add_argument("--coeffs", default=None, help="read coefficients from CSV")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--check", default=None, choices=[
        "closed-form", "positivity", "c2", "odd-zero", "norm", "phase",
        "monotonic", "convex",
    ])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--levels", type=int, default=20)
    p.add_argument("--M", type=int, default=5)
    p.add_argument("--N", default=None, help="truncation pair for monotonicity")
    p.add_argument("--r", default=None, help="grid as start:stop:step")
    p.add_argument("--leak-tol", type=float, default=evolve.DEFAULT_LEAK_TOL)
    p.add_argument("--agree-tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="Taylor partial sum vs truncated numerics")
    common(p)
    p.add_argument("--N", default="4000,4001", help="pair of truncations")
    p.add_argument("--M", type=int, default=20)
    p.add_argument("--agree-tol", type=float, default=1e-6)
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
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except algebra.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
