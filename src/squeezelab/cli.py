"""Command-line front end emitting plot-ready CSV/JSON.

Subcommands: sweep, coeffs, fit, verify, compare.  This is the one module
that knows an output format: the library returns numbers, and the three CSV
tables, the fit and compare JSON and verify's PASS/FAIL lines are all written
here.  Exit codes: 0 success, 1 usage error, 2 failed verify check, 3 resource
budget exceeded (--M above algebra.MAX_M, 2 n M above algebra.MAX_LEVEL, over
MAX_ROWS grid rows, a chain build over evolve.MAX_CHAIN_BYTES, or a chain out of
floating-point range or precision).  verify runs one fixed suite, set by the
VERIFY_* constants, on --n or VERIFY_ORDERS; it checks the chain against
evolve.expm_state at ORACLE_SIZE levels, so its --n stays below ORACLE_SIZE.

numpy and squeezelab.evolve are imported only inside the code that computes
in floating point: parse_r_grid, sweep, compare and verify's norm, phase,
monotonic and convex checks.  coeffs, fit, the exact verify checks and the
argument checks run on the standard library and squeezelab.algebra alone, so
they never pay numpy's import.

main sets OPENBLAS_THREAD_TIMEOUT to BLAS_THREAD_TIMEOUT before numpy loads, so
OpenBLAS's idle worker thread sleeps instead of spinning; a caller who sets
OPENBLAS_THREAD_TIMEOUT keeps that choice.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import repeat
from typing import TYPE_CHECKING

from . import algebra
from .algebra import BosonPoly, BudgetExceededError, commutator_diagonal_value

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_BUDGET = 3

VERIFY_ORDERS = (1, 2, 3, 4)  # the orders verify checks without --n
VERIFY_LEVELS = 20  # the closed-form and positivity checks cover levels 0..VERIFY_LEVELS
VERIFY_GRID = "0:0.5:0.005"  # the r grid of the norm, monotonic and convex checks
VERIFY_PAIR_FROM = 1000  # monotonic and convex certify N = n ceil(1000 / n) and N + 1
# Most rows one run may ask for: points times truncations for sweep, points for compare; rows
# stream out, and only per-r arrays are held.  At the cap, with one BLAS thread, sweep peaks at
# 66 MB (9 s) and compare at 152 MB (22-26 s): under 1 GB.
MAX_ROWS = 10**6
ORACLE_SIZE = 64  # levels of the dense oracle that verify checks the chain against
# verify's phase check compares the chain with the oracle at |r| = 0.08 e^(i theta).  Above
# this order it resolves nothing: at n = 22..27 the state there is the vacuum but for
# amplitudes of at most 7e-7, under its rounding tolerance of 1.5e-4 or more, from n = 28
# that tolerance passes 1, and from n = 22 the oracle's rounding at other angles passes it.
PHASE_MAX_ORDER = 21
_CSV_BLOCK = 1 << 12  # rows that _csv formats at once, column by column
# After start-up and after each threaded call, OpenBLAS's idle worker spins for
# 2**OPENBLAS_THREAD_TIMEOUT cycles (2**28 by default) before it sleeps.  The minimum, 4,
# puts it to sleep at once.  It only decides how the idle thread waits, never how a product
# is split, so output bytes do not change.  On 2 cores at OPENBLAS_NUM_THREADS=2, verify's
# CPU time fell 0.73 -> 0.43 s and sweep's 0.42 -> 0.28 s, with wall time unchanged.  Waking
# the sleeping worker costs more than it saves in the chain build's small eigensolves, so
# evolve runs the chain on one thread (verify's wall time then fell 0.297 -> 0.232 s).
BLAS_THREAD_TIMEOUT = "4"


class UsageError(ValueError):
    pass


def _r_grid_points(spec: str, rows_per_point: int = 1) -> tuple[float, float, int]:
    """(start, step, points) of 'start:stop:step', refused above MAX_ROWS rows."""
    try:
        start_s, stop_s, step_s = spec.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise UsageError(f"bad r-grid spec {spec!r}, expected start:stop:step") from exc
    if not (0 <= start <= stop < math.inf and 0 < step < math.inf):  # False for nan
        raise UsageError(f"r-grid must satisfy 0 <= start <= stop, step > 0, all finite: {spec!r}")
    span = (stop - start) / step + 1e-9  # inf where the ratio overflows
    if span >= MAX_ROWS or (int(span) + 1) * rows_per_point > MAX_ROWS:
        raise BudgetExceededError("rows", MAX_ROWS)
    return start, step, int(span) + 1


def parse_r_grid(spec: str) -> np.ndarray:
    """Parse 'start:stop:step' into an inclusive ascending float array."""
    import numpy as np

    start, step, count = _r_grid_points(spec)
    return start + step * np.arange(count)


def parse_n_list(spec: str) -> list[int]:
    try:
        values = [int(tok) for tok in spec.split(",") if tok]
    except ValueError as exc:
        raise UsageError(f"bad truncation list {spec!r}") from exc
    if not values or values[0] < 2 or sorted(set(values)) != values:
        raise UsageError(f"truncation list must be strictly ascending integers >= 2: {spec!r}")
    return values


def check_args(args) -> None:
    """Reject out-of-range numbers, and an r grid over budget, before any work."""
    for flag, low in (("n", 1), ("M", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < low:
            raise UsageError(f"--{flag} must be >= {low}, got {value}")
    if args.command == "verify" and args.n is not None and args.n >= ORACLE_SIZE:
        raise UsageError(f"verify --n must be below its oracle's {ORACLE_SIZE} levels: {args.n}")
    if (args.command == "verify" and args.check in (None, "phase")
            and args.n is not None and args.n > PHASE_MAX_ORDER):
        raise UsageError(f"verify's phase check resolves nothing above n = {PHASE_MAX_ORDER}: "
                         f"{args.n}; choose another --check")
    if args.command not in ("sweep", "compare"):
        return  # only these two take --N and --r; verify's are the VERIFY_* constants
    truncations = parse_n_list(args.N)
    if truncations[0] <= args.n:
        raise UsageError(f"every truncation in --N must exceed the order: {args.N!r}")
    if args.command == "compare":
        if len(truncations) != 2:
            raise UsageError("compare needs exactly two truncations, e.g. --N 6000,6001")
        if len({algebra.chain_length(args.n, N) for N in truncations}) == 1:
            raise UsageError(f"--N {args.N} gives the same n={args.n} chain twice, "
                             f"as floor((N-1)/n) is equal")
    _r_grid_points(args.r, len(truncations) if args.command == "sweep" else 1)


SWEEP_HEADER = "n,N,r,mean_photon,leakage,norm_error,status"
COMPARE_HEADER = "r,numeric_N,numeric_Nprime,taylor,diff_num,diff_taylor,converged"
COEFFS_HEADER = "n,m,numerator,denominator,decimal"


def _floats(values: np.ndarray) -> list[str]:
    """Each value to 17 significant digits, the one float format of every table."""
    return [f"{x:.17g}" for x in values.tolist()]


def _csv(header: str, blocks):
    """Yield `header`, then the rows of each block: columns of strings (or repeats) zipped."""
    yield header + "\n"
    for columns in blocks:
        yield "".join(",".join(row) + "\n" for row in zip(*columns))


def _write(*outputs) -> None:
    """Write each (path, lines) in turn, to stdout where the path is None or "-".

    Every file is opened before any line is drawn, so when one path cannot be
    written, or two paths name one regular file, nothing is: files this call
    created are removed again, and existing files keep their contents.  The
    lines stream to their handle.
    """
    created = []  # real paths of the files this call made: a symlink's target, not the link
    with contextlib.ExitStack() as stack:
        try:
            handles = []
            for path, _ in outputs:
                if path in (None, "-"):
                    handles.append(sys.stdout)
                    continue
                # decided at this open, so a file an earlier output made is not new
                new = not os.path.exists(path)
                handles.append(stack.enter_context(open(path, "a")))  # "a" does not truncate
                if new:  # only now does the path resolve: "missing/../f" never named ./f
                    created.append(os.path.realpath(path))
            # one file behind two handles would lose the first one's lines to the second's truncate
            files = [os.fstat(handle.fileno()) for handle in handles if handle is not sys.stdout]
            files = [(f.st_dev, f.st_ino) for f in files if stat.S_ISREG(f.st_mode)]
            if len(set(files)) < len(files):
                raise UsageError(f"{' and '.join(p for p, _ in outputs if p)} name the same file")
        except (OSError, UsageError) as exc:
            for path in created:
                os.remove(path)
            if isinstance(exc, UsageError):
                raise
            raise UsageError(f"cannot write {exc.filename}: {exc.strerror}") from exc
        for handle, (path, lines) in zip(handles, outputs):
            if handle is not sys.stdout and os.path.isfile(path):  # a device or pipe has no length
                handle.truncate(0)
            handle.writelines(lines)


def cmd_sweep(args) -> int:
    from . import evolve

    r_grid = parse_r_grid(args.r)
    stats = {N: evolve.VacuumSectorPropagator(args.n, N).grid_diagnostics(r_grid)
             for N in parse_n_list(args.N)}  # every N, before the first line is written
    blocks = ((repeat(str(args.n)), repeat(str(N)),
               *(_floats(a[first:first + _CSV_BLOCK])
                 for a in (r_grid, s.mean_photon, s.leakage, s.norm_error)), repeat("ok"))
              for N, s in stats.items() for first in range(0, len(r_grid), _CSV_BLOCK))
    _write((args.out, _csv(SWEEP_HEADER, blocks)))
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
    rows = [(str(args.n), str(m), str(c.numerator), str(c.denominator), _decimal(c))
            for m, c in algebra.coefficients(args.n, args.M)]
    _write((args.out, _csv(COEFFS_HEADER, [zip(*rows)])))
    return EXIT_OK


def cmd_fit(args) -> int:
    entries = algebra.coefficients(args.n, args.M)
    try:
        alpha, stderr, used = algebra.fit_exponential(entries)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    record = {"n": args.n, "M": len(entries), "points_used": used,
              "alpha": alpha, "alpha_stderr": stderr, "radius": math.exp(-alpha)}
    _write((args.out, [json.dumps(record, indent=2) + "\n"]))
    return EXIT_OK


def cmd_compare(args) -> int:
    """Taylor partial sum against the numerics at two truncations, one row per r.

    Every column is computed over the whole grid; the blocks only slice and format
    it.  A row converges when all three values agree to evolve.AGREE_TOL absolute
    and neither truncation leaks more than evolve.LEAK_TOL.
    """
    import numpy as np

    from . import evolve

    r_grid = parse_r_grid(args.r)
    n_pair = parse_n_list(args.N)
    entries = algebra.coefficients(args.n, args.M)
    a, b = (evolve.VacuumSectorPropagator(args.n, N).grid_diagnostics(r_grid) for N in n_pair)
    photons_a, photons_b = a.mean_photon, b.mean_photon
    taylor = np.array(algebra.taylor_partial_sum(entries, r_grid))
    diffs = np.abs(photons_a - photons_b), np.abs(taylor - photons_a)  # the two CSV columns
    converged = ((np.maximum(*diffs) <= evolve.AGREE_TOL)
                 & (np.abs(taylor - photons_b) <= evolve.AGREE_TOL)
                 & (a.leakage <= evolve.LEAK_TOL) & (b.leakage <= evolve.LEAK_TOL))
    try:
        alpha = algebra.fit_exponential(entries)[0]
    except ValueError:  # fewer than FIT_POINTS non-zero coefficients
        alpha = None
    summary = {
        "n": args.n,
        "M": args.M,
        "N_pair": n_pair,
        "agree_tol": evolve.AGREE_TOL,
        "estimated_radius": None if alpha is None else math.exp(-alpha),
        "alpha": alpha,
        # the smallest r > 0 whose row does not converge
        "first_disagreement_r": next(iter(r_grid[~converged & (r_grid > 0)].tolist()), None),
    }
    blocks = ((*(_floats(a[first:first + _CSV_BLOCK])
                 for a in (r_grid, photons_a, photons_b, taylor, *diffs)),
               ["true" if c else "false" for c in converged[first:first + _CSV_BLOCK].tolist()])
              for first in range(0, len(r_grid), _CSV_BLOCK))
    _write((args.out, _csv(COMPARE_HEADER, blocks)),
           (args.summary_out, [json.dumps(summary, indent=2) + "\n"]))
    return EXIT_OK


def _verify_checks(args):
    """Yield (name, passed, detail) tuples for the requested checks."""
    orders = [args.n] if args.n is not None else VERIFY_ORDERS
    want = args.check

    if want in (None, "closed-form"):
        for n in orders:
            mismatch = algebra.verify_closed_form(n, max_level=VERIFY_LEVELS)
            detail = "" if mismatch is None else f"first mismatch at level {mismatch}"
            yield (f"closed-form n={n}", mismatch is None, detail)

    if want in (None, "positivity"):
        for n in orders:
            values = [commutator_diagonal_value(n, m) for m in range(VERIFY_LEVELS + 1)]
            ok = all(v > 0 for v in values) and values[0] == math.factorial(n)
            yield (f"positivity n={n}", ok, f"min {min(values)}")

    if want in (None, "c2"):
        for n in orders:
            c2 = dict(algebra.coefficients(n, 1))[2]
            ok = c2 == n * math.factorial(n)
            yield (f"c2 n={n}", ok, f"c2 = {c2}")

    if want in (None, "odd-zero"):
        for n in orders:
            # m! c_m = <0| ad_A^m(a†a) |0>, A = a†^n - a^n: the Wick oracle, not the chain
            A = BosonPoly.raising(n) - BosonPoly.lowering(n)
            nested, detail = BosonPoly({(1, 1): 1}), ""
            for m in range(1, 6):
                nested = algebra.commutator(A, nested)
                value = nested.number_state_expectation(0)
                if m % 2 and value and not detail:
                    detail = f"odd coefficient m={m} is nonzero: {value}/{m}!"
            yield (f"odd-coefficients-zero n={n}", not detail, detail)

    if want not in (None, "norm", "phase", "monotonic", "convex"):
        return  # the exact checks above need neither numpy nor a chain
    import numpy as np

    from . import evolve

    r_grid = parse_r_grid(VERIFY_GRID)
    chain = functools.cache(lambda n: evolve.VacuumSectorPropagator(n, ORACLE_SIZE))

    def oracle_gap(n: int, r: complex) -> tuple[float, float]:
        """Largest |amplitude| gap of the chain at r, on all levels, to the oracle; oracle <N>."""
        gap = evolve.expm_state(n, r, ORACLE_SIZE)
        photons = float(np.arange(ORACLE_SIZE) @ np.abs(gap) ** 2)
        gap[chain(n).levels] -= chain(n).chain_grid([r])[:, 0]
        return float(np.abs(gap).max()), photons

    def rounding(n: int, r_abs: float, c: float) -> float:
        """c eps sqrt(n!) |r|: the oracle's rounding on one level at |r|."""
        # A backward-stable evaluation is exact for a generator off by about eps |T|, which
        # moves the state by eps |T| |r|; |T| grows like b_0 = sqrt(n!).  On the chain's
        # levels, over n = 10..28 at r = 0.1 and 0.08 e^(i theta), the gap measured at most
        # 2.8 eps sqrt(n!) |r| (1.09e-10 against 1.02e-10 at n = 16, r = 0.1), hence c = 4 at
        # real r.  At complex r the oracle also puts amplitude off the chain: over all levels,
        # n <= 21, |r| in {0.03, 0.05, 0.08, 0.1, 0.2} and 9 angles in [0, pi], the gap
        # measured at most 147 eps sqrt(n!) |r| (n = 14; 77.7 at n = 15, r = 0.08i), hence c = 256.
        return c * sys.float_info.epsilon * math.sqrt(math.factorial(n)) * r_abs

    if want in (None, "norm"):
        for n in orders:
            error = float(chain(n).grid_diagnostics(r_grid).norm_error.max())
            # the floor passes AMPLITUDE_TOL from n = 15 on and reaches 1 at n = 30 (vacuous)
            gap, tol = oracle_gap(n, 0.1)[0], max(evolve.AMPLITUDE_TOL, rounding(n, 0.1, 4))
            ok = error <= 1e-10 and gap <= tol
            yield (f"norm-preservation n={n}", ok,
                   f"|norm-1| = {error:.2e}, oracle {gap:.2e}{', vacuous' * (tol >= 1)}")

    if want in (None, "phase"):
        for n in orders:
            r_values = 0.08 * np.exp(1j * np.array([0, math.pi / 4, math.pi / 2]))
            # the chain sees only |r|, so the spread of <N> over the angles is the oracle's
            gaps, photons = zip(*(oracle_gap(n, r) for r in r_values))
            # an amplitude off by g moves <N> = sum_k k |psi_k|^2 by at most
            # sum_k k (2 |psi_k| g + g^2) <= (S - 1) (2 sqrt(S) g + S g^2) on S levels
            g, levels = rounding(n, 0.08, 256), ORACLE_SIZE
            spread_tol = max(1e-9, 2 * (levels - 1) * (2 * math.sqrt(levels) * g + levels * g * g))
            spread, gap = float(np.ptp(photons)), max(gaps)
            ok = spread <= spread_tol and gap <= max(evolve.AMPLITUDE_TOL, g)
            yield (f"phase-invariance n={n}", ok, f"spread {spread:.2e}, oracle {gap:.2e}")

    if want in (None, "monotonic", "convex"):
        for n in orders:
            N = n * -(-VERIFY_PAIR_FROM // n)  # N and N + 1 give adjacent chains
            r_max, cols = evolve.certify_truncation_pair(n, (N, N + 1), r_grid)
            # r_grid is ascending, so the certified points are a prefix of it
            points = int(np.searchsorted(r_grid, r_max, side="right"))
            vacuous = ", vacuous" * (not r_max > 0)  # no certified r > 0
            pair = f", N = {N},{N + 1}"
            if want in (None, "monotonic"):
                values = cols.mean_photon[:points]
                mono = bool(np.all(values[1:] >= values[:-1] - 1e-12))
                yield (f"monotonic n={n}", mono,
                       f"certified region r <= {r_max:g} ({points} points{vacuous}){pair}")
            if want in (None, "convex"):  # the exact curvature of the N chain
                margin = (cols.bulk[:points] - cols.wall[:points]).min(initial=math.inf)
                yield (f"convex n={n}", bool(margin >= 0),
                       f"bulk - wall >= {margin:.3g} at {points} certified points{vacuous}{pair}")


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
    # N divisible by 1..6, so each N, N + 1 pair gives two chains for n <= 6
    p.add_argument("--N", default="1980,1981,3960,3961,6000,6001")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("coeffs", help="exact Taylor coefficients of <a†a>")
    common(p, grid=False)
    p.add_argument("--M", type=int, default=20, help="number of non-zero coefficients")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("fit", help="log-linear growth fit and convergence radius")
    common(p, grid=False)
    p.add_argument("--M", type=int, default=20)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("verify", help="run the invariant suite", description=(
        f"Run the invariant suite on levels 0..{VERIFY_LEVELS}, the r grid {VERIFY_GRID} "
        f"and the truncation pair N = n ceil({VERIFY_PAIR_FROM}/n), N + 1."))
    p.add_argument("--check", default=None, choices=[
        "closed-form", "positivity", "c2", "odd-zero", "norm", "phase",
        "monotonic", "convex",
    ])
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="Taylor partial sum vs truncated numerics")
    common(p)
    p.add_argument("--N", default="6000,6001", help="pair of truncations")
    p.add_argument("--M", type=int, default=20)
    p.add_argument("--summary-out", default=None, help="summary JSON path (default stdout)")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    # OpenBLAS reads the variable once, as numpy loads it; a caller's own setting wins
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", BLAS_THREAD_TIMEOUT)
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
