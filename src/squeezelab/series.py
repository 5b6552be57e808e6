"""Growth-rate fits, radius-of-convergence estimates, and Taylor-vs-numeric tables.

The Taylor coefficients of the mean photon number grow like e^(alpha m)
for n >= 3; an ordinary least-squares fit of ln(c_m) against m over the
last few computed points gives alpha, and the radius of convergence is
exp(-alpha).  Logs are taken of the exact rationals only at the very end,
so the huge integer coefficients never pass through floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import CoefficientSeries, coefficients, taylor_partial_sum
from .evolve import truncation_pair_diagnostics


def _log_fraction(c) -> float:
    # math.log handles arbitrarily large ints, so split num/den before logging
    return math.log(c.numerator) - math.log(c.denominator)


@dataclass
class FitResult:
    """Fitted exponential growth rate of series coefficients."""

    n: int
    points_used: list[int]
    alpha: float
    alpha_stderr: float

    @property
    def radius(self) -> float:
        return math.exp(-self.alpha)

    def to_dict(self, M: int | None = None) -> dict:
        return {
            "n": self.n,
            "M": M,
            "points_used": self.points_used,
            "alpha": self.alpha,
            "alpha_stderr": self.alpha_stderr,
            "radius": self.radius,
        }


def fit_exponential(series: CoefficientSeries, last_points: int = 5) -> FitResult:
    """Least-squares fit of ln(c_m) = alpha * m over the last non-zero entries.

    The model is the pure exponential c_m = e^(alpha m): a single-parameter
    regression through the origin.  (A free intercept shifts the slope well
    away from the radius relation R = e^(-alpha); the growth at accessible
    m still carries a sub-exponential correction that the intercept would
    otherwise absorb into the slope.)
    """
    usable = [(m, c) for m, c in series.entries if c != 0]
    if len(usable) < last_points:
        raise ValueError(
            f"series has {len(usable)} non-zero entries, need {last_points}"
        )
    if last_points < 2:
        raise ValueError("need at least 2 points to fit")
    window = usable[-last_points:]
    bad = [m for m, c in window if c < 0]
    if bad:
        raise ValueError(f"negative coefficients at m={bad}: log-linear fit undefined")
    x = np.array([m for m, _ in window], dtype=float)
    y = np.array([_log_fraction(c) for _, c in window])
    alpha = float(x @ y) / float(x @ x)
    resid = y - alpha * x
    stderr = math.sqrt(float(resid @ resid) / (len(x) - 1) / float(x @ x))
    return FitResult(
        n=series.n,
        points_used=[m for m, _ in window],
        alpha=alpha,
        alpha_stderr=stderr,
    )


@dataclass
class ComparisonRow:
    r: float
    numeric_N: float
    numeric_Nprime: float
    taylor: float
    diff_num: float
    diff_taylor: float
    converged: bool


@dataclass
class ComparisonTable:
    """Taylor partial sum vs two adjacent-truncation numerics over an r grid."""

    n: int
    M: int
    dims: tuple[int, int]
    rows: list[ComparisonRow] = field(default_factory=list)
    fit: FitResult | None = None

    CSV_HEADER = "r,numeric_N,numeric_Nprime,taylor,diff_num,diff_taylor,converged"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for row in self.rows:
            lines.append(
                f"{row.r:.17g},{row.numeric_N:.17g},{row.numeric_Nprime:.17g},"
                f"{row.taylor:.17g},{row.diff_num:.17g},{row.diff_taylor:.17g},"
                f"{str(row.converged).lower()}"
            )
        return "\n".join(lines) + "\n"

    @property
    def first_disagreement_r(self) -> float | None:
        """Smallest grid r where the two numeric truncations disagree."""
        for row in self.rows:
            if not row.converged and row.r > 0:
                return row.r
        return None

    def summary(self, agree_tol: float) -> dict:
        return {
            "n": self.n,
            "M": self.M,
            "N_pair": list(self.dims),
            "agree_tol": agree_tol,
            "estimated_radius": self.fit.radius if self.fit else None,
            "alpha": self.fit.alpha if self.fit else None,
            "first_disagreement_r": self.first_disagreement_r,
        }


def compare_taylor_numeric(
    n: int,
    dim_pair: tuple[int, int],
    M: int,
    r_grid,
    agree_tol: float = 1e-6,
    series: CoefficientSeries | None = None,
) -> ComparisonTable:
    """Tabulate numeric mean photon number at two truncations against the
    M-term Taylor partial sum, flagging the rows where all three agree."""
    N_a, N_b = int(dim_pair[0]), int(dim_pair[1])
    if series is None:
        series = coefficients(n, M)
    r_grid = [float(r) for r in r_grid]
    (photons_a, leak_a, _), (photons_b, leak_b, _) = truncation_pair_diagnostics(
        n, (N_a, N_b), r_grid
    )
    table = ComparisonTable(n=n, M=M, dims=(N_a, N_b))
    table.fit = fit_exponential(series) if len(series.entries) >= 5 else None
    for r, pa, pb, la, lb in zip(r_grid, photons_a, photons_b, leak_a, leak_b):
        pa, pb, la, lb = float(pa), float(pb), float(la), float(lb)
        ts = taylor_partial_sum(series, r)
        diff_num = abs(pa - pb)
        diff_taylor = abs(ts - pa)
        converged = (
            diff_num <= agree_tol
            and diff_taylor <= agree_tol
            and abs(ts - pb) <= agree_tol
            and la <= 1e-10
            and lb <= 1e-10
        )
        table.rows.append(ComparisonRow(r, pa, pb, ts, diff_num, diff_taylor, converged))
    return table
