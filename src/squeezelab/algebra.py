"""Exact Taylor coefficients of the mean photon number, and an independent boson algebra.

:func:`coefficients` integrates the vacuum-sector chain exactly.  Acting on
|0>, exp(r a†^n - r a^n) with real r only visits the levels jn, and the
amplitudes obey psi_j' = b_{j-1} psi_{j-1} - b_j psi_{j+1} with
b_j^2 = (jn+1)...(jn+n).  Writing psi_j = B_j phi_j with
B_j^2 = b_0^2 ... b_{j-1}^2 turns this into

    phi_j' = phi_{j-1} - b_j^2 phi_{j+1},    phi_0(0) = 1,

so every Taylor derivative phi_j[k] is an integer, and

    c_m = sum_j jn B_j^2 sum_k C(m,k) phi_j[k] phi_j[m-k] / m!

is an exact rational, passed around as (m, c_m) pairs.  For n >= 3 they grow
like e^(alpha m); :func:`fit_exponential` fits alpha to the last few of them,
and the radius of convergence is exp(-alpha).

:class:`BosonPoly` stores normal-ordered polynomials as maps from monomial
keys (p, q), standing for a†^p a^q, to exact rational coefficients, and
reorders products with the closed-form Wick contraction

    (a†^p a^q)(a†^p' a^q') = sum_k k! C(q,k) C(p',k) a†^(p+p'-k) a^(q+q'-k).

It shares no code with the chain and serves as the independent oracle:
:func:`verify_closed_form` and the tests use it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

import numpy as np

from .fock import BudgetExceededError, chain_couplings, commutator_diagonal_value, ladder_product

# coefficients(n, M) refuses M > MAX_M and 2nM > MAX_LEVEL, the highest Fock
# level its chain reaches.  Run time grows like M^4 and the integers' size with
# the level: the slowest request both caps admit, n = 6 at M = 200, takes 14 s
# and 58 MB, and every numerator stays under 3200 digits, inside str()'s limit.
MAX_M = 200
MAX_LEVEL = 2400
# fit_exponential fits the last FIT_POINTS non-zero coefficients.
FIT_POINTS = 5


class BosonPoly:
    """A finite rational linear combination of normal-ordered monomials a†^p a^q."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for (p, q), coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                clean[(int(p), int(q))] = coeff
        self.terms = clean

    @classmethod
    def monomial(cls, p: int, q: int, coeff=1) -> "BosonPoly":
        return cls({(p, q): Fraction(coeff)})

    @classmethod
    def lowering(cls, n: int = 1) -> "BosonPoly":
        """a^n"""
        return cls.monomial(0, n)

    @classmethod
    def raising(cls, n: int = 1) -> "BosonPoly":
        """a†^n"""
        return cls.monomial(n, 0)

    def __eq__(self, other):
        return isinstance(other, BosonPoly) and self.terms == other.terms

    def __add__(self, other: "BosonPoly") -> "BosonPoly":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + coeff
        return BosonPoly(out)

    def __neg__(self) -> "BosonPoly":
        return BosonPoly({key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other: "BosonPoly") -> "BosonPoly":
        return self + (-other)

    def number_state_expectation(self, m: int) -> Fraction:
        """<m| P |m>: only the diagonal monomials a†^p a^p contribute m!/(m-p)!."""
        total = Fraction(0)
        for (p, q), coeff in self.terms.items():
            if p == q and p <= m:
                falling = 1
                for j in range(p):
                    falling *= m - j
                total += coeff * falling
        return total

    def __repr__(self):
        if not self.terms:
            return "BosonPoly(0)"
        bits = []
        for (p, q), coeff in sorted(self.terms.items()):
            mono = "".join(filter(None, [f"ad^{p}" if p else "", f"a^{q}" if q else ""]))
            bits.append(f"{coeff}*{mono or '1'}")
        return "BosonPoly(" + " + ".join(bits) + ")"


def multiply(P: BosonPoly, Q: BosonPoly) -> BosonPoly:
    """Exact normal-ordered product of two polynomials."""
    out: dict[tuple[int, int], Fraction] = {}
    for (p, q), cp in P.terms.items():
        for (pp, qq), cq in Q.terms.items():
            c0 = cp * cq
            for k in range(min(q, pp) + 1):
                weight = math.factorial(k) * math.comb(q, k) * math.comb(pp, k)
                key = (p + pp - k, q + qq - k)
                out[key] = out.get(key, Fraction(0)) + c0 * weight
    return BosonPoly(out)


def commutator(P: BosonPoly, Q: BosonPoly) -> BosonPoly:
    return multiply(P, Q) - multiply(Q, P)


def coefficients(n: int, M: int) -> list[tuple[int, Fraction]]:
    """(m, c_m) for the first M non-zero Taylor coefficients of <a†a>_n, i.e. m = 2..2M.

    Computed from the integer chain recurrence of the module docstring; the
    odd orders are computed too and verified to vanish.  Raises
    :class:`BudgetExceededError` for M > MAX_M or 2nM > MAX_LEVEL before
    doing any work.
    """
    if n < 1 or M < 1:
        raise ValueError("need n >= 1 and M >= 1")
    if M > MAX_M:
        raise BudgetExceededError("M", MAX_M)
    if 2 * n * M > MAX_LEVEL:
        raise BudgetExceededError("2nM", MAX_LEVEL)
    top = 2 * M
    b2 = chain_couplings(n, top + 1)
    # phi[k][j] = phi_j[k] for j = 0..k; phi_j[k] = 0 for j > k
    phi = [[1]]
    for k in range(top):
        shifted = [0] + phi[-1] + [0, 0]  # shifted[j] = phi_{j-1}[k]
        phi.append([shifted[j] - b2[j] * shifted[j + 2] for j in range(k + 2)])
    # the pair sum is symmetric in k <-> m-k, so the smaller order k <= M carries
    # the weights; map() stops at its length k + 1, past which phi_j[k] = 0
    weights, B2 = [], 1
    for j in range(M + 1):
        weights.append(j * n * B2)
        B2 *= b2[j]
    weighted = [list(map(mul, weights, phi[k])) for k in range(M + 1)]
    entries = []
    factorial = 1
    for m in range(1, top + 1):
        factorial *= m
        total = 2 * sum(
            math.comb(m, k) * sum(map(mul, weighted[k], phi[m - k]))
            for k in range((m + 1) // 2)
        )
        if m % 2 == 1:
            if total != 0:
                raise AssertionError(f"odd coefficient m={m} is nonzero: {total}/{m}!")
        else:
            half = m // 2
            total += math.comb(m, half) * sum(map(mul, weighted[half], phi[half]))
            entries.append((m, Fraction(total, factorial)))
    return entries


def taylor_partial_sum(entries: list[tuple[int, Fraction]], r: float) -> float:
    """Partial sum of the (m, c_m) series at r, accumulated exactly by Horner's rule.

    The powers m may have any gaps: each step multiplies by r to the gap down
    to the next lower power.
    """
    if not 0 <= r < math.inf:  # refuses nan too
        raise ValueError(f"need finite r >= 0, got r={r}")
    r_exact = Fraction(r)
    terms = sorted(entries, reverse=True)
    total, power = Fraction(0), terms[0][0] if terms else 0
    for m, c in terms:
        total = total * r_exact ** (power - m) + c
        power = m
    total *= r_exact**power
    try:
        return float(total)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def fit_exponential(entries: list[tuple[int, Fraction]]) -> tuple[float, float, list[int]]:
    """(alpha, alpha_stderr, points_used) of ln(c_m) = alpha * m over the last FIT_POINTS c_m != 0.

    The model is the pure exponential c_m = e^(alpha m): a single-parameter
    regression through the origin.  (A free intercept shifts the slope well
    away from the radius relation R = e^(-alpha); the growth at accessible
    m still carries a sub-exponential correction that the intercept would
    otherwise absorb into the slope.)  Logs are taken of the exact
    numerators and denominators, so the huge integers never pass through
    floating point.
    """
    usable = [(m, c) for m, c in entries if c != 0]
    if len(usable) < FIT_POINTS:
        raise ValueError(f"series has {len(usable)} non-zero entries, need {FIT_POINTS}")
    window = usable[-FIT_POINTS:]
    bad = [m for m, c in window if c < 0]
    if bad:
        raise ValueError(f"negative coefficients at m={bad}: log-linear fit undefined")
    x = np.array([m for m, _ in window], dtype=float)
    # math.log handles arbitrarily large ints, so split num/den before logging
    y = np.array([math.log(c.numerator) - math.log(c.denominator) for _, c in window])
    alpha = float(x @ y) / float(x @ x)
    resid = y - alpha * x
    stderr = math.sqrt(float(resid @ resid) / (len(x) - 1) / float(x @ x))
    return alpha, stderr, [m for m, _ in window]


def verify_closed_form(n: int, max_level: int = 20) -> int | None:
    """First level m <= max_level where three exact values of [a^n, a†^n] on |m> differ, or None.

    The three are the Wick commutator, the sum formula and the ladder difference,
    all exact integers; the ladder difference is, at m = jn, the chain's
    b_j^2 - b_{j-1}^2 that the curvature identity uses.  The sum formula is n!
    at m = 0, so agreement there gives the vacuum value n!.
    """
    symbolic = commutator(BosonPoly.lowering(n), BosonPoly.raising(n))
    for m in range(max_level + 1):
        rhs = commutator_diagonal_value(n, m)
        ladder = ladder_product(n, m) - ladder_product(n, m - n)
        if symbolic.number_state_expectation(m) != rhs or ladder != rhs:
            return m
    return None
