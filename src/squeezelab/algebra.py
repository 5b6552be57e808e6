"""Exact Taylor coefficients of the mean photon number, and an independent boson algebra.

:func:`coefficients` integrates the vacuum-sector chain exactly.  Acting on
|0>, exp(r a†^n - r a^n) with real r only visits the levels jn, and the
amplitudes obey psi_j' = b_{j-1} psi_{j-1} - b_j psi_{j+1} with
b_j^2 = (jn+1)...(jn+n).  Writing psi_j = B_j phi_j with
B_j^2 = b_0^2 ... b_{j-1}^2 turns this into

    phi_j' = phi_{j-1} - b_j^2 phi_{j+1},    phi_0(0) = 1,

so every Taylor derivative phi_j[k] is an integer, and

    c_m = sum_j jn B_j^2 sum_k C(m,k) phi_j[k] phi_j[m-k] / m!

is an exact rational, passed around as (m, c_m) pairs.  Each step moves j by
one, so phi_j[k] = 0 unless j = k (mod 2): the series is even in r, and only
even m are summed.  For n >= 3 the c_m grow like e^(alpha m);
:func:`fit_exponential` fits alpha to the last few of them, and the radius
of convergence is exp(-alpha).  Matrix elements of a†^n are
square roots of the exact integer products :func:`ladder_product`, and the
recurrence uses only these integers, so no rounding enters at any level.

:class:`BosonPoly` stores normal-ordered polynomials as maps from monomial
keys (p, q), standing for a†^p a^q, to exact rational coefficients, and
reorders products with the closed-form Wick contraction

    (a†^p a^q)(a†^p' a^q') = sum_k k! C(q,k) C(p',k) a†^(p+p'-k) a^(q+q'-k).

It shares no code with the chain and serves as the independent oracle:
:func:`verify_closed_form`, verify's odd-order check and the tests use it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

# coefficients(n, M) refuses M > MAX_M and 2nM > MAX_LEVEL, the highest Fock
# level its chain reaches.  Run time grows like M^4 and the integers' size with
# the level: the slowest request both caps admit, n = 6 at M = 200, takes 14 s
# and 58 MB, and every numerator stays under 3200 digits, inside str()'s limit.
MAX_M = 200
MAX_LEVEL = 2400
# fit_exponential fits the last FIT_POINTS non-zero coefficients.
FIT_POINTS = 5


class BudgetExceededError(RuntimeError):
    """A request exceeded a resource cap."""

    def __init__(self, parameter: str, limit):
        super().__init__(f"resource budget exceeded: {parameter} > {limit}")
        self.parameter = parameter
        self.limit = limit


def ladder_product(n: int, k: int) -> int:
    """(k+1)(k+2)...(k+n) = |<k+n| a†^n |k>|^2 for k >= -n (0 for k < 0), an exact integer."""
    return math.perm(k + n, n)


def chain_length(n: int, size: int) -> int:
    """Sites of the order-n chain at truncation `size`, one per level 0, n, 2n, ... < size."""
    return (size - 1) // n + 1


def chain_couplings(n: int, sites: int) -> list[int]:
    """b_j^2 = ladder_product(n, jn) for j < `sites`, exact integers.

    b_j couples the vacuum-sector chain's sites j and j + 1, the Fock levels
    jn and (j+1)n.  b_j^2 - b_{j-1}^2 = commutator_diagonal_value(n, jn).
    """
    return [ladder_product(n, j * n) for j in range(sites)]


def commutator_diagonal_value(n: int, m: int) -> int:
    """Exact number-basis eigenvalue of [a^n, a†^n] at level m.

    Closed form for levels m >= 0: sum over k = 1..n of k! * C(n,k)^2 times
    the falling factorial m(m-1)...(m-n+k+1) = perm(m, n-k), which is 1 at
    k = n; a level m < 0 raises ValueError.  Strictly positive, with minimum
    n! at m = 0.  It also equals
    <m|a^n a†^n|m> - <m|a†^n a^n|m> = ladder_product(n, m) - ladder_product(n, m - n).
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return sum(math.factorial(k) * math.comb(n, k) ** 2 * math.perm(m, n - k)
               for k in range(1, n + 1))


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
    def lowering(cls, n: int = 1) -> "BosonPoly":
        """a^n"""
        return cls({(0, n): 1})

    @classmethod
    def raising(cls, n: int = 1) -> "BosonPoly":
        """a†^n"""
        return cls({(n, 0): 1})

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
        """<m| P |m> for m >= 0: each diagonal monomial a†^p a^p contributes perm(m, p)."""
        return sum((c * math.perm(m, p) for (p, q), c in self.terms.items() if p == q), Fraction(0))

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

    Computed from the integer chain recurrence of the module docstring.  The
    odd orders are not formed: phi_j[k] = 0 unless j = k (mod 2), so at odd m
    one of phi_j[k], phi_j[m-k] is 0 in every product, and c_m = 0.  verify
    checks that against the nested commutators of :class:`BosonPoly`.
    Raises :class:`BudgetExceededError` for M > MAX_M or 2nM > MAX_LEVEL
    before doing any work.
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
    for m in range(2, top + 1, 2):  # k < m/2 stands for k and m - k, the middle k = m/2 for itself
        total = sum((2 - (2 * k == m)) * math.comb(m, k) * sum(map(mul, weighted[k], phi[m - k]))
                    for k in range(m // 2 + 1))
        entries.append((m, Fraction(total, math.factorial(m))))
    return entries


def taylor_partial_sum(entries: list[tuple[int, Fraction]], r: float) -> float:
    """Partial sum of the (m, c_m) series at r, exact until one final rounding.

    Over one common denominator D, with a_m = c_m D and r = k / 2^e exactly,
    the sum is  sum_m a_m k^m 2^(e(P-m)) / (D 2^(eP))  for the top power P.
    Horner's rule runs on that integer numerator, each step multiplying by k
    to the gap down to the next lower power, so the powers m may have any
    gaps.  The one int / int division is correctly rounded, as float() of
    the same rational is.
    """
    if not 0 <= r < math.inf:  # refuses nan too
        raise ValueError(f"need finite r >= 0, got r={r}")
    k, scale = r.as_integer_ratio()  # scale = 2^e
    e = scale.bit_length() - 1
    terms = sorted(entries, reverse=True)
    D = math.lcm(*(c.denominator for _, c in terms))
    top = power = terms[0][0] if terms else 0
    total = 0
    for m, c in terms:
        total = total * k ** (power - m) + (c.numerator * (D // c.denominator) << e * (top - m))
        power = m
    total *= k**power
    try:
        return total / (D << e * top)
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
    x = [m for m, _ in window]
    # math.log handles arbitrarily large ints, so split num/den before logging
    y = [math.log(c.numerator) - math.log(c.denominator) for _, c in window]
    xx = math.fsum(u * u for u in x)
    alpha = math.fsum(u * v for u, v in zip(x, y)) / xx
    rss = math.fsum((v - alpha * u) ** 2 for u, v in zip(x, y))
    stderr = math.sqrt(rss / (len(x) - 1) / xx)
    return alpha, stderr, x


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
