"""Truncated bosonic operators on an N-level Fock basis.

Two operators are built here: the generator K = r a†^n - r* a^n of U_n(r),
which lives on the +/-n off-diagonals, and the commutator [a^n, a†^n],
which is diagonal in the number basis.  Matrix elements are square roots
of exact integer products, so no floating-point drift accumulates in the
sqrt((k+1)...(k+n)) factors even at large N.

The generator is built as a dense matrix, for the small-N oracle; the chain
needs only its couplings, which :func:`chain_couplings` forms.  Nothing here
loads scipy.
"""

from __future__ import annotations

import math

import numpy as np


class BudgetExceededError(RuntimeError):
    """A request exceeded a resource cap."""

    def __init__(self, parameter: str, limit):
        super().__init__(f"resource budget exceeded: {parameter} > {limit}")
        self.parameter = parameter
        self.limit = limit


def ladder_product(n: int, k: int) -> int:
    """(k+1)(k+2)...(k+n) = |<k+n| a†^n |k>|^2, an exact integer."""
    return math.prod(range(k + 1, k + n + 1))


def chain_couplings(n: int, sites: int) -> list[int]:
    """b_j^2 = ladder_product(n, jn) for j < `sites`, exact integers.

    b_j couples the vacuum-sector chain's sites j and j + 1, the Fock levels
    jn and (j+1)n.  b_j^2 - b_{j-1}^2 = commutator_diagonal_value(n, jn).
    """
    return [ladder_product(n, j * n) for j in range(sites)]


def generator(n: int, r: complex, size: int) -> np.ndarray:
    """The anti-Hermitian exponent K = r a†^n - r* a^n of U_n(r) on levels 0..size-1, dense."""
    if not (1 <= n < size and np.isfinite(r)):
        raise ValueError(f"need 1 <= n < size and a finite r, got n={n}, size={size}, r={r}")
    amps = np.sqrt([float(ladder_product(n, k)) for k in range(size - n)])
    r = complex(r)
    return np.diag(r * amps, -n) - np.conj(r) * np.diag(amps, n)


def commutator_diagonal_value(n: int, m: int) -> int:
    """Exact number-basis eigenvalue of [a^n, a†^n] at level m.

    Closed form: sum over k = 1..n of k! * C(n,k)^2 * (m)(m-1)...(m-(n-k-1)),
    with the empty product (k = n) equal to 1.  Strictly positive for all
    m >= 0, with minimum n! at m = 0.  It also equals
    <m|a^n a†^n|m> - <m|a†^n a^n|m> = ladder_product(n, m) - ladder_product(n, m - n).
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    total = 0
    for k in range(1, n + 1):
        term = math.factorial(k) * math.comb(n, k) ** 2
        for j in range(n - k):
            term *= m - j
        total += term
    return total
