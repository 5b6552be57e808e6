"""Truncated bosonic operators on an N-level Fock basis.

Two operators are built here: the generator K = r a†^n - r* a^n of U_n(r),
which lives on the +/-n off-diagonals, and the commutator [a^n, a†^n],
which is diagonal in the number basis.  Matrix elements are square roots
of exact integer products, so no floating-point drift accumulates in the
sqrt((k+1)...(k+n)) factors even at large N.

The generator is built as a dense matrix, for the small-N oracle; the
chain propagator needs just the couplings.  Nothing here loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class BudgetExceededError(RuntimeError):
    """A request exceeded a resource cap."""

    def __init__(self, parameter: str, limit):
        super().__init__(f"resource budget exceeded: {parameter} > {limit}")
        self.parameter = parameter
        self.limit = limit


@dataclass(frozen=True)
class FockDim:
    """Truncated Fock basis keeping levels |0> .. |size-1>."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError(f"Fock truncation must keep at least 2 levels, got {self.size}")


@dataclass(frozen=True)
class SqueezeParams:
    """Order n and (possibly complex) squeezing parameter r of U_n(r)."""

    n: int
    r: complex

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"squeezing order must be >= 1, got {self.n}")
        if not np.isfinite(self.r):
            raise ValueError("squeezing parameter must be finite")


def ladder_product(n: int, k: int) -> int:
    """(k+1)(k+2)...(k+n) = |<k+n| a†^n |k>|^2, an exact integer."""
    return math.prod(range(k + 1, k + n + 1))


def _ladder_products(n: int, ks) -> np.ndarray:
    """sqrt(ladder_product(n, k)) for each k in `ks`.

    These are the matrix elements <k+n| a†^n |k>: the band of the generator
    and, at k = 0, n, 2n, ..., the couplings of the vacuum-sector chain.
    """
    return np.array([math.sqrt(ladder_product(n, k)) for k in ks], dtype=float)


def generator(params: SqueezeParams, dim: FockDim) -> np.ndarray:
    """The anti-Hermitian exponent K = r a†^n - r* a^n of U_n(r), as a dense complex matrix."""
    if dim.size <= params.n:
        raise ValueError(f"truncation {dim.size} must exceed squeezing order {params.n}")
    amps = _ladder_products(params.n, range(dim.size - params.n))
    r = complex(params.r)
    return np.diag(r * amps, -params.n) - np.conj(r) * np.diag(amps, params.n)


def commutator_diagonal_value(n: int, m: int) -> int:
    """Exact number-basis eigenvalue of [a^n, a†^n] at level m.

    Closed form: sum over k = 1..n of k! * C(n,k)^2 * (m)(m-1)...(m-(n-k-1)),
    with the empty product (k = n) equal to 1.  Strictly positive for all
    m >= 0, with minimum n! at m = 0.
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


def a_n_commutator_closed_form(n: int, dim: FockDim) -> np.ndarray:
    """Diagonal of [a^n, a†^n] in the number basis, from the exact closed form."""
    return np.array([commutator_diagonal_value(n, m) for m in range(dim.size)], dtype=float)
