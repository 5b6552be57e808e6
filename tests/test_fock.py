import math

import numpy as np
import pytest

from squeezelab.evolve import VacuumSectorPropagator, certify_truncation_pair, expm_state
from squeezelab.fock import (
    chain_couplings,
    commutator_diagonal_value,
    generator,
    ladder_product,
)


def test_rejects_too_small_truncation():
    # a truncation must keep a level the generator reaches from |0>: size > n
    for n, size in [(1, 1), (1, 0), (3, 3), (4, 2)]:
        with pytest.raises(ValueError):
            VacuumSectorPropagator(n, size)
        with pytest.raises(ValueError):
            expm_state(n, 0.0, size)  # the r = 0 shortcut must not skip the check


@pytest.mark.parametrize("n", [0, -1])
def test_rejects_order_below_one(n):
    # unchecked, n = 0 would divide by zero in chain_length and n = -1 index out of range
    for size in (10, 1):
        with pytest.raises(ValueError):
            VacuumSectorPropagator(n, size)
        with pytest.raises(ValueError):
            generator(n, 0.1, size)
        with pytest.raises(ValueError):
            expm_state(n, 0.0, size)
    with pytest.raises(ValueError):
        certify_truncation_pair(n, (10, 11), [0.0])


def test_generator_band_matches_repeated_product():
    # the exact-integer band equals a†^n built by repeated matrix products
    size = 30
    adag = np.diag(np.sqrt(np.arange(1, size, dtype=float)), -1)
    for n in range(1, 5):
        K = generator(n, 1.0, size)
        repeated = np.linalg.matrix_power(adag, n)
        assert np.allclose(np.tril(K), repeated, rtol=1e-14, atol=0)


def test_generator_displacement_entries():
    K = generator(1, 1.0, 3)
    assert K[1, 0] == pytest.approx(1.0)
    assert K[2, 1] == pytest.approx(math.sqrt(2))
    assert K[0, 1] == pytest.approx(-1.0)
    assert K[1, 2] == pytest.approx(-math.sqrt(2))


def test_generator_zero_parameter():
    K = generator(3, 0.0, 10)
    assert np.count_nonzero(K) == 0


@pytest.mark.parametrize("n,r", [(1, 0.7), (2, 0.3 + 0.4j), (3, 0.1), (4, 1e-3 - 2j)])
def test_generator_anti_hermitian(n, r):
    K = generator(n, r, 20)
    assert np.max(np.abs(K + K.conj().T)) == 0.0


def test_generator_rejects_small_truncation():
    with pytest.raises(ValueError):
        generator(3, 0.1, 3)


@pytest.mark.parametrize("r", [math.nan, math.inf, complex(0.1, math.nan), complex(-math.inf, 0)])
def test_rejects_non_finite_parameter(r):
    with pytest.raises(ValueError):
        generator(3, r, 10)
    with pytest.raises(ValueError):
        expm_state(3, r, 10)


def test_generator_band_structure():
    rows, cols = np.nonzero(generator(3, 0.1, 10))
    assert sorted(set((cols - rows).tolist())) == [-3, 3]


def test_closed_form_n2_diagonal():
    assert [commutator_diagonal_value(2, m) for m in range(5)] == [2, 6, 10, 14, 18]


def test_closed_form_explicit_values():
    # n=3: 9 m^2 + 9 m + 6; n=4: 16 m^3 + 24 m^2 + 56 m + 24
    assert commutator_diagonal_value(3, 0) == 6
    assert commutator_diagonal_value(3, 1) == 24
    assert commutator_diagonal_value(4, 0) == 24
    for m in range(25):
        assert commutator_diagonal_value(1, m) == 1
        assert commutator_diagonal_value(2, m) == 4 * m + 2
        assert commutator_diagonal_value(3, m) == 9 * m**2 + 9 * m + 6
        assert commutator_diagonal_value(4, m) == 16 * m**3 + 24 * m**2 + 56 * m + 24


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_commutator_matches_closed_form(n):
    # truncation corrupts only the top band: compare rows/cols m < N - n
    size = 2 * n + 8
    a = np.diag(np.sqrt(np.arange(1, size, dtype=float)), 1)
    a_n = np.linalg.matrix_power(a, n)
    adag_n = a_n.T
    comm = a_n @ adag_n - adag_n @ a_n
    closed = np.diag([float(commutator_diagonal_value(n, m)) for m in range(size)])
    safe = size - n
    assert np.allclose(comm[:safe, :safe], closed[:safe, :safe], rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_closed_form_diagonal_minimum(n):
    values = [commutator_diagonal_value(n, m) for m in range(50)]
    assert all(v >= math.factorial(n) for v in values)
    assert values[0] == math.factorial(n)
    assert all(v > 0 for v in values)


def test_closed_form_is_the_ladder_difference():
    # on |m>, a^n a†^n = ladder_product(n, m) and a†^n a^n = ladder_product(n, m - n),
    # which is 0 for m < n; at m = jn the difference is the chain's b_j^2 - b_{j-1}^2
    for n in range(1, 9):
        for m in range(400):
            ladder = ladder_product(n, m) - ladder_product(n, m - n)
            assert commutator_diagonal_value(n, m) == ladder
        b2 = chain_couplings(n, 400 // n)
        assert b2[0] == math.factorial(n)
        assert [b - a for a, b in zip([0] + b2, b2)] == [
            commutator_diagonal_value(n, j * n) for j in range(len(b2))
        ]
