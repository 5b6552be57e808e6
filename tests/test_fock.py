import math

import numpy as np
import pytest

from squeezelab.fock import (
    FockDim,
    SqueezeParams,
    a_n_commutator_closed_form,
    commutator_diagonal_value,
    generator,
)


def test_rejects_too_small_truncation():
    with pytest.raises(ValueError):
        FockDim(1)


def test_generator_band_matches_repeated_product():
    # the exact-integer band equals a†^n built by repeated matrix products
    size = 30
    adag = np.diag(np.sqrt(np.arange(1, size, dtype=float)), -1)
    for n in range(1, 5):
        K = generator(SqueezeParams(n, 1.0), FockDim(size)).toarray()
        repeated = np.linalg.matrix_power(adag, n)
        assert np.allclose(np.tril(K), repeated, rtol=1e-14, atol=0)


def test_generator_displacement_entries():
    K = generator(SqueezeParams(1, 1.0), FockDim(3)).toarray()
    assert K[1, 0] == pytest.approx(1.0)
    assert K[2, 1] == pytest.approx(math.sqrt(2))
    assert K[0, 1] == pytest.approx(-1.0)
    assert K[1, 2] == pytest.approx(-math.sqrt(2))


def test_generator_zero_parameter():
    K = generator(SqueezeParams(3, 0.0), FockDim(10)).toarray()
    assert np.count_nonzero(K) == 0


@pytest.mark.parametrize("n,r", [(1, 0.7), (2, 0.3 + 0.4j), (3, 0.1), (4, 1e-3 - 2j)])
def test_generator_anti_hermitian(n, r):
    K = generator(SqueezeParams(n, r), FockDim(20)).toarray()
    assert np.max(np.abs(K + K.conj().T)) == 0.0


def test_generator_rejects_small_truncation():
    with pytest.raises(ValueError):
        generator(SqueezeParams(3, 0.1), FockDim(3))


def test_generator_band_structure():
    K = generator(SqueezeParams(3, 0.1), FockDim(10)).tocoo()
    assert sorted(set((K.col - K.row).tolist())) == [-3, 3]


def test_closed_form_n2_diagonal():
    diag = a_n_commutator_closed_form(2, FockDim(5))
    assert diag.dtype == float
    assert np.array_equal(diag, [2, 6, 10, 14, 18])


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
    dim = FockDim(2 * n + 8)
    a = np.diag(np.sqrt(np.arange(1, dim.size, dtype=float)), 1)
    a_n = np.linalg.matrix_power(a, n)
    adag_n = a_n.T
    comm = a_n @ adag_n - adag_n @ a_n
    closed = np.diag(a_n_commutator_closed_form(n, dim))
    safe = dim.size - n
    assert np.allclose(comm[:safe, :safe], closed[:safe, :safe], rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_closed_form_diagonal_minimum(n):
    values = [commutator_diagonal_value(n, m) for m in range(50)]
    assert all(v >= math.factorial(n) for v in values)
    assert values[0] == math.factorial(n)
    assert all(v > 0 for v in values)
