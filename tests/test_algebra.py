import io
import math
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import squeezelab.algebra
from squeezelab.algebra import (
    MAX_LEVEL,
    MAX_M,
    BosonPoly,
    BudgetExceededError,
    chain_couplings,
    coefficients,
    commutator,
    commutator_diagonal_value,
    ladder_product,
    multiply,
    taylor_partial_sum,
    verify_closed_form,
)
from squeezelab.cli import _decimal, main


def identity():
    return BosonPoly({(0, 0): 1})


def number():
    """a†a"""
    return BosonPoly({(1, 1): 1})


def vacuum_expectation(P):
    """<0| P |0>: the coefficient of the identity monomial."""
    return P.terms.get((0, 0), Fraction(0))


def nested_commutator(n, m):
    """m-fold nested commutator [A, [A, ... [A, a†a]]] with A = a†^n - a^n, in BosonPoly."""
    A = BosonPoly.raising(n) - BosonPoly.lowering(n)
    current = number()
    for _ in range(m):
        current = commutator(A, current)
    return current


def commutator_route_entries(n, M):
    """Reference Taylor data: c_m = <0| [A, a†a]_m |0> / m! for m = 2, 4, ..., 2M."""
    return [
        (m, vacuum_expectation(nested_commutator(n, m)) / math.factorial(m))
        for m in range(2, 2 * M + 1, 2)
    ]


def degree(P):
    return max((p + q for p, q in P.terms), default=0)


def ladder_matrices(size):
    """Dense truncated a and a† (independent of the package's operators)."""
    a = np.diag(np.sqrt(np.arange(1, size, dtype=float)), 1)
    return a, a.T


def normal_ordered_matrix(P, a, adag):
    """Matrix of sum c_pq a†^p a^q on the truncated basis."""
    total = np.zeros(a.shape, dtype=complex)
    for (p, q), coeff in P.terms.items():
        total += float(coeff) * (np.linalg.matrix_power(adag, p) @ np.linalg.matrix_power(a, q))
    return total


def test_a_adag_product():
    # a a† = a†a + 1
    result = multiply(BosonPoly.lowering(), BosonPoly.raising())
    assert result == BosonPoly({(1, 1): 1, (0, 0): 1})


def test_a2_adag2_product():
    # a² a†² = a†²a² + 4 a†a + 2
    result = multiply(BosonPoly.lowering(2), BosonPoly.raising(2))
    assert result == BosonPoly({(2, 2): 1, (1, 1): 4, (0, 0): 2})


def test_identity_is_multiplicative_unit():
    P = BosonPoly({(2, 1): Fraction(3, 7), (0, 3): -2})
    assert multiply(identity(), P) == P
    assert multiply(P, identity()) == P


def test_canonical_commutator():
    assert commutator(BosonPoly.lowering(), BosonPoly.raising()) == identity()


def test_commutator_a3_adag3_diagonal_values():
    # [a³, a†³] evaluated on number states must equal 9m² + 9m + 6
    comm = commutator(BosonPoly.lowering(3), BosonPoly.raising(3))
    for m in range(15):
        assert comm.number_state_expectation(m) == 9 * m**2 + 9 * m + 6


def test_number_with_raising_commutator():
    # [a†a, a†³] = 3 a†³
    result = commutator(number(), BosonPoly.raising(3))
    assert result == BosonPoly({(3, 0): 3})


def test_nested_commutator_order_zero():
    assert nested_commutator(3, 0) == number()


def test_nested_commutator_order_one():
    # [a†³ - a³, a†a] = -3(a†³ + a³)
    result = nested_commutator(3, 1)
    assert result == BosonPoly({(3, 0): -3, (0, 3): -3})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nested_commutator_order_two_is_2n_A_n(n):
    result = nested_commutator(n, 2)
    A_n = commutator(BosonPoly.lowering(n), BosonPoly.raising(n))
    for m in range(12):
        assert result.number_state_expectation(m) == 2 * n * A_n.number_state_expectation(m)


def test_vacuum_expectation_examples():
    assert vacuum_expectation(number()) == 0
    assert vacuum_expectation(multiply(BosonPoly.lowering(), BosonPoly.raising())) == 1
    A3 = commutator(BosonPoly.lowering(3), BosonPoly.raising(3))
    assert vacuum_expectation(A3) == 6


def test_coefficients_displacement_series_terminates():
    assert coefficients(1, 3) == [(2, Fraction(1)), (4, Fraction(0)), (6, Fraction(0))]


def test_coefficients_two_photon_match_sinh_expansion():
    # sinh²(2r) = sum_k (4r)^(2k) / (2 (2k)!)
    for m, c in coefficients(2, 6):
        assert c == Fraction(4**m, 2 * math.factorial(m))


@pytest.mark.parametrize("n,c2", [(1, 1), (2, 4), (3, 18), (4, 96)])
def test_leading_coefficient_is_n_times_n_factorial(n, c2):
    assert dict(coefficients(n, 1))[2] == c2 == n * math.factorial(n)


def test_coefficients_are_rational_and_odd_orders_vanish():
    # coefficients() forms only the even orders; the Wick oracle shows the odd ones vanish
    for n in range(1, 7):
        A, current = BosonPoly.raising(n) - BosonPoly.lowering(n), number()
        for m in range(1, 10):
            current = commutator(A, current)
            if m % 2:
                assert vacuum_expectation(current) == 0, (n, m)
    for n, M in ((3, 8), (1, 1), (6, 5)):
        entries = coefficients(n, M)
        assert all(isinstance(c, Fraction) for _, c in entries)
        assert [m for m, _ in entries] == list(range(2, 2 * M + 1, 2))


def test_budget_guard():
    # M is capped for every n, also n <= 2, whose commutators never grow in degree
    for n in range(1, 6):
        with pytest.raises(BudgetExceededError) as refused:
            coefficients(n, MAX_M + 1)
        assert (refused.value.parameter, refused.value.limit) == ("M", MAX_M)
    assert len(coefficients(2, MAX_M)) == MAX_M
    # the chain of order 2M reaches Fock level 2nM, which sets the integers' size
    for n, M in ((7, 172), (MAX_LEVEL // 2 + 1, 1)):
        with pytest.raises(BudgetExceededError) as refused:
            coefficients(n, M)
        assert (refused.value.parameter, refused.value.limit) == ("2nM", MAX_LEVEL)
    n = MAX_LEVEL // 2
    assert coefficients(n, 1) == [(2, n * math.factorial(n))]


@pytest.mark.parametrize("n,M", [(3, 20), (4, 10), (2, 30), (1, 10), (5, 8)])
def test_coefficients_match_commutator_route(n, M):
    assert coefficients(n, M) == commutator_route_entries(n, M)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(n=st.integers(1, 5), M=st.integers(1, 6))
def test_coefficients_match_commutator_route_property(n, M):
    assert coefficients(n, M) == commutator_route_entries(n, M)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_closed_form(n):
    assert verify_closed_form(n, max_level=20) is None
    symbolic = commutator(BosonPoly.lowering(n), BosonPoly.raising(n))
    assert symbolic.number_state_expectation(0) == math.factorial(n)
    for m in range(21):
        assert symbolic.number_state_expectation(m) == commutator_diagonal_value(n, m)


def test_verify_closed_form_explicit_n4():
    assert verify_closed_form(4, max_level=10) is None
    symbolic = commutator(BosonPoly.lowering(4), BosonPoly.raising(4))
    for m in range(11):
        assert symbolic.number_state_expectation(m) == 16 * m**3 + 24 * m**2 + 56 * m + 24


def test_falling_factorials_refuse_negative_levels():
    # ladder_product(n, k) is the product (k+1)...(k+n) for k >= -n (0 for k < 0), the
    # closed form is defined for m >= 0; below, math.perm raises instead of multiplying on
    for n in range(1, 7):
        assert [ladder_product(n, k) for k in range(-n, 30)] == [
            math.prod(range(k + 1, k + n + 1)) for k in range(-n, 30)]
    for call in (lambda: ladder_product(3, -4), lambda: commutator_diagonal_value(3, -1),
                 lambda: commutator_diagonal_value(1, -5)):
        with pytest.raises(ValueError):
            call()


def test_verify_closed_form_reports_first_mismatch(monkeypatch):
    # a sum formula that is off from level 7 on is caught there, and only there
    import squeezelab.algebra as algebra

    closed_form = algebra.commutator_diagonal_value
    monkeypatch.setattr(algebra, "commutator_diagonal_value",
                        lambda n, m: closed_form(n, m) + (m >= 7))
    assert verify_closed_form(3, max_level=6) is None
    assert verify_closed_form(3, max_level=20) == 7


def test_closed_form_explicit_values():
    # n=2: 4 m + 2; n=3: 9 m^2 + 9 m + 6; n=4: 16 m^3 + 24 m^2 + 56 m + 24
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
    a_n = np.linalg.matrix_power(ladder_matrices(size)[0], n)
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


def test_order_or_count_below_one_is_refused():
    # unguarded, n = 0 gives the closed form's empty sum 0 and an all-zero series, and M = 0
    # an empty series
    for call in (lambda: commutator_diagonal_value(0, 3), lambda: commutator_diagonal_value(-1, 0),
                 lambda: coefficients(0, 5), lambda: coefficients(3, 0)):
        with pytest.raises(ValueError):
            call()


def random_poly(rng, max_exp=3, n_terms=3):
    terms = {}
    for _ in range(n_terms):
        key = (rng.randint(0, max_exp), rng.randint(0, max_exp))
        terms[key] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return BosonPoly(terms)


def test_multiplication_is_associative():
    rng = random.Random(42)
    for _ in range(20):
        P, Q, S = (random_poly(rng) for _ in range(3))
        assert multiply(multiply(P, Q), S) == multiply(P, multiply(Q, S))


def test_multiplication_matches_matrix_representation():
    # matrix oracle: compare the normal-ordered product against truncated matrices
    rng = random.Random(3)
    size = 14
    a, adag = ladder_matrices(size)
    for _ in range(10):
        P, Q = random_poly(rng, max_exp=2), random_poly(rng, max_exp=2)
        product = multiply(P, Q)
        safe = size - 5  # truncation corrupts only the top rows/cols
        lhs = (normal_ordered_matrix(P, a, adag) @ normal_ordered_matrix(Q, a, adag))[:safe, :safe]
        rhs = normal_ordered_matrix(product, a, adag)[:safe, :safe]
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n,m", [(3, 3), (3, 4), (4, 2), (4, 3)])
def test_nested_commutator_matrix_oracle(n, m):
    poly = nested_commutator(n, m)
    size = degree(poly) + 4
    a, adag = ladder_matrices(size)
    A = np.linalg.matrix_power(adag, n) - np.linalg.matrix_power(a, n)
    B = np.diag(np.arange(size, dtype=complex))
    current = B
    for _ in range(m):
        current = A @ current - current @ A
    matrix_from_poly = normal_ordered_matrix(poly, a, adag)
    safe = size - degree(poly)  # truncation-safe block
    assert np.allclose(current[:safe, :safe], matrix_from_poly[:safe, :safe],
                       rtol=1e-10, atol=1e-8)


def test_taylor_partial_sum_zero():
    assert taylor_partial_sum(coefficients(3, 5), 0.0) == 0.0


def test_taylor_partial_sum_two_photon():
    sinh2 = math.sinh(0.2) ** 2
    assert taylor_partial_sum(coefficients(2, 20), 0.1) == pytest.approx(sinh2, abs=1e-12)
    # a series read from a file may hold any set of powers, gaps included
    gapped = [(2, Fraction(4)), (8, Fraction(-1, 3)), (11, Fraction(5))]
    half = Fraction(1, 2)
    assert taylor_partial_sum(gapped, 0.5) == float(4 * half**2 - half**8 / 3 + 5 * half**11)


def test_taylor_matches_numeric_inside_radius():
    from squeezelab.evolve import VacuumSectorPropagator

    numeric = VacuumSectorPropagator(3, 2000).grid_diagnostics([0.05])[0][0]
    assert taylor_partial_sum(coefficients(3, 20), 0.05) == pytest.approx(numeric, abs=1e-6)


def fraction_taylor_sum(entries, r):
    """The oracle: Horner's rule in Fractions, rounded once by float()."""
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


# series with gaps and either sign, some over a common denominator far from a power of 2
gapped_series = st.lists(
    st.tuples(st.integers(0, 60), st.builds(Fraction, st.integers(-10**40, 10**40),
                                            st.integers(1, 10**30))),
    max_size=12, unique_by=lambda term: term[0],
)
# 0, subnormals, and normal doubles up to where most of these series overflow
taylor_points = st.one_of(st.just(0.0), st.floats(0, 2.2250738585072014e-308),
                          st.floats(0, 1e7))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(entries=gapped_series, r=taylor_points)
def test_taylor_partial_sum_matches_fraction_horner(entries, r):
    # .hex() tells -0.0 from 0.0 and compares every bit
    assert taylor_partial_sum(entries, r).hex() == fraction_taylor_sum(entries, r).hex()


def test_taylor_partial_sum_overflows_where_the_exact_series_does():
    # at n = 3, M = 60 the partial sum passes the largest double from r = 32.89 on
    entries = coefficients(3, 60)
    assert taylor_partial_sum(entries, 33.0) == fraction_taylor_sum(entries, 33.0) == math.inf
    assert taylor_partial_sum(entries, 32.8) == fraction_taylor_sum(entries, 32.8) < math.inf


def coeffs_csv(n, M):
    """The CSV text that `squeezelab coeffs --n n --M M` writes to stdout."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["coeffs", "--n", str(n), "--M", str(M)]) == 0
    return out.getvalue()


def test_coefficient_csv_decimal_beyond_double_range():
    entries = [Fraction(1, 3), Fraction(12345 * 10**396), Fraction(1, 3 * 10**400)]
    assert [_decimal(c) for c in entries] == [
        "0.33333333333333331", "1.2345e+400", "3.3333333333333333e-401",
    ]
    # the largest integers the caps allow still print: n * n! at the top level
    csv = coeffs_csv(MAX_LEVEL // 2, 1)
    assert len(csv.split("\n")[1].split(",")[2]) > 3000


def test_taylor_partial_sum_beyond_double_range():
    entries = [(2, Fraction(10**400))]
    assert taylor_partial_sum(entries, 1.0) == math.inf
    assert taylor_partial_sum(entries, 1e-200) == pytest.approx(1.0)


@pytest.mark.parametrize("sign", [1, -1])
def test_taylor_partial_sum_overflow_keeps_sign(sign):
    assert taylor_partial_sum([(2, Fraction(sign * 10**300))], 1e10) == sign * math.inf


NUMPY_FREE_PROBE = """
import importlib.util, sys
sys.modules["numpy"] = None  # any numpy import now raises ImportError
spec = importlib.util.spec_from_file_location("algebra", {path!r})
algebra = importlib.util.module_from_spec(spec)
spec.loader.exec_module(algebra)
print(algebra.fit_exponential(algebra.coefficients(3, 20))[2])
"""


def test_algebra_runs_without_numpy_or_package_imports():
    # loaded by file path, outside its package: a relative import fails as a numpy import does
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_PROBE.format(path=squeezelab.algebra.__file__)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout.strip() == "[32, 34, 36, 38, 40]"


@pytest.mark.parametrize("r", [-0.1, math.nan, math.inf])
def test_taylor_partial_sum_refuses_r_outside_finite_nonnegative(r):
    with pytest.raises(ValueError):
        taylor_partial_sum(coefficients(3, 5), r)


def test_coefficient_csv_schema():
    lines = coeffs_csv(2, 2).strip().split("\n")
    assert lines[0] == "n,m,numerator,denominator,decimal"
    assert lines[1] == "2,2,4,1,4"
    assert lines[2].startswith("2,4,16,3,")


def test_observed_coefficient_signs_recorded():
    # no positivity claim is made; record that computed entries are non-negative
    for n, M in ((3, 10), (4, 6)):
        assert all(c >= 0 for _, c in coefficients(n, M))

