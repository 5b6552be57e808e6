import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from squeezelab.evolve import (
    NotConvergedError,
    StateVector,
    VacuumSectorPropagator,
    converged_region,
    expectation_diagonal,
    leakage,
    mean_photon,
    second_derivative_check,
    squeezed_state,
    sweep_photon_number,
)
from squeezelab.fock import (
    FockDim,
    SparseOperator,
    SqueezeParams,
    a_n_commutator_closed_form,
    generator,
)


def dense_exponential_state(n, r, size):
    """Independent oracle: scipy dense matrix exponential on the vacuum."""
    K = generator(SqueezeParams(n, r), FockDim(size)).to_dense()
    return expm(K)[:, 0]


def test_zero_generator_is_identity():
    dim = FockDim(16)
    w = squeezed_state(SqueezeParams(2, 0.0), dim, method="expm")
    assert np.array_equal(w.amplitudes, StateVector.vacuum(dim).amplitudes)


def test_coherent_state_amplitudes():
    # n=1, r=1 gives a coherent state: |amp_k| = e^(-1/2)/sqrt(k!)
    dim = FockDim(64)
    w = squeezed_state(SqueezeParams(1, 1.0), dim, method="expm")
    for k in range(25):
        expected = math.exp(-0.5) / math.sqrt(math.factorial(k))
        assert abs(w.amplitudes[k]) == pytest.approx(expected, abs=1e-12)


def test_two_photon_mean_matches_sinh():
    w = squeezed_state(SqueezeParams(2, 0.5), FockDim(200))
    assert mean_photon(w) == pytest.approx(math.sinh(1.0) ** 2, abs=1e-10)


@pytest.mark.parametrize("n,r,size", [
    (1, 0.8, 48),
    (2, 0.4, 64),
    (3, 0.3, 64),
    (4, 0.2, 64),
    (3, 0.15 + 0.1j, 64),
    (4, 0.05 - 0.2j, 64),
])
def test_chain_matches_dense_oracle(n, r, size):
    # complex r exercises the chain's phase factor (i e^{i arg r})^j
    state = squeezed_state(SqueezeParams(n, r), FockDim(size), method="chain")
    oracle = dense_exponential_state(n, r, size)
    assert np.linalg.norm(state.amplitudes - oracle) <= 1e-10
    assert state.norm_error <= 1e-10


@pytest.mark.parametrize("n,r,size", [
    (1, 0.8, 48),
    (2, 0.4, 64),
    (3, 0.3, 64),
    (4, 0.2, 64),
    (3, 0.15 + 0.1j, 64),
])
def test_expm_matches_dense_oracle(n, r, size):
    w = squeezed_state(SqueezeParams(n, r), FockDim(size), method="expm")
    oracle = dense_exponential_state(n, r, size)
    assert np.linalg.norm(w.amplitudes - oracle) <= 1e-10
    assert w.norm_error <= 1e-10


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    n_size=st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(n + 1, 96))),
    mag=st.floats(0.0, 0.5),
    theta=st.floats(-math.pi, math.pi),
)
def test_chain_matches_expm_property(n_size, mag, theta):
    n, size = n_size
    params = SqueezeParams(n, mag * complex(math.cos(theta), math.sin(theta)))
    chain = squeezed_state(params, FockDim(size), method="chain")
    oracle = squeezed_state(params, FockDim(size), method="expm")
    assert np.linalg.norm(chain.amplitudes - oracle.amplitudes) <= 1e-10


def test_squeezed_state_rejects_unknown_method():
    for method in ("auto", "krylov"):
        with pytest.raises(ValueError):
            squeezed_state(SqueezeParams(2, 0.1), FockDim(16), method=method)


def test_mean_photon_basis_states():
    dim = FockDim(8)
    assert mean_photon(StateVector.vacuum(dim)) == 0.0
    amps = np.zeros(8, dtype=complex)
    amps[1] = 1.0
    assert mean_photon(StateVector(dim, amps)) == 1.0


def test_displacement_mean_photon_is_r_squared():
    w = squeezed_state(SqueezeParams(1, 2.0), FockDim(128))
    assert mean_photon(w) == pytest.approx(4.0, abs=1e-8)


def test_expectation_diagonal_examples():
    dim = FockDim(12)
    vac = StateVector.vacuum(dim)
    assert expectation_diagonal(a_n_commutator_closed_form(3, dim), vac) == 6.0
    assert expectation_diagonal(a_n_commutator_closed_form(4, dim), vac) == 24.0
    one = np.zeros(12, dtype=complex)
    one[1] = 1.0
    assert expectation_diagonal(a_n_commutator_closed_form(2, dim), StateVector(dim, one)) == 6.0


def test_expectation_diagonal_rejects_offdiagonal():
    dim = FockDim(8)
    with pytest.raises(ValueError):
        expectation_diagonal(generator(SqueezeParams(1, 1.0), dim), StateVector.vacuum(dim))


def test_number_operator_expectation_equals_mean_photon():
    dim = FockDim(64)
    w = squeezed_state(SqueezeParams(3, 0.05), dim)
    number = SparseOperator(dim, np.diag(np.arange(64.0)))
    assert expectation_diagonal(number, w) == pytest.approx(mean_photon(w), abs=1e-14)


def test_leakage_trivial_cases():
    dim = FockDim(10)
    assert leakage(StateVector.vacuum(dim), 3) == 0.0
    top = np.zeros(10, dtype=complex)
    top[9] = 1.0
    assert leakage(StateVector(dim, top), 1) == 1.0
    with pytest.raises(ValueError):
        leakage(StateVector.vacuum(dim), 10)


def test_converged_state_has_tiny_leakage():
    w = squeezed_state(SqueezeParams(3, 0.05), FockDim(2000))
    assert leakage(w, 30) < 1e-12


def test_squeezed_state_zero_parameter_is_vacuum():
    w = squeezed_state(SqueezeParams(3, 0.0), FockDim(100))
    assert abs(w.amplitudes[0]) == pytest.approx(1.0, abs=1e-14)
    assert mean_photon(w) == pytest.approx(0.0, abs=1e-20)


def test_self_consistency_across_truncations_inside_radius():
    a = mean_photon(squeezed_state(SqueezeParams(3, 0.05), FockDim(2000)))
    b = mean_photon(squeezed_state(SqueezeParams(3, 0.05), FockDim(4000)))
    assert abs(a - b) <= 1e-8


def test_truncation_divergence_beyond_radius():
    # beyond R_3 the curves for adjacent effective truncations separate
    a = mean_photon(squeezed_state(SqueezeParams(3, 0.5), FockDim(6000)))
    b = mean_photon(squeezed_state(SqueezeParams(3, 0.5), FockDim(6001)))
    assert abs(a - b) / max(a, b) > 0.10


def test_norm_preservation_across_regimes():
    for n, r, size in [(1, 1.0, 200), (2, 0.8, 400), (3, 0.9, 3000), (4, 0.6, 3000)]:
        w = squeezed_state(SqueezeParams(n, r), FockDim(size))
        assert w.norm_error <= 1e-10


def test_phase_invariance_of_mean_photon():
    # Theorem: <a†a> depends on |r| only; the chain uses |r|, so check the oracle
    values = []
    for theta in (0.0, math.pi / 4, math.pi / 2):
        r = 0.1 * complex(math.cos(theta), math.sin(theta))
        w = squeezed_state(SqueezeParams(3, r), FockDim(64), method="expm")
        values.append(mean_photon(w))
    assert max(values) - min(values) <= 1e-9


def test_sweep_r_zero_rows():
    result = sweep_photon_number(3, [0.0], [100, 200])
    assert len(result.rows) == 2
    for row in result.rows:
        assert row.mean_photon == pytest.approx(0.0, abs=1e-20)
        assert row.status == "ok"


def test_sweep_matches_two_photon_closed_form():
    rs = [0.1, 0.2, 0.3, 0.4, 0.5]
    result = sweep_photon_number(2, rs, [500])
    for row in result.rows:
        assert row.mean_photon == pytest.approx(math.sinh(2 * row.r) ** 2, abs=1e-8)


def test_sweep_sorted_and_complete():
    result = sweep_photon_number(3, [0.0, 0.1, 0.2], [300, 200, 100][::-1])
    keys = [(row.N, row.r) for row in result.rows]
    assert keys == sorted(keys)
    assert len(keys) == 9


def test_sweep_validates_grids():
    with pytest.raises(ValueError):
        sweep_photon_number(3, [], [100])
    with pytest.raises(ValueError):
        sweep_photon_number(3, [0.2, 0.1], [100])
    with pytest.raises(ValueError):
        sweep_photon_number(3, [0.1], [200, 100])


def test_sweep_csv_format():
    result = sweep_photon_number(2, [0.0, 0.1], [50])
    lines = result.to_csv().strip().split("\n")
    assert lines[0] == "n,N,r,mean_photon,leakage,norm_error,status"
    assert len(lines) == 3
    assert lines[1].startswith("2,50,0,")


def test_second_derivative_at_origin():
    fd, analytic = second_derivative_check(3, 0.0, FockDim(2000))
    assert analytic == pytest.approx(36.0, rel=1e-12)
    assert fd == pytest.approx(36.0, rel=1e-4)
    fd, analytic = second_derivative_check(4, 0.0, FockDim(2000))
    assert analytic == pytest.approx(192.0, rel=1e-12)
    assert fd == pytest.approx(192.0, rel=1e-3)


def test_second_derivative_displacement():
    fd, analytic = second_derivative_check(1, 0.5, FockDim(200))
    assert analytic == pytest.approx(2.0, rel=1e-12)
    assert fd == pytest.approx(2.0, rel=1e-6)


def test_second_derivative_agreement_inside_radius():
    fd, analytic = second_derivative_check(3, 0.08, FockDim(4000), h=1e-3)
    assert fd == pytest.approx(analytic, rel=1e-4)
    assert fd > 0 and analytic > 0


def test_second_derivative_flags_nonconverged():
    with pytest.raises(NotConvergedError):
        second_derivative_check(3, 0.9, FockDim(500))


def test_converged_region_entire_function():
    r_grid = np.arange(0, 1.0001, 0.05)
    top = converged_region(2, (800, 801), r_grid)
    assert top == pytest.approx(r_grid[-1])


def test_converged_region_stops_near_radius():
    r_grid = np.arange(0, 1.0001, 0.005)
    r_max = converged_region(3, (4000, 4001), r_grid)
    assert 0.0 < r_max <= 0.16


def test_converged_region_zero_always_qualifies():
    assert converged_region(3, (500, 501), [0.0]) == 0.0
    with pytest.raises(ValueError):
        converged_region(3, (500, 500), [0.0])


def test_monotone_and_convex_in_converged_region():
    r_grid = list(np.arange(0, 0.2001, 0.005))
    r_max = converged_region(3, (2000, 2001), r_grid)
    prop = VacuumSectorPropagator(3, FockDim(2000))
    values = [prop.mean_photon(r) for r in r_grid if r <= r_max]
    assert len(values) > 3
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12
    scale = max(values)
    for i in range(1, len(values) - 1):
        assert values[i + 1] - 2 * values[i] + values[i - 1] >= -1e-8 * scale
