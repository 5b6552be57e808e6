import io
import math
import tracemalloc
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal, expm

from squeezelab import evolve
from squeezelab.evolve import (
    _TILE_ENTRIES,
    LEAK_TOL,
    MAX_ORACLE_SIZE,
    WINDOW_TOL,
    VacuumSectorPropagator,
    certify_truncation_pair,
    chain_length,
    expm_state,
    generator,
    second_derivative_check,
)
from squeezelab.algebra import BudgetExceededError, chain_couplings, commutator_diagonal_value
from squeezelab.cli import SWEEP_HEADER, main


def dense_exponential_state(n, r, size):
    """Independent oracle: scipy dense matrix exponential on the vacuum."""
    K = generator(n, r, size)
    return expm(K)[:, 0]


def chain_state(n, r, size):
    """The order-n chain's amplitudes at r, scattered onto all `size` Fock levels."""
    prop = VacuumSectorPropagator(n, size)
    amps = np.zeros(size, dtype=complex)
    amps[prop.levels] = prop.chain_grid([r])[:, 0]
    return amps


def mean_photon(amps):
    """<a†a> = sum_m m |amps_m|^2."""
    return expectation_diagonal(np.arange(len(amps)), amps)


def norm_error(amps):
    return abs(np.linalg.norm(amps) - 1.0)


def sweep_csv(*argv):
    """The CSV text that `squeezelab sweep argv` writes to stdout."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["sweep", *argv]) == 0
    return out.getvalue()


def sweep_rows(*argv):
    """Rows of `squeezelab sweep argv` as (N, r, mean_photon, leakage, norm_error, status)."""
    lines = sweep_csv(*argv).splitlines()
    assert lines[0] == SWEEP_HEADER
    rows = []
    for line in lines[1:]:
        _, N, r, photons, leak, err, status = line.split(",")
        rows.append((int(N), float(r), float(photons), float(leak), float(err), status))
    return rows


def vacuum(size):
    return np.eye(size, 1, dtype=complex)[:, 0]


def expectation_diagonal(diag, amps):
    """Expectation value of the number-basis-diagonal operator with diagonal `diag`."""
    return float(diag @ np.abs(amps) ** 2)


def commutator_diagonal(n, size):
    """Diagonal of [a^n, a†^n] on levels 0 .. size-1, as floats."""
    return np.array([commutator_diagonal_value(n, m) for m in range(size)], dtype=float)


def couplings(n, size):
    """The chain's couplings b_j at truncation `size`, for the LAPACK references."""
    return np.sqrt(np.array(chain_couplings(n, chain_length(n, size) - 1), dtype=float))


def test_rejects_too_small_truncation():
    # a truncation must keep a level the generator reaches from |0>: size > n
    for n, size in [(1, 1), (1, 0), (3, 3), (4, 2)]:
        with pytest.raises(ValueError):
            VacuumSectorPropagator(n, size)
        with pytest.raises(ValueError):
            generator(n, 0.1, size)
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


@pytest.mark.parametrize("r", [math.nan, math.inf, complex(0.1, math.nan), complex(-math.inf, 0)])
def test_rejects_non_finite_parameter(r):
    with pytest.raises(ValueError):
        generator(3, r, 10)
    with pytest.raises(ValueError):
        expm_state(3, r, 10)
    # a non-finite r is a bad argument, not a finite |r| whose phase overflows
    prop = VacuumSectorPropagator(3, 300)
    for call in (prop.grid_diagnostics, prop.chain_grid):
        with pytest.raises(ValueError, match="finite"):
            call([0.1, r])


def test_generator_band_matches_repeated_product():
    # the exact-integer band equals a†^n built by repeated matrix products
    size = 30
    adag = np.diag(np.sqrt(np.arange(1, size, dtype=float)), -1)
    for n in range(1, 5):
        K = generator(n, 1.0, size)
        repeated = np.linalg.matrix_power(adag, n)
        assert np.allclose(np.tril(K), repeated, rtol=1e-14, atol=0)


def test_generator_zero_parameter():
    K = generator(3, 0.0, 10)
    assert np.count_nonzero(K) == 0


@pytest.mark.parametrize("n,r", [(1, 0.7), (2, 0.3 + 0.4j), (3, 0.1), (4, 1e-3 - 2j), (1, 1.0)])
def test_generator_anti_hermitian(n, r):
    # with the band test at r = 1 this pins the upper band of n = 1: K[k, k+1] = -sqrt(k+1)
    K = generator(n, r, 20)
    assert np.max(np.abs(K + K.conj().T)) == 0.0


def test_generator_band_structure():
    rows, cols = np.nonzero(generator(3, 0.1, 10))
    assert sorted(set((cols - rows).tolist())) == [-3, 3]


def test_zero_generator_is_identity():
    w = expm_state(2, 0.0, 16)
    assert np.array_equal(w, vacuum(16))


def test_coherent_state_amplitudes():
    # n=1, r=1 gives a coherent state: |amp_k| = e^(-1/2)/sqrt(k!)
    w = expm_state(1, 1.0, 64)
    for k in range(25):
        expected = math.exp(-0.5) / math.sqrt(math.factorial(k))
        assert abs(w[k]) == pytest.approx(expected, abs=1e-12)


def test_two_photon_mean_matches_sinh():
    photons = VacuumSectorPropagator(2, 200).grid_diagnostics([0.5])[0]
    assert photons[0] == pytest.approx(math.sinh(1.0) ** 2, abs=1e-10)


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
    state = chain_state(n, r, size)
    oracle = dense_exponential_state(n, r, size)
    assert np.linalg.norm(state - oracle) <= 1e-10
    assert norm_error(state) <= 1e-10


@pytest.mark.parametrize("n,r,size", [
    (1, 0.8, 48),
    (2, 0.4, 64),
    (3, 0.3, 64),
    (4, 0.2, 64),
    (3, 0.15 + 0.1j, 64),
])
def test_expm_matches_dense_oracle(n, r, size):
    w = expm_state(n, r, size)
    oracle = dense_exponential_state(n, r, size)
    assert np.linalg.norm(w - oracle) <= 1e-10
    assert norm_error(w) <= 1e-10


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    n_size=st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(n + 1, 96))),
    mag=st.floats(0.0, 0.5),
    theta=st.floats(-math.pi, math.pi),
)
def test_chain_matches_expm_property(n_size, mag, theta):
    n, size = n_size
    r = mag * complex(math.cos(theta), math.sin(theta))
    chain = chain_state(n, r, size)
    oracle = expm_state(n, r, size)
    assert np.linalg.norm(chain - oracle) <= 1e-10


def full_chain_reconstruction(n, size, r_values):
    """Reference: the chain state from every eigenpair of one full eigensolve."""
    b = couplings(n, size)
    lam, V = eigh_tridiagonal(np.zeros(len(b) + 1), b)
    j = np.arange(len(lam))
    return np.stack([
        (1j * np.exp(1j * np.angle(r))) ** j * (V @ (np.exp(-1j * abs(r) * lam) * V[0]))
        for r in r_values
    ], axis=1)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    n_size=st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(n + 1, 600))),
    r_values=st.lists(st.complex_numbers(max_magnitude=0.5), min_size=1, max_size=4),
)
def test_chain_grid_matches_full_eigensolve(n_size, r_values):
    n, size = n_size
    grid = VacuumSectorPropagator(n, size).chain_grid(r_values)
    reference = full_chain_reconstruction(n, size, r_values)
    assert np.linalg.norm(grid - reference, axis=0).max() <= 1e-12


def test_chain_grid_columns_are_chain_amplitudes():
    prop = VacuumSectorPropagator(3, 600)
    r_values = [0.0, 0.05, 0.1 + 0.2j, -0.3, 0.45j, 0.5]
    grid = prop.chain_grid(r_values)
    for column, r in zip(grid.T, r_values):
        assert np.linalg.norm(column - prop.chain_grid([r])[:, 0]) <= 1e-15
    vacuum = np.zeros(len(prop.levels))
    vacuum[0] = 1.0
    assert np.array_equal(grid[:, 0], vacuum)


@pytest.mark.parametrize("n,size", [
    (1, 2), (3, 4),  # L = 2
    (1, 3), (4, 9),  # L = 3
    (2, 400), (2, 401), (3, 3000), (3, 3001),
    (2, 1001), (1, 2000), (1, 2001),  # n = 1 needs the widest Krylov basis
    (1, 1000), (1, 1001), (1, 4000),  # verify's n = 1 chains, and several growth steps
    (3, 6000), (3, 6001), (4, 24000), (4, 24001),  # the benchmark's chains
])
def test_chain_grid_matches_full_eigensolve_even_and_odd_length(n, size):
    # small chains are spanned by the first basis; odd lengths use the closed-form zero mode
    r_values = [0.0, 0.3, -0.2, 0.1 + 0.25j, 0.5j]
    grid = VacuumSectorPropagator(n, size).chain_grid(r_values)
    reference = full_chain_reconstruction(n, size, r_values)
    assert np.linalg.norm(grid - reference, axis=0).max() <= 1e-12


@pytest.mark.parametrize("n,size", [(1, 11), (1, 2001), (2, 1001), (3, 6001), (4, 24001)])
def test_zero_mode_matches_lapack(n, size):
    prop = VacuumSectorPropagator(n, size)
    length = len(prop.levels)
    assert length % 2 == 1 and prop.eigvals[-1] == 0.0
    b = couplings(n, size)
    _, lapack = eigh_tridiagonal(
        np.zeros(length), b, select="i", select_range=(length // 2, length // 2),
        tol=2 * np.finfo(float).tiny,
    )
    lapack = lapack[:, 0] * np.sign(lapack[0, 0])
    # the chain keeps the zero mode on its even sites only; on the odd ones it is zero
    zero_mode = prop.eigvecs[:, -1]
    assert len(zero_mode) == (length + 1) // 2
    assert np.abs(lapack[1::2]).max() <= 1e-15
    assert np.abs(zero_mode * np.sign(zero_mode[0]) - lapack[0::2]).max() <= 1e-15


@pytest.mark.parametrize("n,size", [(1, 40), (2, 101), (3, 64), (4, 97)])
def test_full_eigensolve_pairs_lambda_with_minus_lambda(n, size):
    # S T S = -T for S = diag((-1)^j), so S v is the eigenvector for -lambda
    b = couplings(n, size)
    lam, V = eigh_tridiagonal(np.zeros(len(b) + 1), b)
    S = (-1.0) ** np.arange(len(lam))
    assert np.abs(lam + lam[::-1]).max() <= 1e-12 * np.abs(lam).max()
    for v, u in zip(V.T, V.T[::-1]):
        partner = S * v
        assert min(np.linalg.norm(partner - u), np.linalg.norm(partner + u)) <= 1e-12


@pytest.mark.parametrize("n,size", [(3, 6000), (4, 24000), (3, 6001), (4, 24001)])
def test_window_keeps_few_eigenpairs_at_large_truncation(n, size):
    # an odd chain keeps its zero mode as one more column
    prop = VacuumSectorPropagator(n, size)
    columns = {(3, 6000): 22, (4, 24000): 16, (3, 6001): 27, (4, 24001): 17}[n, size]
    assert prop.eigvecs.shape[1] == columns < prop.eigvecs.shape[0]
    assert prop.discarded <= WINDOW_TOL


def test_window_starts_at_eight_aims_at_the_tolerance_and_falls_back_to_full_chain():
    # n = 1 spreads |0> over the most eigenvalues: the Krylov basis grows 8, 16, 24, 32,
    # 40, 50, 62, 77, 96, 120, 150, then by the secant of log eta, and stops once the
    # eigenvector eta <= WINDOW_TOL
    for n, size, columns in ((1, 1000, 174), (1, 2000, 246), (2, 1000, 45)):
        wide = VacuumSectorPropagator(n, size)
        assert wide.eigvecs.shape[1] == columns
        assert wide.discarded <= WINDOW_TOL
    # a basis that spans the chain keeps every positive eigenvalue and leaves nothing out;
    # its 22 sites keep their eigenvectors on the 11 even ones
    full = VacuumSectorPropagator(3, 64)
    assert full.eigvecs.shape == (11, 11)
    assert full.discarded == 0.0


def test_chain_build_holds_its_basis_and_even_site_eigenvectors_only():
    # (1, 6000) keeps hundreds of Ritz pairs: at its peak the build holds the Krylov basis,
    # the ceil(L/2) x (m + 1) even-site eigenvectors and a few m x m Lanczos arrays, with no
    # full-size temporary beside them and no odd-site block
    tracemalloc.start()
    try:
        prop = VacuumSectorPropagator(1, 6000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_even, m = prop.eigvecs.shape
    assert n_even == 3000 and m > 400
    assert peak <= 8 * ((m + 2) * n_even + n_even * (m + 1) + 3 * m * m)


def test_odd_sites_carry_their_sum_across_row_tiles(monkeypatch):
    # the eigenvectors' odd sites are one bidiagonal solve, a running sum down the chain;
    # split into row tiles it carries each tile's last partial sums, so the amplitudes
    # keep their bits
    prop = VacuumSectorPropagator(1, 2000)
    r_grid = np.linspace(0.0, 16.0, 16)  # a displacement: <N> = r^2 reaches site 256 and past
    evaluate, tiles = VacuumSectorPropagator._real_amplitudes, []

    def recorded(self, mag):
        fill = evaluate(self, mag)
        return lambda start, out: tiles.append((start, fill(start, out).copy())) or out
    monkeypatch.setattr(VacuumSectorPropagator, "_real_amplitudes", recorded)
    whole = prop.grid_diagnostics(r_grid)  # 16 values of r by up to 2048 sites: one tile
    assert [start for start, _ in tiles] == [0]
    one_tile = tiles.pop()[1]
    assert (one_tile[256:, -1] ** 2).sum() > 1e-3
    # the same 16-column width, 128 rows per tile
    monkeypatch.setattr(evolve, "_TILE_ENTRIES", 16 * 128)
    tiled = prop.grid_diagnostics(r_grid)
    assert [start for start, _ in tiles] == list(range(0, 2000, 128))
    assert np.array_equal(np.concatenate([tile for _, tile in tiles]), one_tile)
    # only the order of the diagnostics' own sums changes
    np.testing.assert_allclose(tiled[0], whole[0], rtol=1e-14)
    assert np.abs(tiled[2] - whole[2]).max() <= 1e-15


def test_chain_too_long_for_the_unrolled_solve_is_refused():
    # at n = 1 the Cholesky recurrence's running product falls like exp(-sqrt(N));
    # at n = 50 a shift-invert solve underflows to the zero vector, and at n = 90
    # the couplings b_j^2 are too large for a double.  At (17, 1000) and (26, 6000)
    # rounding leaves the kept eigenpairs rebuilding |0> with errors of 4.9 and 1.0
    for n, size, limit in ((1, 600_000, "range"), (50, 3000, "range"), (90, 3000, "range"),
                           (17, 1000, "precision"), (26, 6000, "precision")):
        with pytest.raises(BudgetExceededError, match=f"{chain_length(n, size)}-site chain "
                                                      f"> floating-point {limit}$"):
            VacuumSectorPropagator(n, size)


BUNDLED_OPENBLAS = pytest.mark.skipif(
    evolve._OPENBLAS is None, reason="numpy bundles no OpenBLAS whose thread count can be set")


def test_bundled_openblas_is_found():
    # on numpy's scipy-openblas wheels the chain build must find the library; should a
    # numpy release move it, the bytes would depend on the thread count again unnoticed
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    assert blas != "scipy-openblas" or evolve._OPENBLAS is not None


@pytest.fixture
def blas_threads():
    """The OpenBLAS thread count getter, with the count set to 2 for the test and restored after."""
    get_threads, set_threads = evolve._OPENBLAS
    before = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(before)


def record_build_threads(monkeypatch, get_threads, build=evolve._chain_eigensystem):
    """Patch the chain build to note the OpenBLAS thread count it runs at; returns the notes."""
    seen = []

    def recorded(n, size):
        seen.append(get_threads())
        return build(n, size)
    monkeypatch.setattr(evolve, "_chain_eigensystem", recorded)
    return seen


@BUNDLED_OPENBLAS
def test_chain_builds_on_one_blas_thread_and_restores_the_count(monkeypatch, blas_threads):
    seen = record_build_threads(monkeypatch, blas_threads)
    VacuumSectorPropagator(1, 2001)
    assert seen == [1] and blas_threads() == 2


@BUNDLED_OPENBLAS
def test_chain_is_evaluated_on_one_blas_thread_and_restores_the_count(monkeypatch, blas_threads):
    prop = VacuumSectorPropagator(1, 2001)
    seen, evaluate = [], VacuumSectorPropagator._real_amplitudes

    def recorded(self, mag):
        seen.append(blas_threads())
        return evaluate(self, mag)
    monkeypatch.setattr(VacuumSectorPropagator, "_real_amplitudes", recorded)
    prop.chain_grid([0.1, 0.2j])
    prop.grid_diagnostics(np.linspace(0, 1, 300))  # two column tiles
    assert seen == [1, 1, 1] and blas_threads() == 2
    couplings, seen[:] = evolve.chain_couplings, []

    def recorded_couplings(n, length):
        seen.append(blas_threads())
        return couplings(n, length)
    monkeypatch.setattr(evolve, "chain_couplings", recorded_couplings)
    second_derivative_check(1, 0.3, 2001)
    # the build's couplings, grid_diagnostics, the check's own couplings (its dot follows), chain_grid
    assert seen == [1] * 4 and blas_threads() == 2


@BUNDLED_OPENBLAS
def test_refused_chain_build_restores_the_blas_thread_count(monkeypatch, blas_threads):
    def overflowing(n, size):
        raise FloatingPointError("overflow encountered in multiply")
    seen = record_build_threads(monkeypatch, blas_threads, build=overflowing)
    with pytest.raises(BudgetExceededError, match="floating-point range$"):
        VacuumSectorPropagator(3, 6001)
    assert seen == [1] and blas_threads() == 2


@BUNDLED_OPENBLAS
def test_chain_builds_on_the_callers_threads_without_bundled_openblas(monkeypatch, blas_threads):
    pinned = VacuumSectorPropagator(3, 6001)
    seen = record_build_threads(monkeypatch, blas_threads)
    monkeypatch.setattr(evolve, "_OPENBLAS", None)
    fallback = VacuumSectorPropagator(3, 6001)
    assert seen == [2] and blas_threads() == 2
    np.testing.assert_allclose(fallback.eigvals, pinned.eigvals, rtol=1e-14)


def test_r_whose_phase_overflows_is_refused():
    # lambda |r| overflows from |r| = 1.79e308 / lambda_max, about 4.1e304 at (3, 6000); unchecked,
    # cos and sin give nan past it, and nan fails none of certify_truncation_pair's tests
    prop = VacuumSectorPropagator(3, 6000)
    assert np.isfinite(prop.grid_diagnostics([4.1e304])).all()
    refusal = r"\|r\| on a \d+-site chain > floating-point range$"
    for call in (lambda: prop.grid_diagnostics([0.1, 4.2e304]),
                 lambda: prop.chain_grid([4.2e304j]),
                 lambda: certify_truncation_pair(3, (1002, 1003), [0, 0.05, 1e307, 1.5e307])):
        with pytest.raises(BudgetExceededError, match=refusal):
            call()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("N_pair", [(2000, 2001), (60, 61)])
def test_sweep_matches_per_r_states(n, N_pair):
    # at N = 60 the states reach the truncation, so leakage is far from round-off
    rows = sweep_rows("--n", str(n), "--r", "0:1:0.025", "--N", "{},{}".format(*N_pair))
    props = {N: VacuumSectorPropagator(n, N) for N in N_pair}
    assert len(rows) == 82
    for N, r, photons, leak, err, _ in rows:
        # the r's own column, spread over all N Fock levels
        prop = props[N]
        amps = np.zeros(N, dtype=complex)
        amps[prop.levels] = prop.chain_grid([r])[:, 0]
        assert photons == pytest.approx(mean_photon(amps), rel=1e-13, abs=0)
        # round-off sized values are compared absolutely
        ref_leakage = np.sum(np.abs(amps[N - max(10, 2 * n):]) ** 2)
        assert leak == pytest.approx(ref_leakage, rel=1e-13, abs=1e-15)
        assert abs(err - norm_error(amps)) <= 1e-15


# values of r in one column tile of grid_diagnostics
TILE_WIDTH = _TILE_ENTRIES // 128


def assert_diagnostics_match_chain_grid(prop, r_grid, stats):
    """stats agree with the reductions of the chain_grid columns over every site.

    Row tiles change the order of each sum, so the gates are relative (with an
    absolute floor for round-off sized leakage), not bit-for-bit.
    """
    probs = np.abs(prop.chain_grid(r_grid)) ** 2
    edge = prop.levels >= prop.size - min(max(10, 2 * prop.n), prop.size - 1)
    assert stats[0] == pytest.approx(prop.levels @ probs, rel=1e-13, abs=0)
    assert stats[1] == pytest.approx(probs[edge].sum(axis=0), rel=1e-13, abs=1e-15)
    assert np.abs(stats[2] - np.abs(np.sqrt(probs.sum(axis=0)) - 1.0)).max() <= 1e-14


def test_multi_block_grid_matches_per_column_chain_grid():
    # 1201 values of r make five column tiles of TILE_WIDTH, the last partial
    prop = VacuumSectorPropagator(3, 6000)
    r_grid = np.linspace(0.0, 1.0, 1201)
    assert len(r_grid) > 4 * TILE_WIDTH
    photons, leak, err = prop.grid_diagnostics(r_grid)
    for i in range(0, len(r_grid), 37):
        probs = np.abs(prop.chain_grid([r_grid[i]])[:, 0]) ** 2
        assert photons[i] == pytest.approx(prop.levels @ probs, rel=1e-13, abs=0)
        assert leak[i] == pytest.approx(probs[prop.levels >= 5990].sum(), rel=1e-13, abs=1e-15)
        assert abs(err[i] - abs(math.sqrt(probs.sum()) - 1.0)) <= 1e-14


@pytest.mark.parametrize("size", [6000, 6001])
def test_grid_diagnostics_equals_reductions_of_chain_grid(size):
    # L = 2000 and 2001 sites; 1201 values of r from 0 make five column tiles
    prop = VacuumSectorPropagator(3, size)
    r_grid = np.linspace(0.0, 1.0, 1201)
    stats = prop.grid_diagnostics(r_grid)
    assert_diagnostics_match_chain_grid(prop, r_grid, stats)
    # r = 0 is the exact vacuum in every row tile
    assert [s[0] for s in stats] == [0.0, 0.0, 0.0]
    assert [s[0] for s in prop.grid_diagnostics([0.0, 0j])] == [0.0, 0.0, 0.0]
    # the diagnostics see only |r|, so a rotated grid gives the bits of its |r| grid
    for theta in (math.pi / 4, math.pi / 2, math.pi):
        rotated = r_grid * np.exp(1j * theta)
        got, want = prop.grid_diagnostics(rotated), prop.grid_diagnostics(np.abs(rotated))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    mags = np.array([0.05, 0.3, 0.7])
    at_mag = prop.grid_diagnostics(mags)
    edge = prop.levels >= size - 10
    for theta in (math.pi / 4, math.pi / 2):
        # the phases of the complex amplitudes have modulus 1
        probs = np.abs(prop.chain_grid(mags * np.exp(1j * theta))) ** 2
        assert prop.levels @ probs == pytest.approx(at_mag[0], rel=1e-14, abs=0)
        assert probs[edge].sum(axis=0) == pytest.approx(at_mag[1], rel=1e-14, abs=0)
        assert probs.sum(axis=0) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("n, size, points, straddle", [
    (3, 6001, 201, False),               # odd L = 2001: the last row tile has an odd length
    (3, 6000, TILE_WIDTH + 45, False),   # a full column tile and a partial one
    (3, 6000, 1, False),                 # one value of r: one tile holds the whole chain
    (1, 2000, 2 * TILE_WIDTH, False),    # n = 1 keeps hundreds of eigenpairs
    (4, 61, 9, False),                   # a chain shorter than one tile
    # the leakage edge straddles two row tiles: edge sites 1997 | 1998-2000 and 1998-1999 | 2000
    (3, 6001, 147, True),
    (3, 6002, 163, True),
])
def test_grid_diagnostics_tiles_cover_every_site_and_value(n, size, points, straddle):
    prop = VacuumSectorPropagator(n, size)
    r_grid = np.linspace(0.0, 1.2, points) if points > 1 else np.array([0.6])
    stats = prop.grid_diagnostics(r_grid)
    assert_diagnostics_match_chain_grid(prop, r_grid, stats)
    if points > 1:
        assert [s[0] for s in stats] == [0.0, 0.0, 0.0]
    if straddle:
        # rows per tile, and the first site on the top 10 levels
        height = _TILE_ENTRIES // points & -2
        first_edge = -(-(size - 10) // n)
        assert first_edge // height < (len(prop.levels) - 1) // height
        assert first_edge % height
        # the edge sites carry weight far above round-off, alternately ~1e-5 and ~1e-15
        assert stats[1].max() > 1e-6


def test_grid_diagnostics_memory_is_set_by_the_block_not_the_grid():
    # one tile is 256 KB of real |amplitude|^2, reused for every site and every r;
    # only the per-r inputs and outputs grow with the grid, by tens of bytes per r
    peaks = {}
    for size in (6000, 60000):
        prop = VacuumSectorPropagator(3, size)
        for points in (2 * TILE_WIDTH, 8 * TILE_WIDTH):
            tracemalloc.start()
            try:
                prop.grid_diagnostics(np.linspace(0.0, 1.0, points))
                peaks[len(prop.levels), points] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    for points in (2 * TILE_WIDTH, 8 * TILE_WIDTH):
        assert abs(peaks[20000, points] - peaks[2000, points]) <= 16 << 10
    for length in (2000, 20000):
        assert peaks[length, 8 * TILE_WIDTH] - peaks[length, 2 * TILE_WIDTH] <= 64 * 6 * TILE_WIDTH
        assert peaks[length, 8 * TILE_WIDTH] <= 4 * 8 * _TILE_ENTRIES


def test_expm_subnormal_r_is_vacuum_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = expm_state(1, 5e-324, 2)
    assert np.array_equal(w, vacuum(2))


def test_expm_r_whose_generator_overflows_is_refused():
    # at (3, 64) the largest generator entry is |r| amp_max; with amp_max = sqrt(61 62 63),
    # half the largest double over it still gives a unit-norm state, while 0.9 of it
    # overflows the eigenvalues and 1e307 the generator itself: both were nan before
    amp_max = math.sqrt(61 * 62 * 63)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = expm_state(3, 0.5 * np.finfo(float).max / amp_max, 64)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
        for r in (0.9 * np.finfo(float).max / amp_max, 1e307, -1e307j):
            with pytest.raises(BudgetExceededError, match=r"\|r\| on 64 levels > floating-point range$"):
                expm_state(3, r, 64)


def test_expm_refuses_oversized_truncation():
    # refused before the 64 MB dense generator is built
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=f"N > {MAX_ORACLE_SIZE}"):
            expm_state(3, 0.1, MAX_ORACLE_SIZE + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_displacement_mean_photon_is_r_squared():
    photons = VacuumSectorPropagator(1, 128).grid_diagnostics([2.0])[0]
    assert photons[0] == pytest.approx(4.0, abs=1e-8)


def test_expectation_diagonal_examples():
    vac = vacuum(12)
    assert expectation_diagonal(commutator_diagonal(3, 12), vac) == 6.0
    assert expectation_diagonal(commutator_diagonal(4, 12), vac) == 24.0
    one = np.zeros(12, dtype=complex)
    one[1] = 1.0
    assert expectation_diagonal(commutator_diagonal(2, 12), one) == 6.0


def test_number_operator_expectation_equals_mean_photon():
    prop = VacuumSectorPropagator(3, 64)
    probs = np.abs(prop.chain_grid([0.05])[:, 0]) ** 2
    photons = prop.grid_diagnostics([0.05])[0][0]
    assert float(prop.levels @ probs) == pytest.approx(photons, abs=1e-14)


def test_leakage_trivial_cases():
    # n = 1, N = 2: the vacuum at r = 0 and |1>, the top level, at r = pi/2
    prop = VacuumSectorPropagator(1, 2)
    _, leak, _ = prop.grid_diagnostics([0.0, math.pi / 2])
    assert leak[0] == 0.0
    assert leak[1] == pytest.approx(1.0, abs=1e-15)


def test_converged_state_has_tiny_leakage():
    _, leak, _ = VacuumSectorPropagator(3, 2000).grid_diagnostics([0.05])
    assert leak[0] < 1e-12


def test_squeezed_state_zero_parameter_is_vacuum():
    prop = VacuumSectorPropagator(3, 100)
    column = prop.chain_grid([0.0])[:, 0]
    assert abs(column[0]) == pytest.approx(1.0, abs=1e-14)
    assert prop.grid_diagnostics([0.0])[0][0] == pytest.approx(0.0, abs=1e-20)


def test_self_consistency_across_truncations_inside_radius():
    a, b = (VacuumSectorPropagator(3, N).grid_diagnostics([0.05])[0][0]
            for N in (2000, 4000))
    assert abs(a - b) <= 1e-8


def test_truncation_divergence_beyond_radius():
    # beyond R_3 the curves for adjacent effective truncations separate
    a, b = (VacuumSectorPropagator(3, N).grid_diagnostics([0.5])[0][0]
            for N in (6000, 6001))
    assert abs(a - b) / max(a, b) > 0.10


def test_norm_preservation_across_regimes():
    for n, r, size in [(1, 1.0, 200), (2, 0.8, 400), (3, 0.9, 3000), (4, 0.6, 3000)]:
        err = VacuumSectorPropagator(n, size).grid_diagnostics([r])[2]
        assert err[0] <= 1e-10


def test_phase_invariance_of_mean_photon():
    # Theorem: <a†a> depends on |r| only; the chain uses |r|, so check the oracle
    values = []
    for theta in (0.0, math.pi / 4, math.pi / 2):
        r = 0.1 * complex(math.cos(theta), math.sin(theta))
        values.append(mean_photon(expm_state(3, r, 64)))
    assert max(values) - min(values) <= 1e-9


def test_sweep_r_zero_rows():
    rows = sweep_rows("--n", "3", "--r", "0:0:1", "--N", "100,200")
    assert len(rows) == 2
    for _, _, photons, _, _, status in rows:
        assert photons == pytest.approx(0.0, abs=1e-20)
        assert status == "ok"


def test_sweep_matches_two_photon_closed_form():
    rows = sweep_rows("--n", "2", "--r", "0.1:0.5:0.1", "--N", "500")
    assert [r for _, r, *_ in rows] == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])
    for _, r, photons, *_ in rows:
        assert photons == pytest.approx(math.sinh(2 * r) ** 2, abs=1e-8)


def test_sweep_sorted_and_complete():
    rows = sweep_rows("--n", "3", "--r", "0:0.2:0.1", "--N", "100,200,300")
    keys = [(N, r) for N, r, *_ in rows]
    assert keys == sorted(keys)
    assert len(keys) == 9


def test_sweep_csv_format():
    lines = sweep_csv("--n", "2", "--r", "0:0.1:0.1", "--N", "50").strip().split("\n")
    assert lines[0] == "n,N,r,mean_photon,leakage,norm_error,status"
    assert len(lines) == 3
    assert lines[1].startswith("2,50,0,")


def test_second_derivative_at_origin():
    # the vacuum has no weight on the last site: the wall term is exactly 0
    fd, bulk, wall = second_derivative_check(3, 0.0, 2000)
    assert bulk == pytest.approx(36.0, rel=1e-12) and wall == 0.0
    assert fd == pytest.approx(bulk - wall, rel=1e-4)
    fd, bulk, wall = second_derivative_check(4, 0.0, 2000)
    assert bulk == pytest.approx(192.0, rel=1e-12) and wall == 0.0
    assert fd == pytest.approx(bulk - wall, rel=1e-3)


def test_second_derivative_displacement():
    fd, bulk, wall = second_derivative_check(1, 0.5, 200)
    assert bulk == pytest.approx(2.0, rel=1e-12)
    assert fd == pytest.approx(bulk - wall, rel=1e-6)


def test_second_derivative_agreement_inside_radius():
    fd, bulk, wall = second_derivative_check(3, 0.08, 4000, h=1e-3)
    assert fd == pytest.approx(bulk - wall, rel=1e-4)
    assert fd > 0 and bulk > 0


@pytest.mark.parametrize("r,h", [(math.nan, 1e-3), (math.inf, 1e-3), (-0.1, 1e-3),
                                 (0.1, math.nan), (0.1, math.inf), (0.1, 0.0)])
def test_second_derivative_refuses_bad_point_or_step(r, h):
    # unguarded, a nan r gives (nan, nan, nan): r < 0 and h <= 0 are both False for nan
    with pytest.raises(ValueError):
        second_derivative_check(3, r, 100, h=h)


@pytest.mark.parametrize("n,size,r,dip,tol", [
    # dips: the truncated curve bends down, and only the wall term can make it do so
    (3, 6000, 0.26, True, 2e-8),
    (3, 6001, 0.5, True, 2e-8),
    (4, 2400, 0.06, True, 1e-7),
    # far past the leakage threshold, and a chain of two sites
    (3, 500, 0.9, False, 2e-5),
    (1, 2, 0.1, False, 3e-7),
    # a wall weight of 7.5e-16 times b_{L-1}^2 ~ 3e17: fd is 9.5x below bulk
    (4, 24000, 0.01, False, 1e-4),
])
def test_second_derivative_is_bulk_minus_wall(n, size, r, dip, tol):
    # tol is 10-25x the O(h^2) stencil error measured at h = 2e-4, relative to bulk
    fd, bulk, wall = second_derivative_check(n, r, size, h=2e-4)
    assert bulk > 0 and wall >= 0
    assert abs(fd - (bulk - wall)) <= tol * bulk
    assert (fd < 0) == dip


def test_converged_region_entire_function():
    r_grid = np.arange(0, 1.0001, 0.05)
    top = certify_truncation_pair(2, (800, 801), r_grid)[0]
    assert top == pytest.approx(r_grid[-1])


def test_converged_region_stops_near_radius():
    r_grid = np.arange(0, 1.0001, 0.005)
    r_max = certify_truncation_pair(3, (4002, 4003), r_grid)[0]
    assert 0.0 < r_max <= 0.16


def test_converged_region_zero_always_qualifies():
    assert certify_truncation_pair(3, (501, 502), [0.0])[0] == 0.0
    with pytest.raises(ValueError):
        certify_truncation_pair(3, (500, 500), [0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_certify_refuses_non_finite_grid_before_building_a_chain(monkeypatch, bad):
    # nan fails neither tolerance test (every comparison with nan is False), so it would
    # be certified as the radius
    def no_chain(n, size):
        raise AssertionError("a chain was built")

    monkeypatch.setattr(evolve, "_chain_eigensystem", no_chain)
    with pytest.raises(ValueError, match="finite"):
        certify_truncation_pair(3, (100, 103), [0.01, bad])


@pytest.mark.parametrize("r_grid,photons_b,leak_a,leak_b,r_max", [
    # every point agrees: the whole grid is certified
    ([0.0, 0.1, 0.2, 0.3], [1, 2, 3, 4], [0] * 4, [0] * 4, 0.3),
    # the point after the first failure would pass on its own, but is not certified
    ([0.0, 0.1, 0.2, 0.3, 0.4], [1, 2, 3.1, 4, 5], [0] * 5, [0] * 5, 0.1),
    # a leak at only one of the two truncations fails the point; LEAK_TOL itself does not
    ([0.0, 0.1, 0.2, 0.3], [1, 2, 3, 4], [LEAK_TOL, 0, 2 * LEAK_TOL, 0], [0] * 4, 0.1),
    ([0.0, 0.1, 0.2, 0.3], [1, 2, 3, 4], [0] * 4, [0, LEAK_TOL, 0, 2 * LEAK_TOL], 0.2),
    # a first point above r = 0 that fails certifies nothing
    ([0.1, 0.2], [1.5, 2], [0] * 2, [0] * 2, 0.0),
])
def test_certified_region_is_the_prefix_before_the_first_failure(
        monkeypatch, r_grid, photons_b, leak_a, leak_b, r_max):
    # hand-made diagnostics at N = 10 and 11 on the sorted grid; photons at N = 10 are 1, 2, ...
    photons_a = 1.0 + np.arange(len(r_grid))
    stats = {10: (photons_a, leak_a), 11: (photons_b, leak_b)}

    def grid_diagnostics(self, r_values):
        assert isinstance(r_values, np.ndarray) and np.array_equal(r_values, r_grid)
        photons, leakage = stats[self.size]
        return np.array(photons, float), np.array(leakage, float), np.zeros(len(r_grid))

    monkeypatch.setattr(VacuumSectorPropagator, "grid_diagnostics", grid_diagnostics)
    # an unsorted list is sorted first, so it gives the same radius and photons as the array
    for grid in (np.array(r_grid), r_grid[::-1]):
        top, photons = certify_truncation_pair(1, (10, 11), grid)
        assert top == r_max and np.array_equal(photons, photons_a)


@pytest.mark.parametrize("n,N_pair", [(3, (4000, 4001)), (4, (1001, 1004))])
def test_truncation_pair_giving_one_chain_is_refused(n, N_pair):
    # levels 0, n, 2n, ... < N: both truncations keep the same levels, so they cannot disagree
    assert chain_length(n, N_pair[0]) == chain_length(n, N_pair[1])
    with pytest.raises(ValueError, match="same order-"):
        certify_truncation_pair(n, N_pair, [0.0, 0.1])


def test_monotone_and_convex_in_converged_region():
    r_grid = list(np.arange(0, 0.2001, 0.005))
    r_max = certify_truncation_pair(3, (2001, 2002), r_grid)[0]
    prop = VacuumSectorPropagator(3, 2001)
    values = list(prop.grid_diagnostics([r for r in r_grid if r <= r_max])[0])
    assert len(values) > 3
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12
    scale = max(values)
    for i in range(1, len(values) - 1):
        assert values[i + 1] - 2 * values[i] + values[i - 1] >= -1e-8 * scale
