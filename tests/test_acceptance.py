"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The heavy truncations (N = 6000/6001) make this the slowest module;
the whole file finishes in a few minutes on a laptop-class machine.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from squeezelab.algebra import (
    BosonPoly,
    coefficients,
    commutator,
    commutator_diagonal_value,
    fit_exponential,
    taylor_partial_sum,
    verify_closed_form,
)
from squeezelab.evolve import (
    VacuumSectorPropagator,
    certify_truncation_pair,
    expm_state,
    generator,
)


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


@pytest.fixture(scope="module")
def series3():
    return coefficients(3, 20)


@pytest.fixture(scope="module")
def series4():
    return coefficients(4, 10)


def test_criterion_1_exact_coefficients(series3, series4):
    with criterion("criterion 1: exact coefficients c2(3)=18, c2(4)=96, odd zero"):
        assert dict(series3)[2] == 18
        assert dict(series4)[2] == 96
        # coefficients() forms only even orders; the odd ones vanish in the Wick
        # oracle, m! c_m = <0|ad_A^m(a†a)|0> with A = a†^n - a^n
        for n in (3, 4):
            A, current = BosonPoly.raising(n) - BosonPoly.lowering(n), BosonPoly({(1, 1): 1})
            for m in range(1, 8):
                current = commutator(A, current)
                assert m % 2 == 0 or current.number_state_expectation(0) == 0, (n, m)
        # re-derive the leading value via the finite-difference oracle 2*c2 = f''(0)
        for n, series in ((3, series3), (4, series4)):
            h = 1e-4
            p0, ph = VacuumSectorPropagator(n, 1000).grid_diagnostics([0.0, h])[0]
            fd = (ph - 2 * p0 + ph) / h**2
            assert fd / 2 == pytest.approx(float(dict(series)[2]), rel=1e-4)


def test_criterion_2_closed_form_identity():
    with criterion("criterion 2: [a^n, a†^n] equals closed form on levels 0..20"):
        explicit = {
            1: lambda m: 1,
            2: lambda m: 4 * m + 2,
            3: lambda m: 9 * m**2 + 9 * m + 6,
            4: lambda m: 16 * m**3 + 24 * m**2 + 56 * m + 24,
        }
        for n in (1, 2, 3, 4):
            assert verify_closed_form(n, max_level=20) is None
            symbolic = commutator(BosonPoly.lowering(n), BosonPoly.raising(n))
            for m in range(21):
                closed = commutator_diagonal_value(n, m)
                assert symbolic.number_state_expectation(m) == closed == explicit[n](m)


def test_criterion_3_fit_reproduction(series3, series4):
    with criterion("criterion 3: alpha3 in [1.89, 2.01], R3 in [0.124, 0.151]; "
                   "alpha4 in [3.1, 3.7], R4 in [0.02, 0.045]"):
        alpha3 = fit_exponential(series3)[0]
        assert 1.89 <= alpha3 <= 2.01
        assert 0.124 <= math.exp(-alpha3) <= 0.151
        alpha4 = fit_exponential(series4)[0]
        assert 3.1 <= alpha4 <= 3.7
        assert 0.02 <= math.exp(-alpha4) <= 0.045


def test_criterion_4_closed_form_curves():
    with criterion("criterion 4: sweep matches r² (n=1) and sinh²(2r) (n=2) to 1e-8"):
        prop1 = VacuumSectorPropagator(1, 500)
        prop2 = VacuumSectorPropagator(2, 500)
        # tolerance is relative for values above 1: the exact truncated
        # evolution at N=500, r=1 sits 7e-8 absolute (5e-9 relative) from
        # sinh^2(2), as confirmed by a dense matrix-exponential oracle
        rs = np.arange(0, 1.0001, 0.05)
        for prop, expected in ((prop1, rs**2), (prop2, np.sinh(2 * rs) ** 2)):
            photons = prop.grid_diagnostics(rs)[0]
            assert np.all(np.abs(photons - expected) <= 1e-8 * np.maximum(1.0, expected))


def test_criterion_5_taylor_numeric_consensus(series3):
    with criterion("criterion 5: n=3, r<=0.07: Taylor (M=20) and N=4002/4003 agree to 1e-6"):
        prop_a = VacuumSectorPropagator(3, 4002)
        prop_b = VacuumSectorPropagator(3, 4003)
        rs = np.arange(0, 0.0701, 0.005)
        photons_a, photons_b = (prop.grid_diagnostics(rs)[0] for prop in (prop_a, prop_b))
        for pa, pb, ts in zip(photons_a, photons_b, taylor_partial_sum(series3, rs)):
            assert abs(pa - pb) <= 1e-6
            assert abs(ts - pa) <= 1e-6
            assert abs(ts - pb) <= 1e-6


def test_criterion_6_divergence_phenomenology():
    with criterion("criterion 6: N=6000/6001 agree (r<=0.05), differ >10% and "
                   "oscillate in r in [0.3, 1.0]"):
        prop_a = VacuumSectorPropagator(3, 6000)
        prop_b = VacuumSectorPropagator(3, 6001)
        near = np.arange(0, 0.0501, 0.005)
        va, vb = (prop.grid_diagnostics(near)[0] for prop in (prop_a, prop_b))
        assert np.abs(va - vb).max() <= 1e-8
        rs = np.arange(0.3, 1.0001, 0.01)
        va, vb = (prop.grid_diagnostics(rs)[0] for prop in (prop_a, prop_b))
        rel = np.abs(va - vb) / np.maximum(np.abs(va), 1e-30)
        assert np.max(rel) > 0.10
        # non-monotonic (oscillatory) in the large-r region for both curves
        for values in (va, vb):
            diffs = np.diff(values)
            assert np.any(diffs > 0) and np.any(diffs < 0)


def test_criterion_7_theorem_property_suite():
    with criterion("criterion 7: monotone + convex on certified region, "
                   "fd vs bulk - wall to 1e-4, phase invariance 1e-9"):
        r_grid = list(np.arange(0, 0.3001, 0.005))
        for n, pair in ((3, (2001, 2002)), (4, (2000, 2001))):
            r_max = certify_truncation_pair(n, pair, r_grid)[0]
            assert r_max > 0
            prop = VacuumSectorPropagator(n, pair[0])
            certified = [r for r in r_grid if r <= r_max]
            values = list(prop.grid_diagnostics(certified)[0])
            for a, b in zip(values, values[1:]):
                assert b >= a - 1e-12
            scale = max(values + [1.0])
            for i in range(1, len(values) - 1):
                assert values[i + 1] - 2 * values[i] + values[i - 1] >= -1e-8 * scale
            # fd vs the exact truncated-chain curvature inside the certified region
            r_mid = certified[len(certified) // 2]
            if r_mid > 1e-3:
                # h small enough that the O(h^2) stencil error stays below
                # the 1e-4 relative target even for the stiffer n=4 curve
                h = 2e-4
                cols = prop.grid_diagnostics([abs(r_mid - h), r_mid, r_mid + h])
                photons, bulk, wall = cols.mean_photon, cols.bulk[1], cols.wall[1]
                fd = (photons[2] - 2 * photons[1] + photons[0]) / h**2
                assert fd == pytest.approx(bulk - wall, rel=1e-4)
                assert bulk > 0
        # phase invariance through the expm oracle (the chain depends on |r| by construction)
        for n in (3, 4):
            photons = []
            for theta in (0.0, math.pi / 4, math.pi / 2):
                r = 0.08 * complex(math.cos(theta), math.sin(theta))
                probs = np.abs(expm_state(n, r, 64)) ** 2
                photons.append(float(np.arange(64) @ probs))
            assert max(photons) - min(photons) <= 1e-9


def test_criterion_8_numerical_hygiene():
    with criterion("criterion 8: norm error <= 1e-10 everywhere; dense-oracle and "
                   "chain agreement <= 1e-10 at N <= 64"):
        for n, r, size in [(1, 1.0, 400), (2, 0.8, 600), (3, 0.5, 6000), (4, 0.4, 6000)]:
            norm_error = VacuumSectorPropagator(n, size).grid_diagnostics([r])[2]
            assert norm_error[0] <= 1e-10
        for n, r, size in [(1, 0.9, 48), (2, 0.5, 64), (3, 0.3, 64), (4, 0.25, 64)]:
            K = generator(n, r, size)
            w = expm_state(n, r, size)
            oracle = expm(K)[:, 0]
            assert np.linalg.norm(w - oracle) <= 1e-10
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-10
            # the shipped chain, scattered onto all levels, at r and at a complex r
            prop = VacuumSectorPropagator(n, size)
            for z in (r, r * np.exp(1j * np.pi / 4)):
                chain = np.zeros(size, dtype=complex)
                chain[prop.levels] = prop.chain_grid([z])[:, 0]
                assert np.linalg.norm(chain - expm_state(n, z, size)) <= 1e-10
