"""The Taylor series of <a†a>: its growth fit, and `squeezelab compare` against the numerics."""

import csv
import json
import math
from fractions import Fraction

import pytest

from squeezelab.algebra import CoefficientSeries, coefficients, fit_exponential
from squeezelab.cli import main


def root_test_sequence(series):
    """Per-entry |c_m|^(1/m); these approach 1/R when the series has radius R."""
    return [(m, float(abs(c)) ** (1 / m)) for m, c in series.entries]


def synthetic_series(alpha, ms, n=0):
    entries = [(m, Fraction(math.exp(alpha * m))) for m in ms]
    return CoefficientSeries(n=n, entries=entries)


def test_fit_exact_exponential():
    series = synthetic_series(2.0, range(2, 21, 2))
    fit = fit_exponential(series)
    assert fit.alpha == pytest.approx(2.0, abs=1e-12)
    assert fit.radius == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert fit.alpha_stderr < 1e-12
    assert fit.points_used == [12, 14, 16, 18, 20]


def test_fit_radius_alpha_relation():
    for series in (coefficients(3, 10), synthetic_series(0.7, range(2, 13, 2))):
        fit = fit_exponential(series)
        assert fit.radius * math.exp(fit.alpha) == pytest.approx(1.0, rel=1e-15)


def test_fit_reproduces_tri_squeezed_growth():
    fit = fit_exponential(coefficients(3, 20))
    assert 1.89 <= fit.alpha <= 2.01
    assert 0.124 <= fit.radius <= 0.151
    assert fit.points_used == [32, 34, 36, 38, 40]


def test_fit_reproduces_quadri_squeezed_growth():
    fit = fit_exponential(coefficients(4, 10))
    assert 3.1 <= fit.alpha <= 3.7
    assert 0.02 <= fit.radius <= 0.045


def test_fit_rejects_short_series():
    with pytest.raises(ValueError):
        fit_exponential(coefficients(1, 5))  # only one non-zero entry
    with pytest.raises(ValueError):
        fit_exponential(coefficients(3, 3))


def test_fit_rejects_negative_coefficients():
    entries = [(2, Fraction(1)), (4, Fraction(-1)), (6, Fraction(2)),
               (8, Fraction(3)), (10, Fraction(4))]
    with pytest.raises(ValueError, match="negative"):
        fit_exponential(CoefficientSeries(n=0, entries=entries))


def test_root_test_two_photon_decays_to_zero():
    # sinh² is entire: |c_m|^(1/m) must decay towards zero
    seq = root_test_sequence(coefficients(2, 30))
    values = [v for _, v in seq]
    assert values[-1] < values[0]
    assert values[-1] < 1.0


def test_root_test_tri_squeezed_tracks_fitted_alpha():
    series = coefficients(3, 20)
    fit = fit_exponential(series)
    last = root_test_sequence(series)[-1]
    assert last[0] == 40
    assert abs(last[1] - math.exp(fit.alpha)) / math.exp(fit.alpha) < 0.15


def test_two_photon_late_window_slope_decreases():
    # infinite radius: the log-slope over late windows is eventually negative
    series = coefficients(2, 30)
    fit = fit_exponential(series)
    assert fit.alpha < 0


def run_compare(tmp_path, n, N_pair, M, r_spec):
    """Rows of `squeezelab compare` (floats, and converged as a bool) and its summary."""
    out, summary = tmp_path / "compare.csv", tmp_path / "summary.json"
    code = main(["compare", "--n", str(n), "--N", N_pair, "--M", str(M), "--r", r_spec,
                 "--out", str(out), "--summary-out", str(summary)])
    assert code == 0
    with open(out) as handle:
        rows = [
            {key: value == "true" if key == "converged" else float(value)
             for key, value in row.items()}
            for row in csv.DictReader(handle)
        ]
    return rows, json.loads(summary.read_text())


def test_compare_table_zero_row(tmp_path):
    rows, _ = run_compare(tmp_path, 3, "501,502", 5, "0:0:1")
    row = rows[0]
    assert row["numeric_N"] == 0.0
    assert row["numeric_Nprime"] == 0.0
    assert row["taylor"] == 0.0
    assert row["converged"]


def test_compare_inside_radius_converges(tmp_path):
    rows, _ = run_compare(tmp_path, 3, "2001,2002", 20, "0:0.05:0.01")
    assert len(rows) == 6
    assert all(row["converged"] for row in rows)
    for row in rows:
        assert row["diff_num"] <= 1e-6
        assert row["diff_taylor"] <= 1e-6


def test_compare_beyond_radius_disagrees(tmp_path):
    rows, summary = run_compare(tmp_path, 3, "3000,3001", 20, "0.3:0.3:1")
    assert not rows[0]["converged"]
    assert summary["first_disagreement_r"] == 0.3


def test_compare_two_photon_never_disagrees(tmp_path):
    rows, summary = run_compare(tmp_path, 2, "800,801", 30, "0:0.5:0.05")
    assert len(rows) == 11
    assert all(row["converged"] for row in rows)
    assert summary["first_disagreement_r"] is None


def test_compare_csv_schema_and_summary(tmp_path):
    rows, summary = run_compare(tmp_path, 3, "501,502", 5, "0:0.01:0.01")
    lines = (tmp_path / "compare.csv").read_text().strip().split("\n")
    assert lines[0] == "r,numeric_N,numeric_Nprime,taylor,diff_num,diff_taylor,converged"
    assert len(lines) == 3
    assert summary["N_pair"] == [501, 502]
    assert summary["agree_tol"] == 1e-6
    assert summary["estimated_radius"] == pytest.approx(math.exp(-summary["alpha"]))


def test_compare_summary_without_a_fit(tmp_path):
    # n = 1 has a single non-zero coefficient: the table is still written, with no radius
    rows, summary = run_compare(tmp_path, 1, "100,101", 5, "0:0.1:0.1")
    assert all(row["converged"] for row in rows)
    assert summary["estimated_radius"] is None and summary["alpha"] is None
