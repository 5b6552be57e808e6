"""The Taylor series of <a†a>: its growth fit, and `squeezelab compare` against the numerics."""

import csv
import json
import math
from fractions import Fraction

import pytest

from squeezelab.algebra import coefficients, fit_exponential
from squeezelab.cli import main


def root_test_sequence(entries):
    """Per-entry |c_m|^(1/m); these approach 1/R when the series has radius R."""
    return [(m, float(abs(c)) ** (1 / m)) for m, c in entries]


def synthetic_series(alpha, ms):
    return [(m, Fraction(math.exp(alpha * m))) for m in ms]


def test_fit_exact_exponential():
    alpha, stderr, used = fit_exponential(synthetic_series(2.0, range(2, 21, 2)))
    assert alpha == pytest.approx(2.0, abs=1e-12)
    assert math.exp(-alpha) == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert stderr < 1e-12
    assert used == [12, 14, 16, 18, 20]


def test_fit_rejects_short_series():
    with pytest.raises(ValueError):
        fit_exponential(coefficients(1, 5))  # only one non-zero entry
    with pytest.raises(ValueError):
        fit_exponential(coefficients(3, 3))


def test_fit_rejects_negative_coefficients():
    entries = [(2, Fraction(1)), (4, Fraction(-1)), (6, Fraction(2)),
               (8, Fraction(3)), (10, Fraction(4))]
    with pytest.raises(ValueError, match="negative"):
        fit_exponential(entries)


def test_root_test_two_photon_decays_to_zero():
    # sinh² is entire: |c_m|^(1/m) must decay towards zero
    seq = root_test_sequence(coefficients(2, 30))
    values = [v for _, v in seq]
    assert values[-1] < values[0]
    assert values[-1] < 1.0


def test_root_test_tri_squeezed_tracks_fitted_alpha():
    entries = coefficients(3, 20)
    alpha = fit_exponential(entries)[0]
    last = root_test_sequence(entries)[-1]
    assert last[0] == 40
    assert abs(last[1] - math.exp(alpha)) / math.exp(alpha) < 0.15


def test_two_photon_late_window_slope_decreases():
    # infinite radius: the log-slope over late windows is eventually negative
    assert fit_exponential(coefficients(2, 30))[0] < 0


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
