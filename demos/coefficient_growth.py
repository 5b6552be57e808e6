"""Coefficient growth and convergence radius of the photon-number series.

Computes the exact Taylor coefficients of <a†a>_n for n = 3 and n = 4,
fits their exponential growth over the last five points, and compares the
resulting radius against the r at which truncated numerics start to
disagree with the partial sum. Writes coeffs_n3.csv, compare_n3.csv and
compare_n3.json through the `squeezelab coeffs` and `compare` commands.
"""

import json

import numpy as np

from squeezelab import coefficients, fit_exponential
from squeezelab.cli import main

for n, M in ((3, 20), (4, 10)):
    entries = coefficients(n, M)  # (m, c_m) pairs
    alpha, stderr, _ = fit_exponential(entries)
    print(f"n={n}: growth rate alpha = {alpha:.4f} +- {stderr:.4f}, "
          f"radius = {np.exp(-alpha):.4f}")
    last_m, last_c = entries[-1]
    last_root = float(last_c) ** (1 / last_m)
    print(f"      root test |c_m|^(1/m) at m={last_m}: {last_root:.4f} "
          f"(fit predicts {np.exp(alpha):.4f})")

main(["coeffs", "--n", "3", "--M", "20", "--out", "coeffs_n3.csv"])
main(["compare", "--n", "3", "--N", "6000,6001", "--M", "20", "--r", "0:0.3:0.005",
      "--out", "compare_n3.csv", "--summary-out", "compare_n3.json"])
with open("compare_n3.json") as fh:
    summary = json.load(fh)
print(f"Taylor vs numerics first disagree at r = {summary['first_disagreement_r']} "
      f"(estimated radius {summary['estimated_radius']:.3f})")
