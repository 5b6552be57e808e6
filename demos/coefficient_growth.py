"""Coefficient growth and convergence radius of the photon-number series.

Computes the exact Taylor coefficients of <a†a>_n for n = 3 and n = 4,
fits their exponential growth over the last five points, and compares the
resulting radius against the r at which truncated numerics start to
disagree with the partial sum. Writes coeffs_n3.csv and compare_n3.csv.
"""

import numpy as np

from squeezelab import coefficients, compare_taylor_numeric, fit_exponential

for n, M in ((3, 20), (4, 10)):
    series = coefficients(n, M)
    fit = fit_exponential(series)
    print(f"n={n}: growth rate alpha = {fit.alpha:.4f} +- {fit.alpha_stderr:.4f}, "
          f"radius = {fit.radius:.4f}")
    last_m, last_c = series.entries[-1]
    last_root = float(last_c) ** (1 / last_m)
    print(f"      root test |c_m|^(1/m) at m={last_m}: {last_root:.4f} "
          f"(fit predicts {np.exp(fit.alpha):.4f})")

series3 = coefficients(3, 20)
with open("coeffs_n3.csv", "w") as fh:
    fh.write(series3.to_csv())

table = compare_taylor_numeric(3, (6000, 6001), 20, np.arange(0, 0.3001, 0.005),
                               series=series3)
with open("compare_n3.csv", "w") as fh:
    fh.write(table.to_csv())
print(f"Taylor vs numerics first disagree at r = {table.first_disagreement_r} "
      f"(estimated radius {table.fit.radius:.3f})")
