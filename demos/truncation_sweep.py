"""Truncation sweep: where the tri-squeezed photon number stops being trustworthy.

Computes <a†a> for the n=3 squeezed state over r in [0, 1] at two adjacent
truncations, N = 6000 and N = 6001. For n = 3 these are chains of 2000 and
2001 sites (levels 0, 3, ..., 5997 and 0, 3, ..., 6000), one from each parity
class: only the odd-length chain has an eigenvalue 0. On the 0.005 grid the
two agree to 1e-8 relative, with neither leaking, up to r = 0.095, the
certified region printed below; beyond it they separate and oscillate,
revealing the numbers as truncation artifacts. (The probes use a looser 1e-6
test, so r = 0.1 still reads "agree".) Writes sweep_n3.csv for plotting,
through the `squeezelab sweep` command.
"""

import numpy as np

from squeezelab import VacuumSectorPropagator, certify_truncation_pair
from squeezelab.cli import main

n = 3
N_pair = (6000, 6001)
r_grid = np.arange(0, 1.0001, 0.005)

main(["sweep", "--n", str(n), "--r", "0:1:0.005", "--N", "6000,6001", "--out", "sweep_n3.csv"])
with open("sweep_n3.csv") as fh:
    print(f"wrote sweep_n3.csv ({len(fh.readlines()) - 1} rows)")

r_ok = certify_truncation_pair(n, N_pair, r_grid)[0]
print(f"certified converged region: r <= {r_ok}")

r_probe = [0.05, 0.1, 0.3, 0.6, 1.0]
photons_a, photons_b = (
    VacuumSectorPropagator(n, N).grid_diagnostics(r_probe).mean_photon for N in N_pair
)
for r, pa, pb in zip(r_probe, photons_a, photons_b):
    tag = "agree" if abs(pa - pb) <= 1e-6 * max(pa, 1) else "DIVERGED"
    print(f"r = {r:4.2f}: N={N_pair[0]} gives {pa:12.6f}, N={N_pair[1]} gives {pb:12.6f}  [{tag}]")
