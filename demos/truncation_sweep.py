"""Truncation sweep: where the tri-squeezed photon number stops being trustworthy.

Computes <a†a> for the n=3 squeezed state over r in [0, 1] at two adjacent
truncations, N = 6000 and N = 6001. Inside the convergence radius
(r ~< 0.14) the two curves are indistinguishable; beyond it they separate
and oscillate, revealing the numbers as truncation artifacts. Writes
sweep_n3.csv for plotting, through the `squeezelab sweep` command.
"""

import numpy as np

from squeezelab import FockDim, VacuumSectorPropagator, certify_truncation_pair
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
    VacuumSectorPropagator(n, FockDim(N)).grid_diagnostics(r_probe)[0] for N in N_pair
)
for r, pa, pb in zip(r_probe, photons_a, photons_b):
    tag = "agree" if abs(pa - pb) <= 1e-6 * max(pa, 1) else "DIVERGED"
    print(f"r = {r:4.2f}: N={N_pair[0]} gives {pa:12.6f}, N={N_pair[1]} gives {pb:12.6f}  [{tag}]")
