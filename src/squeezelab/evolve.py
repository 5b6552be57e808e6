"""Evolution of the vacuum under exp(r a†^n - r* a^n) and convergence diagnostics.

Vacuum evolution has one representation, :class:`VacuumSectorPropagator`.
The generator couples Fock levels in steps of n, so acting on |0> it
reduces exactly to a real symmetric tridiagonal chain over levels
0, n, 2n, ...; one eigendecomposition of that chain serves every value of r
at a given (n, N).  This is what makes sweeps over hundreds of r values at
N ~ 10^4 cheap.

``squeezed_state(..., method="expm")`` is the independent oracle: scipy's
``expm_multiply`` applied to the full banded generator, for cross-checks at
small N.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .fock import (
    FockDim,
    SparseOperator,
    SqueezeParams,
    _ladder_products,
    a_n_commutator_closed_form,
    generator,
)

DEFAULT_LEAK_TOL = 1e-10


@dataclass
class StateVector:
    """Complex amplitudes over Fock levels 0 .. size-1."""

    dim: FockDim
    amplitudes: np.ndarray

    @classmethod
    def vacuum(cls, dim: FockDim) -> "StateVector":
        amps = np.zeros(dim.size, dtype=complex)
        amps[0] = 1.0
        return cls(dim, amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def norm_error(self) -> float:
        return abs(self.norm - 1.0)


def mean_photon(v: StateVector) -> float:
    """<a†a> = sum_m m |v_m|^2."""
    probs = np.abs(v.amplitudes) ** 2
    return float(np.arange(v.dim.size) @ probs)


def expectation_diagonal(op: SparseOperator, v: StateVector) -> float:
    """Expectation value of a number-basis-diagonal operator."""
    diag = op.diagonal()
    probs = np.abs(v.amplitudes) ** 2
    return float(np.real(diag) @ probs)


def leakage(v: StateVector, tail: int) -> float:
    """Probability weight in the top `tail` Fock levels (truncation-error proxy)."""
    if not 1 <= tail < v.dim.size:
        raise ValueError(f"tail must be in [1, {v.dim.size - 1}], got {tail}")
    return float(np.sum(np.abs(v.amplitudes[v.dim.size - tail:]) ** 2))


@lru_cache(maxsize=4)
def _chain_eigensystem(n: int, size: int):
    """Eigendecomposition of the vacuum-sector chain for order n at truncation `size`.

    The chain visits levels 0, n, 2n, ... < size with coupling
    b_j = sqrt((jn+1)(jn+2)...(jn+n)); after a diagonal gauge it is the
    real symmetric tridiagonal matrix with zero diagonal and off-diagonal b.
    """
    b = _ladder_products(n, range(0, size - n, n))
    lam, V = eigh_tridiagonal(np.zeros(len(b) + 1), b)
    return lam, V, V[0].copy()


class VacuumSectorPropagator:
    """Exact evolution of exp(r a†^n - r* a^n)|0> on a truncated basis.

    Diagonalizes the vacuum-sector chain once; each value of r then costs
    a single dense matrix-vector product of chain length ~ N/n.
    """

    def __init__(self, n: int, dim: FockDim):
        if dim.size <= n:
            raise ValueError(f"truncation {dim.size} must exceed squeezing order {n}")
        self.n = n
        self.dim = dim
        self.eigvals, self.eigvecs, self._first_row = _chain_eigensystem(n, dim.size)
        self.levels = n * np.arange(len(self.eigvals))

    def chain_amplitudes(self, r: complex) -> np.ndarray:
        """Amplitudes on levels 0, n, 2n, ...; all other levels are exactly zero."""
        mag = abs(r)
        if mag == 0:
            chain = np.zeros(len(self.eigvals), dtype=complex)
            chain[0] = 1.0
            return chain
        chain = self.eigvecs @ (np.exp(-1j * mag * self.eigvals) * self._first_row)
        j = np.arange(len(chain))
        phase = (1j * np.exp(1j * np.angle(r) if mag else 0.0)) ** j
        return phase * chain

    def state(self, r: complex) -> StateVector:
        amps = np.zeros(self.dim.size, dtype=complex)
        amps[self.levels] = self.chain_amplitudes(r)
        return StateVector(self.dim, amps)

    def mean_photon(self, r: complex) -> float:
        chain = self.chain_amplitudes(r)
        return float(self.levels @ (np.abs(chain) ** 2))


def squeezed_state(params: SqueezeParams, dim: FockDim, method: str = "chain") -> StateVector:
    """|r_n> = exp(r a†^n - r* a^n)|0> on the truncated basis.

    method="chain" uses the vacuum-sector eigendecomposition (default);
    method="expm" applies scipy's ``expm_multiply`` (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 33, 488, 2011) to the banded generator and is the
    independent oracle for the chain.
    """
    if method == "chain":
        return VacuumSectorPropagator(params.n, dim).state(params.r)
    if method == "expm":
        # imported here: loading scipy.sparse.linalg would add ~0.03 s to every CLI start
        from scipy.sparse.linalg import expm_multiply

        vacuum = StateVector.vacuum(dim).amplitudes
        return StateVector(dim, expm_multiply(generator(params, dim).matrix, vacuum))
    raise ValueError(f"unknown method {method!r}")


@dataclass
class SweepRow:
    N: int
    r: float
    mean_photon: float
    leakage: float
    norm_error: float
    status: str = "ok"


@dataclass
class SweepResult:
    """Mean photon number tabulated over (N, r), with convergence diagnostics."""

    n: int
    rows: list[SweepRow] = field(default_factory=list)

    CSV_HEADER = "n,N,r,mean_photon,leakage,norm_error,status"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for row in self.rows:
            lines.append(
                f"{self.n},{row.N},{row.r:.17g},{row.mean_photon:.17g},"
                f"{row.leakage:.17g},{row.norm_error:.17g},{row.status}"
            )
        return "\n".join(lines) + "\n"


def default_tail(n: int) -> int:
    # generator couples levels in steps of n; >= 2n catches boundary reflection
    return max(10, 2 * n)


def _max_threads() -> int:
    raw = os.environ.get("SQUEEZELAB_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return max(1, os.cpu_count() or 1)


def sweep_photon_number(
    n: int,
    r_grid,
    N_list,
    tail: int | None = None,
) -> SweepResult:
    """Mean photon number over a grid of r for each truncation in N_list.

    Output is sorted by (N, r) regardless of execution order.
    """
    r_grid = [float(r) for r in r_grid]
    N_list = [int(N) for N in N_list]
    if not r_grid or not N_list:
        raise ValueError("r grid and N list must be non-empty")
    if sorted(r_grid) != r_grid or sorted(N_list) != N_list:
        raise ValueError("r grid and N list must be ascending")

    row_tail = tail if tail is not None else default_tail(n)
    if not 1 <= row_tail < min(N_list):
        raise ValueError(f"leakage tail {row_tail} must be in [1, {min(N_list) - 1}]")

    def rows_for(N: int) -> list[SweepRow]:
        dim = FockDim(N)
        prop = VacuumSectorPropagator(n, dim)
        out = []
        for r in r_grid:
            state = prop.state(r)
            out.append(
                SweepRow(
                    N=N,
                    r=r,
                    mean_photon=mean_photon(state),
                    leakage=leakage(state, row_tail),
                    norm_error=state.norm_error,
                )
            )
        return out

    workers = min(_max_threads(), len(N_list))
    result = SweepResult(n=n)
    if workers == 1:
        for N in N_list:
            result.rows.extend(rows_for(N))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for rows in pool.map(rows_for, N_list):
                result.rows.extend(rows)
    result.rows.sort(key=lambda row: (row.N, row.r))
    return result


class NotConvergedError(RuntimeError):
    """A diagnostic required a truncation-converged state and did not get one."""


def second_derivative_check(
    n: int,
    r: float,
    dim: FockDim,
    h: float = 1e-3,
    leak_tol: float = DEFAULT_LEAK_TOL,
) -> tuple[float, float]:
    """Compare d²<a†a>/dr² by finite differences against 2n <[a^n, a†^n]>.

    Returns (fd, analytic).  Mean photon number is even in r, so the stencil
    point at r - h is evaluated at |r - h|, which also covers r = 0.
    Raises :class:`NotConvergedError` if the stencil states leak into the
    truncation boundary.
    """
    if r < 0 or h <= 0:
        raise ValueError("need r >= 0 and h > 0")
    prop = VacuumSectorPropagator(n, dim)
    tail = default_tail(n)
    values = {}
    for point in (abs(r - h), r, r + h):
        state = prop.state(point)
        if leakage(state, tail) > leak_tol:
            raise NotConvergedError(
                f"state at r={point} is not converged at N={dim.size}"
            )
        values[point] = mean_photon(state)
    fd = (values[r + h] - 2 * values[r] + values[abs(r - h)]) / h**2
    analytic = 2 * n * expectation_diagonal(
        a_n_commutator_closed_form(n, dim), prop.state(r)
    )
    return fd, analytic


def converged_region(
    n: int,
    N_pair: tuple[int, int],
    r_grid,
    leak_tol: float = DEFAULT_LEAK_TOL,
    agree_tol: float = 1e-8,
) -> float:
    """Largest grid r below which both truncations agree and neither leaks.

    Certifies every grid point r' <= r: leakage below `leak_tol` at both
    truncations and relative mean-photon difference below `agree_tol`.
    Returns 0.0 if no grid point qualifies.
    """
    N_a, N_b = N_pair
    if N_a == N_b:
        raise ValueError("truncation pair must be distinct")
    r_grid = [float(r) for r in r_grid]
    prop_a = VacuumSectorPropagator(n, FockDim(N_a))
    prop_b = VacuumSectorPropagator(n, FockDim(N_b))
    tail = default_tail(n)
    best = 0.0
    for r in sorted(r_grid):
        state_a = prop_a.state(r)
        state_b = prop_b.state(r)
        if leakage(state_a, tail) > leak_tol or leakage(state_b, tail) > leak_tol:
            break
        pa, pb = mean_photon(state_a), mean_photon(state_b)
        scale = max(abs(pa), abs(pb), 1e-30)
        if r > 0 and abs(pa - pb) / scale > agree_tol:
            break
        best = r
    return best
