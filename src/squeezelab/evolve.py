"""Evolution of the vacuum under exp(r a†^n - r* a^n) and convergence diagnostics.

Vacuum evolution has one representation, :class:`VacuumSectorPropagator`.
The generator couples Fock levels in steps of n, so acting on |0> it
reduces exactly to a real symmetric tridiagonal chain over levels
0, n, 2n, ...  Its eigenpairs come in pairs (lambda, v), (-lambda, S v) with
S = diag((-1)^j), so only the few dozen lambda >= 0 eigenpairs that overlap
|0> are computed, once per (n, N).  A whole grid of r is then two real
matrix products, cosines for the even sites and sines for the odd ones.
This is what makes sweeps over hundreds of r values at N ~ 10^4 cheap.

``squeezed_state(..., method="expm")`` is the independent oracle: scipy's
``expm_multiply`` applied to the full banded generator, for cross-checks at
small N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


# Bound on |e0 - V V^T e0|, the norm of the part of |0> outside the kept
# eigenvectors, which bounds the error of every evolved state.
WINDOW_TOL = 1e-14
# Complex entries in one block of chain_grid's output (16 MB).
_BLOCK_ENTRIES = 1 << 20


def _chain_eigensystem(n: int, size: int):
    """Eigenpairs of the vacuum-sector chain that carry |0>, for order n at truncation `size`.

    The chain visits levels 0, n, 2n, ... < size with coupling
    b_j = sqrt((jn+1)(jn+2)...(jn+n)); after a diagonal gauge it is the
    real symmetric tridiagonal matrix T with zero diagonal and off-diagonal b.
    With S = diag((-1)^j), S T S = -T, so eigenpairs come in exact pairs
    (lambda, v) and (-lambda, S v), and only the lambda > 0 half is solved
    for.  The pair's projection of |0> is v_0 (v + S v) = 2 v_0 v on even
    sites and exactly 0 on odd sites.  An odd-length chain also has the
    eigenvalue 0, whose vector is built in closed form: zero on odd sites,
    z_{2m+2} = -z_{2m} b_{2m} / b_{2m+1} on even sites.

    The squared overlaps of |0> with the eigenvectors (the Gauss weights of
    this Jacobi matrix) are negligible away from the smallest |lambda|, so
    bisection and inverse iteration compute only the k smallest positive
    eigenpairs.  k doubles from 32 until the discarded weight
    |e0 - sum_i w_i v_i| (even sites only) is at most WINDOW_TOL, or until
    the window covers every positive eigenvalue.

    Returns (eigenvalues, eigenvectors as C-ordered columns, their weights
    w = 2 v_0, or z_0 for the zero mode, discarded).
    """
    b = _ladder_products(n, range(0, size - n, n))
    length = len(b) + 1
    diag = np.zeros(length)
    lo = length - length // 2  # first positive eigenvalue; L // 2 of them
    if length % 2:
        zero_mode = np.zeros(length)
        zero_mode[0] = 1.0
        zero_mode[2::2] = np.cumprod(-b[0::2] / b[1::2])
        zero_mode /= np.linalg.norm(zero_mode)
    k = 32
    while True:
        hi = min(lo + k, length) - 1
        lam, V = eigh_tridiagonal(
            diag, b, select="i", select_range=(lo, hi), tol=2 * np.finfo(float).tiny,
        )
        weights = 2 * V[0]
        if length % 2:
            lam = np.append(lam, 0.0)
            V = np.column_stack([V, zero_mode])
            weights = np.append(weights, zero_mode[0])
        rest = -(V[0::2] @ weights)
        rest[0] += 1.0
        discarded = float(np.linalg.norm(rest))
        if discarded <= WINDOW_TOL or hi == length - 1:
            return lam, np.ascontiguousarray(V), weights, discarded
        k *= 2


class VacuumSectorPropagator:
    """Exact evolution of exp(r a†^n - r* a^n)|0> on a truncated basis.

    Solves the vacuum-sector chain once for the eigenpairs that carry |0>;
    a whole grid of r then costs two real matrix products, even sites by
    cosines and odd sites by sines, of size L/2 x k by k x len(grid), with
    L ~ N/n the chain length.  `discarded` bounds the norm of the error of
    every evolved state.
    """

    def __init__(self, n: int, dim: FockDim):
        if dim.size <= n:
            raise ValueError(f"truncation {dim.size} must exceed squeezing order {n}")
        self.n = n
        self.dim = dim
        self.eigvals, self.eigvecs, self._weights, self.discarded = _chain_eigensystem(n, dim.size)
        self.levels = n * np.arange(len(self.eigvecs))

    def chain_grid(self, r_values) -> np.ndarray:
        """Chain amplitudes for every r in `r_values`, one column per r.

        Row j is the amplitude on level jn; all other levels are exactly zero.
        """
        r = np.asarray(r_values, dtype=complex).reshape(-1)
        mag = np.abs(r)
        j = np.arange(len(self.eigvecs))
        # exp(-i T |r|) e0 is real on even sites and -i times real on odd sites;
        # with the gauge phase (i e^{i arg r})^j that leaves (-1)^(j//2) e^{ij arg r}
        sign = 1.0 - 2.0 * (j // 2 % 2)
        out = np.empty((len(j), len(r)), dtype=complex)
        block = max(1, _BLOCK_ENTRIES // len(j))
        for start in range(0, len(r), block):
            cols = slice(start, start + block)
            angles = np.outer(self.eigvals, mag[cols])
            out[0::2, cols] = self.eigvecs[0::2] @ (np.cos(angles) * self._weights[:, None])
            out[1::2, cols] = self.eigvecs[1::2] @ (np.sin(angles) * self._weights[:, None])
            out[:, cols] *= sign[:, None] * np.exp(1j * np.outer(j, np.angle(r[cols])))
        out[:, mag == 0] = np.eye(len(j), 1)  # the exact vacuum
        return out

    def chain_amplitudes(self, r: complex) -> np.ndarray:
        """Amplitudes on levels 0, n, 2n, ...; all other levels are exactly zero."""
        return self.chain_grid([r])[:, 0]

    def grid_diagnostics(self, r_values, tail: int | None = None) -> tuple[np.ndarray, ...]:
        """Mean photon number, leakage and norm error at every r in `r_values`.

        Leakage sums the chain sites at levels >= N - tail (default :func:`default_tail`).
        """
        tail = default_tail(self.n) if tail is None else tail
        if not 1 <= tail < self.dim.size:
            raise ValueError(f"tail must be in [1, {self.dim.size - 1}], got {tail}")
        probs = np.abs(self.chain_grid(r_values)) ** 2
        mean = self.levels @ probs
        leak = probs[self.levels >= self.dim.size - tail].sum(axis=0)
        norm_error = np.abs(np.sqrt(probs.sum(axis=0)) - 1.0)
        return mean, leak, norm_error

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

        vacuum = StateVector.vacuum(dim)
        if abs(params.r) < np.finfo(float).tiny:
            # exp(K)|0> - |0> < 1e-300; expm_multiply would take 0 steps and divide 0 by 0
            return vacuum
        return StateVector(dim, expm_multiply(generator(params, dim).matrix, vacuum.amplitudes))
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


def sweep_photon_number(
    n: int,
    r_grid,
    N_list,
    tail: int | None = None,
) -> SweepResult:
    """Mean photon number over a grid of r for each truncation in N_list.

    Each truncation's whole r grid is evaluated in one :meth:`chain_grid`
    call.  Rows are sorted by (N, r).
    """
    r_grid = [float(r) for r in r_grid]
    N_list = [int(N) for N in N_list]
    if not r_grid or not N_list:
        raise ValueError("r grid and N list must be non-empty")
    if sorted(r_grid) != r_grid or sorted(N_list) != N_list:
        raise ValueError("r grid and N list must be ascending")

    result = SweepResult(n=n)
    for N in N_list:
        stats = VacuumSectorPropagator(n, FockDim(N)).grid_diagnostics(r_grid, tail)
        result.rows += [
            SweepRow(N, r, float(photons), float(leak), float(norm_error))
            for r, photons, leak, norm_error in zip(r_grid, *stats)
        ]
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
    points = [abs(r - h), r, r + h]
    photons, leak, _ = prop.grid_diagnostics(points)
    for point, point_leak in zip(points, leak):
        if point_leak > leak_tol:
            raise NotConvergedError(f"state at r={point} is not converged at N={dim.size}")
    fd = float(photons[2] - 2 * photons[1] + photons[0]) / h**2
    analytic = 2 * n * expectation_diagonal(
        a_n_commutator_closed_form(n, dim), prop.state(r)
    )
    return fd, analytic


def certify_truncation_pair(
    n: int,
    N_pair: tuple[int, int],
    r_grid,
    leak_tol: float = DEFAULT_LEAK_TOL,
    agree_tol: float = 1e-8,
) -> tuple[float, np.ndarray]:
    """Largest certified grid r, and the mean photon number at N_pair[0] on the sorted grid.

    Certifies every grid point r' <= r: leakage below `leak_tol` at both
    truncations and relative mean-photon difference below `agree_tol`.
    The radius is 0.0 if no grid point qualifies.
    """
    N_a, N_b = N_pair
    if N_a == N_b:
        raise ValueError("truncation pair must be distinct")
    r_grid = sorted(float(r) for r in r_grid)
    photons_a, leak_a, _ = VacuumSectorPropagator(n, FockDim(N_a)).grid_diagnostics(r_grid)
    photons_b, leak_b, _ = VacuumSectorPropagator(n, FockDim(N_b)).grid_diagnostics(r_grid)
    best = 0.0
    for r, pa, pb, la, lb in zip(r_grid, photons_a, photons_b, leak_a, leak_b):
        if la > leak_tol or lb > leak_tol:
            break
        scale = max(abs(pa), abs(pb), 1e-30)
        if r > 0 and abs(pa - pb) / scale > agree_tol:
            break
        best = r
    return best, photons_a


def converged_region(
    n: int,
    N_pair: tuple[int, int],
    r_grid,
    leak_tol: float = DEFAULT_LEAK_TOL,
    agree_tol: float = 1e-8,
) -> float:
    """Largest grid r below which both truncations agree and neither leaks.

    See :func:`certify_truncation_pair`; returns 0.0 if no grid point qualifies.
    """
    return certify_truncation_pair(n, N_pair, r_grid, leak_tol, agree_tol)[0]
