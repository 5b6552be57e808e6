"""Evolution of the vacuum under exp(r a†^n - r* a^n) and convergence diagnostics.

Vacuum evolution has one representation, :class:`VacuumSectorPropagator`.
The generator couples Fock levels in steps of n, so acting on |0> it
reduces exactly to a real symmetric tridiagonal chain over levels
0, n, 2n, ...  Its eigenpairs come in pairs (lambda, v), (-lambda, S v) with
S = diag((-1)^j), so only the lambda >= 0 eigenpairs that overlap |0> are
computed, once per (n, N), by a numpy-only shift-invert Lanczos iteration
on the even-site block of the squared chain.  A whole grid of r is then two
real matrix products, cosines for the even sites and sines for the odd
ones.  This is what makes sweeps over hundreds of r values at N ~ 10^4
cheap, and it keeps scipy out of every sweep.

``squeezed_state(..., method="expm")`` is the independent oracle: scipy's
``expm_multiply`` applied to the full banded generator, for cross-checks at
small N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import (
    FockDim,
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


def expectation_diagonal(diag: np.ndarray, v: StateVector) -> float:
    """Expectation value of the number-basis-diagonal operator with diagonal `diag`."""
    probs = np.abs(v.amplitudes) ** 2
    return float(diag @ probs)


# Stop growing the Krylov basis once eta, the largest coefficient that any
# function |g| <= 1 of the Lanczos matrix puts on the newest basis vector,
# is at most this.
WINDOW_TOL = 1e-14
# Complex entries in one block of chain_grid's output (16 MB).
_BLOCK_ENTRIES = 1 << 20


def _forward_solver(diag: np.ndarray, sub: np.ndarray):
    """Solver for the lower bidiagonal system diag[k] u[k] + sub[k-1] u[k-1] = x[k].

    The recurrence is unrolled into a cumulative product and a cumulative
    sum, so one solve (of a vector, or of every column of a matrix) is a few
    vector operations.  The running product of -sub[k-1] / diag[k] must stay
    in floating-point range.  For the chain's systems it moves by at most a
    power of the chain length, except for n = 1, where it falls like
    exp(-sqrt(N)) and leaves the range near N = 5 10^5.
    """
    scale = np.cumprod(np.concatenate(([1.0], -sub / diag[1:])))
    with np.errstate(divide="ignore", over="ignore"):
        inverse = 1.0 / (diag * scale)
    if not np.isfinite(inverse).all():
        raise ValueError(f"a {len(diag)}-site bidiagonal solve leaves floating-point range")

    def solve(x: np.ndarray) -> np.ndarray:
        shape = (-1,) + (1,) * (x.ndim - 1)
        return scale.reshape(shape) * np.cumsum(x * inverse.reshape(shape), axis=0)

    return solve


def _shifted_inverse(d: np.ndarray, s: np.ndarray, size: int, shift: float):
    """x -> (B B^T + shift)^{-1} x for the size x len(d) lower bidiagonal B = (d, s).

    B B^T + shift = C C^T with C lower bidiagonal.  Its pivots are written
    c_k^2 = d_k^2 + g_k (d_k = 0 past the end of d) with
    g_k = shift + s_{k-1}^2 g_{k-1} / c_{k-1}^2, a sum of positive terms, so
    they keep full relative accuracy where the textbook recurrence cancels.
    """
    d2 = np.zeros(size)
    d2[:len(d)] = d * d
    pivots = np.empty(size)
    g = shift
    pivots[0] = d2[0] + g
    for k in range(1, size):
        g = shift + s[k - 1] ** 2 * g / pivots[k - 1]
        pivots[k] = d2[k] + g
    c = np.sqrt(pivots)
    sub = s[:size - 1] * d[:size - 1] / c[:-1]  # C[k, k-1]
    lower = _forward_solver(c, sub)
    upper = _forward_solver(c[::-1], sub[::-1])  # C^T, solved from the last row
    return lambda x: upper(lower(x)[::-1])[::-1]


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

    T couples even sites only to odd ones, through the lower bidiagonal B
    with B[m, m] = b_{2m} and B[m, m-1] = b_{2m-1}, so its even-site block
    of T^2 is M = B B^T with eigenvalues lambda^2.  The squared overlaps of
    |0> with the eigenvectors (the Gauss weights of this Jacobi matrix) are
    negligible away from the smallest |lambda|, which shift-invert Lanczos
    on (M + sigma)^{-1} from e0 finds first (van den Eshof & Hochbruck,
    SIAM J. Sci. Comput. 27, 1438, 2006).  sigma = b_0^2 = <0|M|0> keeps
    ||(M + sigma)^{-1}|| <= 1 / sigma, so the rounding of each solve does
    not grow with 1 / lambda_min^2.  The basis is fully reorthogonalised
    (against z too) and doubles from 32 vectors until
    eta = sum_i |S_0i S_{m-1,i}| over the eigenvectors S of the Lanczos
    matrix is at most WINDOW_TOL, or until it spans the space.  Every Ritz
    pair is kept.  Each Ritz vector y gives the odd sites x = lambda B^+ y
    and lambda = 1 / |B^+ y| by one forward B solve, which damps the
    rounding in y where B^T y / lambda would amplify it.

    Returns (eigenvalues, eigenvectors as C-ordered columns, their weights
    w = 2 v_0, or z_0 for the zero mode, discarded = eta, or 0 once the
    basis spans the space).
    """
    b = _ladder_products(n, range(0, size - n, n))
    length = len(b) + 1
    n_even, n_odd = length - length // 2, length // 2
    d, s = b[0::2], b[1::2]  # B[m, m] = d[m], B[m, m-1] = s[m-1]
    shift_invert = _shifted_inverse(d, s, n_even, b[0] ** 2)
    locked = length % 2  # an odd chain's zero mode z leads the basis
    if locked:
        zero_mode = np.zeros(n_even)
        zero_mode[0] = 1.0
        zero_mode[1:] = np.cumprod(-d / s)
        zero_mode /= np.linalg.norm(zero_mode)
        # e0 - z_0 z, normalised; 1 - z_0^2 summed over the other sites, where it does not cancel
        rest = np.sqrt(np.sum(zero_mode[1:] ** 2))
        start = -zero_mode[0] / rest * zero_mode
        start[0] = rest
        basis = np.array([zero_mode, start])  # so reorthogonalising removes z
    else:
        basis = np.eye(1, n_even)
    dim = n_even - locked
    alpha, beta = [], []
    m = min(32, dim)
    while True:
        basis = np.concatenate([basis, np.empty((m - len(alpha), n_even))])
        for k in range(len(alpha), m):
            row = locked + k
            w = shift_invert(basis[row])
            alpha.append(basis[row] @ w)
            for _ in range(2):  # one Gram-Schmidt pass loses orthogonality here
                w -= basis[:row + 1].T @ (basis[:row + 1] @ w)
            if k + 1 < dim:
                beta.append(np.linalg.norm(w))
                basis[row + 1] = w / beta[-1]
        lanczos = np.diag(alpha) + np.diag(beta[:m - 1], 1) + np.diag(beta[:m - 1], -1)
        S = np.linalg.eigh(lanczos)[1]
        eta = float(np.abs(S[0] * S[-1]).sum())
        if eta <= WINDOW_TOL or m == dim:
            break
        m = min(2 * m, dim)
    V = np.empty((length, m + locked))
    # Ritz vectors y on the even sites, largest Ritz value (smallest lambda) first
    V[0::2, :m] = basis[locked:locked + m].T @ S[:, ::-1]
    del basis
    V[1::2, :m] = _forward_solver(d, s[:n_odd - 1])(V[0:2 * n_odd:2, :m])
    inv_lam = np.linalg.norm(V[1::2, :m], axis=0)
    V[1::2, :m] /= inv_lam
    V[:, :m] *= np.sqrt(0.5)
    lam = 1.0 / inv_lam
    weights = 2 * V[0, :m]
    if locked:
        V[0::2, m] = zero_mode
        V[1::2, m] = 0.0
        lam = np.append(lam, 0.0)
        weights = np.append(weights, zero_mode[0])
    return lam, V, weights, 0.0 if m == dim else eta


class VacuumSectorPropagator:
    """Exact evolution of exp(r a†^n - r* a^n)|0> on a truncated basis.

    Solves the vacuum-sector chain once for the eigenpairs that carry |0>;
    a whole grid of r then costs two real matrix products, even sites by
    cosines and odd sites by sines, of size L/2 x k by k x len(grid), with
    L ~ N/n the chain length.  `discarded` is the Lanczos estimate eta of
    :func:`_chain_eigensystem`, 0 when the basis spans the chain.
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
            out[:, cols] *= sign[:, None]
            # the phase is exactly 1 for arg r = 0, the real grids that sweeps use
            phase = np.angle(r[cols])
            twisted = phase != 0
            out[:, cols][:, twisted] *= np.exp(1j * np.outer(j, phase[twisted]))
        out[:, mag == 0] = np.eye(len(j), 1)  # the exact vacuum
        return out

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


def squeezed_state(params: SqueezeParams, dim: FockDim, method: str = "chain") -> StateVector:
    """|r_n> = exp(r a†^n - r* a^n)|0> on the truncated basis.

    method="chain" uses the vacuum-sector eigendecomposition (default);
    method="expm" applies scipy's ``expm_multiply`` (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 33, 488, 2011) to the banded generator and is the
    independent oracle for the chain.
    """
    if method == "chain":
        prop = VacuumSectorPropagator(params.n, dim)
        amps = np.zeros(dim.size, dtype=complex)
        amps[prop.levels] = prop.chain_grid([params.r])[:, 0]
        return StateVector(dim, amps)
    if method == "expm":
        # imported here: loading scipy.sparse.linalg would add ~0.03 s to every CLI start
        from scipy.sparse.linalg import expm_multiply

        vacuum = StateVector.vacuum(dim)
        if abs(params.r) < np.finfo(float).tiny:
            # exp(K)|0> - |0> < 1e-300; expm_multiply would take 0 steps and divide 0 by 0
            return vacuum
        return StateVector(dim, expm_multiply(generator(params, dim), vacuum.amplitudes))
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
    probs = np.abs(prop.chain_grid([r])[:, 0]) ** 2
    analytic = 2 * n * float(a_n_commutator_closed_form(n, dim)[prop.levels] @ probs)
    return fd, analytic


def truncation_pair_diagnostics(n: int, N_pair, r_grid) -> list[tuple[np.ndarray, ...]]:
    """:meth:`VacuumSectorPropagator.grid_diagnostics` of `r_grid` at each N in N_pair."""
    return [VacuumSectorPropagator(n, FockDim(int(N))).grid_diagnostics(r_grid) for N in N_pair]


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
    if N_pair[0] == N_pair[1]:
        raise ValueError("truncation pair must be distinct")
    r_grid = sorted(float(r) for r in r_grid)
    (photons_a, leak_a, _), (photons_b, leak_b, _) = truncation_pair_diagnostics(
        n, N_pair, r_grid
    )
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
