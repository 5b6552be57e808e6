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
cheap.  The module returns arrays; `squeezelab.cli` tabulates them as the
sweep and compare tables.

`expm_state` is the independent oracle for cross-checks at small N: one
dense Hermitian eigendecomposition of the full generator, sharing no code
with the chain's Lanczos solver.  Nothing here loads scipy.
"""

from __future__ import annotations

import numpy as np

from .fock import (
    BudgetExceededError,
    FockDim,
    SqueezeParams,
    _ladder_products,
    a_n_commutator_closed_form,
    generator,
)

# A state leaks when more than LEAK_TOL of its weight sits in the truncation's
# top levels, and two truncations agree when their mean photon numbers differ
# by at most AGREE_RTOL relative to the larger.  A compare row converges when
# both truncations and the Taylor partial sum agree to AGREE_TOL absolute and
# neither truncation leaks.
LEAK_TOL = 1e-10
AGREE_RTOL = 1e-8
AGREE_TOL = 1e-6
# Largest truncation of the dense expm oracle: one complex matrix is 64 MB, and
# a call at the cap peaks near 360 MB RSS and takes about 3 s on 2 cores.
MAX_ORACLE_SIZE = 2048

# Stop growing the Krylov basis once eta, the largest coefficient that any
# function |g| <= 1 of the Lanczos matrix puts on the newest basis vector,
# is at most this.
WINDOW_TOL = 1e-14
# Complex entries of the chain_grid block that grid_diagnostics reduces at a time (16 MB).
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
        angles = np.outer(self.eigvals, mag)
        out = np.empty((len(j), len(r)), dtype=complex)
        out[0::2] = self.eigvecs[0::2] @ (np.cos(angles) * self._weights[:, None])
        out[1::2] = self.eigvecs[1::2] @ (np.sin(angles) * self._weights[:, None])
        out *= sign[:, None]
        # the phase is exactly 1 for arg r = 0, the real grids that sweeps use
        phase = np.angle(r)
        twisted = phase != 0
        out[:, twisted] *= np.exp(1j * np.outer(j, phase[twisted]))
        out[:, mag == 0] = np.eye(len(j), 1)  # the exact vacuum
        return out

    def grid_diagnostics(self, r_values) -> tuple[np.ndarray, ...]:
        """Mean photon number, leakage and norm error at every r in `r_values`.

        Leakage sums the chain sites at the top min(max(10, 2n), N - 1) levels:
        the generator couples levels in steps of n, so >= 2n catches boundary
        reflection.  The grid is evaluated in blocks of _BLOCK_ENTRIES // L
        values of r, each reduced at once, so memory does not grow with the grid.
        """
        r = np.asarray(r_values, dtype=complex).reshape(-1)
        tail = min(max(10, 2 * self.n), self.dim.size - 1)
        edge = self.levels >= self.dim.size - tail
        stats = np.empty((3, len(r)))
        block = max(1, _BLOCK_ENTRIES // len(self.levels))
        for start in range(0, len(r), block):
            cols = slice(start, start + block)
            probs = np.abs(self.chain_grid(r[cols])) ** 2
            stats[0, cols] = self.levels @ probs
            stats[1, cols] = probs[edge].sum(axis=0)
            stats[2, cols] = np.abs(np.sqrt(probs.sum(axis=0)) - 1.0)
        return tuple(stats)


def expm_state(params: SqueezeParams, dim: FockDim) -> np.ndarray:
    """|r_n> = exp(r a†^n - r* a^n)|0> over all levels of the truncated basis: the oracle.

    One dense eigendecomposition iK = V diag(w) V^+ of the full generator
    (LAPACK zheevd) gives exp(K)|0> = V e^{-iw} V^+ e0, well conditioned as K
    is normal (Moler & Van Loan, SIAM Rev. 45, 3, 2003).  Above
    MAX_ORACLE_SIZE levels it raises :class:`BudgetExceededError` before
    allocating anything.
    """
    if dim.size > MAX_ORACLE_SIZE:
        raise BudgetExceededError("N", MAX_ORACLE_SIZE)
    if abs(params.r) < np.finfo(float).tiny:
        # exp(K)|0> - |0> < 1e-300: return the exact vacuum
        return np.eye(dim.size, 1, dtype=complex)[:, 0]
    w, V = np.linalg.eigh(1j * generator(params, dim))
    return V @ (np.exp(-1j * w) * V[0].conj())


class NotConvergedError(RuntimeError):
    """A diagnostic required a truncation-converged state and did not get one."""


def second_derivative_check(
    n: int,
    r: float,
    dim: FockDim,
    h: float = 1e-3,
) -> tuple[float, float]:
    """Compare d²<a†a>/dr² by finite differences against 2n <[a^n, a†^n]>.

    Returns (fd, analytic).  Mean photon number is even in r, so the stencil
    point at r - h is evaluated at |r - h|, which also covers r = 0.
    Raises :class:`NotConvergedError` if a stencil state leaks more than
    LEAK_TOL into the truncation boundary.
    """
    if r < 0 or h <= 0:
        raise ValueError("need r >= 0 and h > 0")
    prop = VacuumSectorPropagator(n, dim)
    points = [abs(r - h), r, r + h]
    photons, leak, _ = prop.grid_diagnostics(points)
    for point, point_leak in zip(points, leak):
        if point_leak > LEAK_TOL:
            raise NotConvergedError(f"state at r={point} is not converged at N={dim.size}")
    fd = float(photons[2] - 2 * photons[1] + photons[0]) / h**2
    probs = np.abs(prop.chain_grid([r])[:, 0]) ** 2
    analytic = 2 * n * float(a_n_commutator_closed_form(n, dim)[prop.levels] @ probs)
    return fd, analytic


def certify_truncation_pair(n: int, N_pair: tuple[int, int], r_grid) -> tuple[float, np.ndarray]:
    """Largest certified grid r, and the mean photon number at N_pair[0] on the sorted grid.

    Certifies every grid point r' <= r: leakage at most LEAK_TOL at both
    truncations and relative mean-photon difference at most AGREE_RTOL.
    The radius is 0.0 if no grid point qualifies.
    """
    if N_pair[0] == N_pair[1]:
        raise ValueError("truncation pair must be distinct")
    r_grid = sorted(float(r) for r in r_grid)
    (photons_a, leak_a, _), (photons_b, leak_b, _) = (
        VacuumSectorPropagator(n, FockDim(int(N))).grid_diagnostics(r_grid) for N in N_pair
    )
    best = 0.0
    for r, pa, pb, la, lb in zip(r_grid, photons_a, photons_b, leak_a, leak_b):
        if la > LEAK_TOL or lb > LEAK_TOL:
            break
        scale = max(abs(pa), abs(pb), 1e-30)
        if r > 0 and abs(pa - pb) / scale > AGREE_RTOL:
            break
        best = r
    return best, photons_a
