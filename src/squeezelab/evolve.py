"""Evolution of the vacuum under exp(r a†^n - r* a^n) and convergence diagnostics.

Vacuum evolution has one representation, :class:`VacuumSectorPropagator`.
The generator couples Fock levels in steps of n, so acting on |0> it reduces
exactly to a real symmetric tridiagonal chain over levels 0, n, 2n, ...  Its
eigenpairs come in pairs (lambda, v), (-lambda, S v) with S = diag((-1)^j),
so only the lambda >= 0 eigenpairs that overlap |0> are computed, once per
(n, N), by a numpy-only shift-invert Lanczos iteration on the even-site block
of the squared chain, grown until its eigenpairs hold |0> to WINDOW_TOL.  Their
vectors' odd sites, one bidiagonal solve of the even ones, are formed once the
Krylov basis is freed.  A grid of r is then two real matrix products, even sites
by cosines and odd ones by sines, squared in place one 256 KB tile of sites x r at
a time, without forming complex amplitudes, so sweeps over hundreds of r values at
N ~ 10^4 are cheap.  Each named column per r (:class:`Diagnostics`) sums |psi_j|^2
over the sites with its own weights, so one product reduces a tile: mean_photon,
leakage, norm_error, and the two exact terms of the curvature,
d^2 mean_photon / dr^2 = bulk - wall on the cut chain.  The module returns
arrays; `squeezelab.cli` tabulates them as the sweep and compare tables.

`expm_state` is the independent oracle for cross-checks at small N: one
dense Hermitian eigendecomposition of the full `generator`, sharing no code
with the chain's Lanczos solver.  The dense `generator` lives here for that
oracle only; the chain needs just its couplings.  Nothing here loads scipy.
The chain is built and evaluated on one OpenBLAS thread, so its bits, and
every output computed from it, do not depend on the caller's thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .algebra import BudgetExceededError, chain_couplings, chain_length, ladder_product

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
# is at most this (a basis stopped at 1e-14 left norm errors near 1e-15).
WINDOW_TOL = 1e-15
# Largest chain amplitude error: of the |0> its eigenpairs rebuild, and to verify's oracle.
AMPLITUDE_TOL = 1e-10
# Bytes a chain build may hold in Krylov basis, ceil(L/2) x (m + 1) even-site eigenvectors
# and Ritz temporaries; the odd sites it keeps take the freed basis's place.  n = 1 is
# refused from about N = 30500, and N = 30508 peaks at 348 MB RSS (11-16 s, os.wait4).
MAX_CHAIN_BYTES = 1 << 28
# Entries of the one tile of sites x values of r that grid_diagnostics reduces at a time
# (256 KB of real |psi|^2, so it stays in cache between its passes), and of the build's
# blocks of eigenvectors whose lambda it solves for at once.
_TILE_ENTRIES = 1 << 15


class Diagnostics(NamedTuple):
    """Per-r columns of :meth:`VacuumSectorPropagator.grid_diagnostics`, which defines them."""

    mean_photon: np.ndarray
    leakage: np.ndarray
    norm_error: np.ndarray
    bulk: np.ndarray
    wall: np.ndarray


def _find_openblas():
    """(get, set) for the thread count of numpy's bundled OpenBLAS; None on other numpy builds."""
    for path in (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"):
        lib = ctypes.CDLL(str(path))  # the copy that numpy has loaded already
        with contextlib.suppress(AttributeError):
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


_OPENBLAS = _find_openblas()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block, or the decorated call, on one OpenBLAS thread, then restore the count.

    Products and small LAPACK eigensolves then give the same bits at every thread
    count and wake no sleeping worker.  The count is per process, so threads that
    enter at once may restore each other's.  Where numpy bundles no scipy-openblas
    (_OPENBLAS is None) it does nothing: the block runs on the caller's threads.
    """
    if _OPENBLAS is None:
        yield
        return
    get_threads, set_threads = _OPENBLAS
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def _forward_factors(diag: np.ndarray, sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(scale, inverse) solving the lower bidiagonal diag[k] u[k] + sub[k-1] u[k-1] = x[k].

    The recurrence is unrolled into a cumulative product and a cumulative
    sum, u = scale * cumsum(inverse * x), so one solve (of a vector, or of
    every column of a matrix) is a few vector operations.  The running
    product of -sub[k-1] / diag[k] must stay in floating-point range.  For
    the chain's systems it moves by at most a power of the chain length,
    except for n = 1, where it falls like exp(-sqrt(N)): near N = 5 10^5 it
    underflows, and 1 / (diag * scale) divides by zero, which
    VacuumSectorPropagator refuses.
    """
    scale = np.cumprod(np.concatenate(([1.0], -sub / diag[1:])))
    return scale, 1.0 / (diag * scale)


def _forward_solve(factors: tuple[np.ndarray, np.ndarray], x: np.ndarray, out=None) -> np.ndarray:
    """u = scale * cumsum(inverse * x) down x's first axis, into `out` if given."""
    scale, inverse = (f.reshape((-1,) + (1,) * (x.ndim - 1)) for f in factors)
    out = np.multiply(x, inverse, out=out)
    np.cumsum(out, axis=0, out=out)
    return np.multiply(out, scale, out=out)


def _shifted_inverse(d: np.ndarray, s: np.ndarray, size: int, shift: float):
    """x -> (B B^T + shift)^{-1} x for the size x len(d) lower bidiagonal B = (d, s).

    B B^T + shift = C C^T with C lower bidiagonal.  Its pivots are written
    c_k^2 = d_k^2 + g_k (d_k = 0 past the end of d) with
    g_k = shift + s_{k-1}^2 g_{k-1} / c_{k-1}^2, a sum of positive terms, so
    they keep full relative accuracy where the textbook recurrence cancels.
    """
    d2 = (d * d).tolist() + [0.0] * (size - len(d))  # a scalar loop runs faster on floats
    pivots, g = [d2[0] + shift], shift
    for d2_k, s_k in zip(d2[1:], s.tolist()):
        g = shift + s_k ** 2 * g / pivots[-1]
        pivots.append(d2_k + g)
    c = np.sqrt(pivots)
    sub = s[:size - 1] * d[:size - 1] / c[:-1]  # C[k, k-1]
    lower = _forward_factors(c, sub)
    upper = _forward_factors(c[::-1], sub[::-1])  # C^T, solved from the last row
    return lambda x: _forward_solve(upper, _forward_solve(lower, x)[::-1])[::-1]


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
    not grow with 1 / lambda_min^2.  Each step takes the three-term
    recurrence and then one full Gram-Schmidt pass against the basis (and
    z), repeated only when that pass shrinks the vector below 1/sqrt(2) of
    its length (the DGKS test: Daniel, Gragg, Kaufman & Stewart, Math.
    Comp. 30, 772, 1976).  Up to 32 even sites are solved whole; a longer basis
    starts at 8 vectors and grows by a quarter, at least 8, until eta =
    sum_i |S_0i S_{m-1,i}| over the eigenvectors S of the Lanczos matrix is at
    most WINDOW_TOL, a step ending 10% past where the secant of two etas below
    1e-3 crosses it in log eta.  Every Ritz vector y is kept, and its odd sites
    x = lambda B^+ y give lambda = 1 / |B^+ y| by one forward B solve, which
    damps the rounding in y where B^T y / lambda would amplify it.  It is solved a
    few columns at a time for lambda, then for all at once after the basis is freed.

    Returns (eigenvalues, the eigenvectors' even sites E = sqrt(1/2) y as C-ordered
    columns of ceil(L/2) rows, their odd sites over lambda, B^+ E, of floor(L/2) rows,
    their weights w = 2 v_0, or z_0 for the zero mode, discarded = eta, or 0 once the
    basis spans the space, and the exact squared couplings b_j^2, j < L, of chain_couplings).
    """
    length = chain_length(n, size)
    b2 = chain_couplings(n, length)  # b_{L-1}^2, the last, is the coupling the cut removes
    b = np.sqrt(np.array(b2[:-1], dtype=float))
    n_even, n_odd = length - length // 2, length // 2
    d, s = b[0::2], b[1::2]  # B[m, m] = d[m], B[m, m-1] = s[m-1]
    shift_invert = _shifted_inverse(d, s, n_even, float(b[0]) ** 2)
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
    alpha, beta, last = [], [], None
    m = dim if dim <= 32 else 8  # a short chain is solved whole
    while True:
        if 8 * ((locked + 1 + m) * n_even + n_even * (m + 1) + 3 * m * m) > MAX_CHAIN_BYTES:
            raise BudgetExceededError(f"{length}-site chain", f"{MAX_CHAIN_BYTES >> 20} MB")
        basis = np.concatenate([basis, np.empty((m - len(alpha), n_even))])
        for k in range(len(alpha), m):
            row = locked + k
            w = shift_invert(basis[row])
            if k:
                w -= beta[k - 1] * basis[row - 1]
            alpha.append(basis[row] @ w)
            w -= alpha[k] * basis[row]
            norm = np.linalg.norm(w)
            for _ in range(2):  # DGKS: a second pass only if the first cancelled w
                w -= basis[:row + 1].T @ (basis[:row + 1] @ w)
                norm, before = np.linalg.norm(w), norm
                if norm > before * np.sqrt(0.5):
                    break
            if k + 1 < dim:
                beta.append(norm)
                basis[row + 1] = w / norm
        lanczos = np.diag(alpha)
        lanczos.flat[1::m + 1] = lanczos.flat[m::m + 1] = beta[:m - 1]
        S = np.linalg.eigh(lanczos)[1]
        eta = float(np.abs(S[0] * S[-1]).sum())
        if eta <= WINDOW_TOL or m == dim:
            break
        step = max(8, m // 4)
        if last and eta < last[1] < 1e-3:  # 10% past the secant's crossing of log eta
            ahead = np.log(eta / WINDOW_TOL) * (m - last[0]) / np.log(last[1] / eta)
            step = min(step, max(4, int(1.1 * ahead) + 2))
        last = m, eta
        m = min(m + step, dim)
    odd_sites = _forward_factors(d, s[:n_odd - 1])  # B^+ on the first n_odd even sites
    E = np.empty((n_even, m + locked))
    # Ritz vectors y on the even sites, largest Ritz value (smallest lambda) first
    np.matmul(basis[locked:locked + m].T, S[:, ::-1], out=E[:, :m])
    del basis
    block = max(1, _TILE_ENTRIES // n_odd)  # columns of y whose odd sites are solved at once
    lam = 1.0 / np.concatenate([
        np.linalg.norm(_forward_solve(odd_sites, E[:n_odd, first:min(first + block, m)]), axis=0)
        for first in range(0, m, block)])
    E[:, :m] *= np.sqrt(0.5)
    weights = 2 * E[0, :m]
    if locked:
        E[:, m] = zero_mode
        lam = np.append(lam, 0.0)
        weights = np.append(weights, zero_mode[0])
    odd = _forward_solve(odd_sites, E[:n_odd], out=np.empty((n_odd, m + locked)))  # B^+ E
    return lam, E, odd, weights, 0.0 if m == dim else eta, b2


class VacuumSectorPropagator:
    """Exact evolution of exp(r a†^n - r* a^n)|0> on a truncated basis.

    Solves the vacuum-sector chain once for the eigenpairs that carry |0> and keeps
    their vectors' even sites, `eigvecs` of ceil(L/2) x k with L ~ N/n the chain length,
    and odd sites over lambda, B^+ of the even ones (see :func:`_chain_eigensystem`).  A
    whole grid of r then costs two real matrix products of size L/2 x k by k x len(grid):
    even sites by cosines, odd ones by lambda-weighted sines, whose squares are
    |amplitude|^2.  `discarded` is eta of the last eigensolve, 0 when the basis spans the
    chain.  A chain whose eigenpairs rebuild |0> no closer than AMPLITUDE_TOL is refused,
    as is one out of floating-point range.
    """

    def __init__(self, n: int, size: int):
        if not 1 <= n < size:
            raise ValueError(f"need 1 <= n < size, got n={n}, size={size}")
        sites = chain_length(n, size)
        try:  # underflow stays quiet: the bidiagonal solves rely on it
            with np.errstate(divide="raise", over="raise", invalid="raise"), _one_blas_thread():
                chain = _chain_eigensystem(n, size)
        except (FloatingPointError, OverflowError) as exc:
            raise BudgetExceededError(f"{sites}-site chain", "floating-point range") from exc
        self.eigvals, self.eigvecs, self._odd_eigvecs, self._weights, self.discarded, b2 = chain
        self.levels = n * np.arange(sites)
        # Diagnostics field k is sum_j rows[k, j] |psi_j|^2, rows filled in place (a casting ufunc's
        # buffers cost 0.2 MB of peak RSS); bulk's are exact integer differences, each rounded once
        rows = self._column_weights = np.zeros((len(Diagnostics._fields), sites))
        rows[0] = self.levels
        rows[1, -(-(size - min(max(10, 2 * n), size - 1)) // n):] = 1.0  # the top levels
        rows[2] = 1.0
        rows[3] = 2 * n * np.diff(np.array(b2, dtype=object), prepend=0).astype(float)
        rows[4, -1] = 2 * n * float(b2[-1])  # b_{L-1}^2, the coupling the cut removed
        # every Ritz pair is kept, so only rounding parts what they rebuild at r = 0 from |0>
        error = np.linalg.norm(self.eigvecs @ self._weights - np.eye(1, len(self.eigvecs)))
        if not error <= AMPLITUDE_TOL:  # refuses nan too
            raise BudgetExceededError(f"{sites}-site chain", "floating-point precision")

    def _real_amplitudes(self, mag: np.ndarray):
        """fill(start, out): chain amplitudes at |r| = mag on sites start (even), start + 1, ...

        They hold up to a phase of modulus 1 per site: E (w cos(lambda |r|)) on even sites
        and (B^+ E) (lambda w sin(lambda |r|)) on odd ones, and the exact vacuum where |r| = 0.
        Tiles may be filled in any order: each gets the bits of one tile over the chain.
        A non-finite |r| is a ValueError; one at which lambda |r| overflows is refused, not nan.
        """
        largest = float(mag.max(initial=0.0))  # nan if any value is
        if not np.isfinite(largest):
            raise ValueError(f"need finite r values, got |r| = {largest}")
        if not np.isfinite(float(self.eigvals.max()) * largest):
            raise BudgetExceededError(f"|r| on a {len(self.levels)}-site chain", "floating-point range")
        angles = np.outer(self.eigvals, mag)
        even = np.cos(angles) * self._weights[:, None]
        odd = np.sin(angles) * (self.eigvals * self._weights)[:, None]

        def fill(start: int, out: np.ndarray) -> np.ndarray:
            rows = slice(start // 2, (start + len(out) + 1) // 2)
            np.matmul(self.eigvecs[rows], even, out=out[0::2])
            np.matmul(self._odd_eigvecs[rows], odd, out=out[1::2])
            out[:, mag == 0] = np.eye(len(out), 1, start)  # 1 on site 0, which is row -start
            return out
        return fill

    @_one_blas_thread()
    def chain_grid(self, r_values) -> np.ndarray:
        """Chain amplitudes for every r in `r_values`, one column per r.

        Row j is the amplitude on level jn; all other levels are exactly zero.
        """
        r = np.asarray(r_values, dtype=complex).reshape(-1)
        j = np.arange(len(self.levels))
        out = self._real_amplitudes(np.abs(r))(0, np.empty((len(j), len(r))))
        # exp(-i T |r|) e0 is real on even sites and -i times real on odd sites;
        # with the gauge phase (i e^{i arg r})^j that leaves (-1)^(j//2) e^{ij arg r}
        return out * (1.0 - 2.0 * (j // 2 % 2))[:, None] * np.exp(1j * np.outer(j, np.angle(r)))

    @_one_blas_thread()  # at n = 1 the tiles' products give other bits on two threads
    def grid_diagnostics(self, r_values) -> Diagnostics:
        """The five :class:`Diagnostics` columns at every r in `r_values`.

        mean_photon is <a†a>, and norm_error is abs(||psi|| - 1).  leakage sums the chain sites
        at the top min(max(10, 2n), N - 1) levels: the generator couples levels in steps of
        n, so >= 2n catches boundary reflection.  On this L-site chain d^2 mean_photon / dr^2
        = bulk - wall exactly: bulk = 2n sum_j (b_j^2 - b_{j-1}^2) |psi_j|^2 = 2n <[a^n, a†^n]>
        > 0 is the paper's commutator term, and wall = 2n b_{L-1}^2 |psi_{L-1}|^2 >= 0 is left
        by the coupling b_{L-1} that the cut removed: a truncated curve bends down only through
        its last site.  Each column is sum_j w_j |psi_j|^2 with its own row w of _column_weights
        (all ones for norm_error, rooted at the end), one product per tile of |psi|^2, the
        square of the real amplitudes at |r| formed in place in one _TILE_ENTRIES buffer (up to
        _TILE_ENTRIES // 128 r by as many sites as fit): memory grows with neither chain nor grid.
        """
        mag = np.abs(np.asarray(r_values).reshape(-1))
        width = max(1, min(len(mag), _TILE_ENTRIES // 128))
        height = _TILE_ENTRIES // width & -2  # even, so every tile starts on an even site
        buffer = np.empty(_TILE_ENTRIES)
        sums = np.zeros((len(self._column_weights), len(mag)))
        for first in range(0, len(mag), width):
            cols = slice(first, first + width)
            fill = self._real_amplitudes(mag[cols])
            for start in range(0, len(self.levels), height):
                weights = self._column_weights[:, start:start + height]
                probs = buffer[:weights.shape[1] * len(mag[cols])].reshape(weights.shape[1], -1)
                np.square(fill(start, probs), out=probs)
                sums[:, cols] += weights @ probs
        np.abs(np.sqrt(sums[2], out=sums[2]) - 1.0, out=sums[2])
        return Diagnostics(*sums)


def generator(n: int, r: complex, size: int) -> np.ndarray:
    """The anti-Hermitian exponent K = r a†^n - r* a^n of U_n(r) on levels 0..size-1, dense."""
    if not (1 <= n < size and np.isfinite(r)):
        raise ValueError(f"need 1 <= n < size and a finite r, got n={n}, size={size}, r={r}")
    amps = np.sqrt([float(ladder_product(n, k)) for k in range(size - n)])
    r = complex(r)
    return np.diag(r * amps, -n) - np.conj(r) * np.diag(amps, n)


def expm_state(n: int, r: complex, size: int) -> np.ndarray:
    """|r_n> = exp(r a†^n - r* a^n)|0> over all levels of the truncated basis: the oracle.

    One dense eigendecomposition iK = V diag(w) V^+ of the full generator
    (LAPACK zheevd) gives exp(K)|0> = V e^{-iw} V^+ e0, well conditioned as K
    is normal (Moler & Van Loan, SIAM Rev. 45, 3, 2003).  Above
    MAX_ORACLE_SIZE levels it raises :class:`BudgetExceededError` before
    allocating anything, and where K or its eigenvalues overflow instead of returning nan.
    """
    if size > MAX_ORACLE_SIZE:
        raise BudgetExceededError("N", MAX_ORACLE_SIZE)
    if abs(r) < np.finfo(float).tiny and 1 <= n < size:  # generator refuses the rest
        # exp(K)|0> - |0> < 1e-300: return the exact vacuum
        return np.eye(size, 1, dtype=complex)[:, 0]
    try:
        with np.errstate(over="raise", invalid="raise"):
            w, V = np.linalg.eigh(1j * generator(n, r, size))
            return V @ (np.exp(-1j * w) * V[0].conj())
    except FloatingPointError as exc:
        raise BudgetExceededError(f"|r| on {size} levels", "floating-point range") from exc


def certify_truncation_pair(n: int, N_pair: tuple[int, int], r_grid) -> tuple[float, Diagnostics]:
    """Largest certified grid r, and the :class:`Diagnostics` at N_pair[0] on the sorted grid.

    Certifies every grid point r' <= r: leakage at most LEAK_TOL at both
    truncations and relative mean-photon difference at most AGREE_RTOL.
    The radius is 0.0 if no grid point qualifies.  A pair that gives one
    chain twice (equal chain_length) would agree trivially and is refused.
    """
    if n < 1:  # before chain_length, which divides by n
        raise ValueError(f"need order n >= 1, got n={n}")
    if chain_length(n, N_pair[0]) == chain_length(n, N_pair[1]):
        raise ValueError(f"truncations {N_pair[0]} and {N_pair[1]} give the same order-{n} chain")
    r_grid = np.sort(np.asarray(r_grid, dtype=float))
    if not np.isfinite(r_grid).all():  # nan fails every tolerance test, so it would certify
        raise ValueError("r grid values must be finite")
    a, b = (VacuumSectorPropagator(n, int(N)).grid_diagnostics(r_grid) for N in N_pair)
    scale = np.maximum(np.maximum(np.abs(a.mean_photon), np.abs(b.mean_photon)), 1e-30)
    fails = (a.leakage > LEAK_TOL) | (b.leakage > LEAK_TOL)
    fails |= np.abs(a.mean_photon - b.mean_photon) / scale > AGREE_RTOL
    certified = int(np.argmax(fails)) if fails.any() else len(r_grid)
    return float(r_grid[certified - 1]) if certified else 0.0, a
