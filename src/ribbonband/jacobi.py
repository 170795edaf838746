"""Tridiagonal Jacobi family of the nanoribbon's axial reduction.

The ribbon Hamiltonian is unitarily equivalent to a direct integral over
the quasimomentum t of p x p symmetric tridiagonal matrices J_a with
a = a(t) = 2|cos(t/2)|, diagonal v, and alternating off-diagonals
(a, 1, a, 1, ..., a, 1).  This module owns:

  * the t -> a map and the off-diagonal pattern (_offdiagonals),
  * one eigenvalue kernel, eigenvalues(params, off), for single matrices,
    a grids and the oracle's Bloch rows: LAPACK (numpy.linalg.eigvalsh)
    on dense stacks for every row, a = 0 included,
  * eigenvalues with their a-slopes (Hellmann-Feynman, numpy.linalg.eigh),
    for the refinement of band extrema; both LAPACK routes share one
    stack loop (_solve_stacks),
  * closed-form eigenvalues at zero potential.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericalError
from .lattice import RibbonParams

_STACK_ENTRIES = 1 << 16  # float64 entries per LAPACK stack (512 KiB)


def a_of_t(t):
    """Map quasimomentum t to the off-diagonal parameter a = 2|cos(t/2)|."""
    t = np.mod(t, 2.0 * np.pi)
    return 2.0 * np.abs(np.cos(0.5 * t))


def _offdiagonals(p: int, a_values) -> np.ndarray:
    """Off-diagonals (a, 1, a, 1, ...) of the p x p J_a, one row per a."""
    return np.where(np.arange(p - 1) % 2 == 0, np.c_[a_values], 1.0)


# ---------------------------------------------------------------------------
# Eigenvalues: LAPACK on dense stacks
# ---------------------------------------------------------------------------

def _sturm_counts_batch(diag: np.ndarray, bsq: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Inertia counts, vectorized: bsq is (A, p-1), x is (A, m).

    No solver calls this: eigenvalues come from LAPACK.  It stays only as
    long as the benchmark's traced run names it (the jacobi.sturm.*
    per-layer metrics, which perfbench/smoke_test.py requires to be
    numbers); it goes with the next change to the benchmark.

    Zero pivots are pushed to -pivmin (counts the eigenvalue), the standard
    bisection-safe convention; overflow through 1/d is harmless for counting.
    """
    p = diag.shape[0]
    pivmin = 1e-290 * max(1.0, float(np.max(bsq, initial=0.0)))
    d = diag[0] - x
    d = np.where(np.abs(d) < pivmin, -pivmin, d)
    count = (d < 0).astype(np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(1, p):
            d = (diag[j] - x) - bsq[:, j - 1 : j] / d
            d = np.where(np.abs(d) < pivmin, -pivmin, d)
            count += d < 0
    return count


def _tridiagonal_stack(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Dense (rows, p, p) stack: diagonal diag in every matrix, off[r] on
    the off-diagonals of matrix r."""
    p = diag.shape[0]
    i = np.arange(p)
    M = np.zeros((off.shape[0], p, p))
    M[:, i, i] = diag
    M[:, i[:-1], i[1:]] = off
    M[:, i[1:], i[:-1]] = off
    return M


def _solve_stacks(solve, diag: np.ndarray, off: np.ndarray):
    """Yield (rows, solve(stack)) over the tridiagonal matrices (diag, off[r])
    in dense stacks of at most _STACK_ENTRIES entries; solve is
    numpy.linalg.eigvalsh or numpy.linalg.eigh, which solves each matrix
    on its own.  Raises NumericalError on a failed solve."""
    step = max(1, _STACK_ENTRIES // diag.shape[0] ** 2)
    for s in range(0, off.shape[0], step):
        rows = slice(s, s + step)
        try:
            result = solve(_tridiagonal_stack(diag, off[rows]))
        except np.linalg.LinAlgError as exc:  # NaN entries
            raise NumericalError(f"LAPACK eigensolve failed: {exc}") from exc
        yield rows, result


def eigenvalues(params: RibbonParams, off) -> np.ndarray:
    """All eigenvalues of each tridiagonal matrix (params.v, off[r]),
    ascending: shape (rows, p), position i holds band index i - N.

    Every row goes to LAPACK through _solve_stacks, which solves each matrix
    on its own, so a row's values do not depend on the rows beside it.
    Raises ConfigError unless off is 2-D with p - 1 columns, and
    NumericalError on a non-finite result or a failed solve.
    """
    p = params.p
    off = np.asarray(off, dtype=float)
    if off.ndim != 2 or off.shape[1] != p - 1:
        raise ConfigError(f"off-diagonals need shape (rows, {p - 1}), got {off.shape}")
    out = np.empty((off.shape[0], p))
    for rows, w in _solve_stacks(np.linalg.eigvalsh, params.v, off):
        out[rows] = w
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite eigenvalue: matrix entries beyond float64 range")
    return out


def _eigenvalue_slopes(params: RibbonParams, a_values, indices):
    """(lambda, dlambda/da) of eigenvalue indices[r] of J_a, a = a_values[r] > 0.

    The slope is psi^T (dJ/da) psi = 2 * sum over the a-bonds (j even) of
    psi_j psi_{j+1} (Hellmann-Feynman), psi from the same numpy.linalg.eigh
    call.  Raises NumericalError on a non-finite result or a failed solve.
    """
    off = _offdiagonals(params.p, a_values)
    lam, slope = np.empty(off.shape[0]), np.empty(off.shape[0])
    for r, (w, V) in _solve_stacks(np.linalg.eigh, params.v, off):
        rows, k = np.arange(w.shape[0]), indices[r]
        psi = V[rows, :, k]
        lam[r] = w[rows, k]
        slope[r] = 2.0 * np.sum(psi[:, :-1:2] * psi[:, 1::2], axis=1)
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(slope))):
        raise NumericalError("non-finite eigenvalue: matrix entries beyond float64 range")
    return lam, slope


def eigenvalues_batch(params: RibbonParams, a_values) -> np.ndarray:
    """Eigenvalues of J_a for every a in a_values, ascending in each row:
    shape (len(a_values), p).  Raises ConfigError unless every a lies in
    [0, 2]."""
    a_values = np.atleast_1d(np.asarray(a_values, dtype=float))
    if not np.all((a_values >= 0) & (a_values <= 2)):
        raise ConfigError("a values must lie in [0, 2]")
    return eigenvalues(params, _offdiagonals(params.p, a_values))


# ---------------------------------------------------------------------------
# Closed-form unperturbed eigenvalues
# ---------------------------------------------------------------------------

def cos_node(k: int, N: int) -> float:
    """c_k = cos(k*pi/(N+1))."""
    return math.cos(k * math.pi / (N + 1))


def sin_node(k: int, N: int) -> float:
    """s_k = sin(k*pi/(N+1))."""
    return math.sin(k * math.pi / (N + 1))


def unperturbed_eigenvalue(k: int, a: float, N: int):
    """Zero-potential eigenvalue of band k at parameter a.

    sign(k) * sqrt(a^2 - 2*a*c_|k| + 1) with c_k = cos(k*pi/(N+1)); the
    central band k = 0 is identically zero.  Vectorized in a.
    """
    if not -N <= k <= N:
        raise ConfigError(f"band index k={k} outside -{N}..{N}")
    a = np.asarray(a, dtype=float)
    if k == 0:
        return np.zeros_like(a) if a.ndim else 0.0
    c = cos_node(abs(k), N)
    val = np.sqrt(a * a - 2.0 * a * c + 1.0)
    out = math.copysign(1.0, k) * val
    return out if a.ndim else float(out)
