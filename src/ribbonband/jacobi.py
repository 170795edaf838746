"""Tridiagonal Jacobi family of the nanoribbon's axial reduction.

The ribbon Hamiltonian is unitarily equivalent to a direct integral over
the quasimomentum t of p x p symmetric tridiagonal matrices J_a with
a = a(t) = 2|cos(t/2)|, diagonal v, and alternating off-diagonals
(a, 1, a, 1, ..., a, 1).  This module owns:

  * the t -> a map and the off-diagonal pattern (_offdiagonals),
  * two eigenvalue kernels: eigenvalues(params, off) gives all
    eigenvalues of each row, for single matrices, a grids and the
    oracle's Bloch rows, a = 0 included; _selected(params, a_values,
    indices) gives one selected eigenvalue per row, with its a-slope
    (Hellmann-Feynman, from the eigenvector) on request, for the scan of
    one band and the refinement of band extrema,
  * closed-form eigenvalues at zero potential.

Only this module picks a LAPACK route, by the width p = 2N + 1.  Up to
_STACK_MAX_P, where a dense solve is cheapest, both kernels solve dense
p x p stacks (numpy.linalg.eigvalsh, or eigh for slopes; one stack loop,
_solve_stacks).  Wider rows, where the dense O(p^3) work is almost all on
zeros, go to the tridiagonal routines of scipy.linalg.lapack, one row per
call: dsterf (the routine eigvalsh reaches after its tridiagonal
reduction, O(p^2)) for all eigenvalues, and for one selected eigenvalue
dstebz (bisection by index, O(p) per step), then dstein (inverse
iteration) where its eigenvector is wanted; see Parlett, The Symmetric
Eigenvalue Problem.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericalError
from .lattice import RibbonParams

_STACK_ENTRIES = 1 << 16  # float64 entries per LAPACK stack (512 KiB)
# Widest J_a solved on dense stacks.  Per row, a dense solve and the
# tridiagonal routines cost the same between p = 11 and p = 17, for the
# scan and for the refinement alike (CHANGES.md has the measured tables).
_STACK_MAX_P = 11


def a_of_t(t):
    """Map quasimomentum t to the off-diagonal parameter a = 2|cos(t/2)|."""
    t = np.mod(t, 2.0 * np.pi)
    return 2.0 * np.abs(np.cos(0.5 * t))


def _offdiagonals(p: int, a_values) -> np.ndarray:
    """Off-diagonals (a, 1, a, 1, ...) of the p x p J_a, one row per a."""
    return np.where(np.arange(p - 1) % 2 == 0, np.reshape(a_values, (-1, 1)), 1.0)


# ---------------------------------------------------------------------------
# Eigenvalues: LAPACK, on dense stacks or tridiagonal by row
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
    in dense stacks of at most _STACK_ENTRIES entries, for p up to
    _STACK_MAX_P; solve is numpy.linalg.eigvalsh or numpy.linalg.eigh,
    which solves each matrix on its own.  Raises NumericalError on a failed
    solve."""
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

    Every matrix is solved on its own, on a dense stack (p <= _STACK_MAX_P)
    or by dsterf, so a row's values do not depend on the rows beside it.
    Raises ConfigError unless off is 2-D with p - 1 columns, and
    NumericalError on a non-finite result or a failed solve.
    """
    p = params.p
    off = np.asarray(off, dtype=float)
    if off.ndim != 2 or off.shape[1] != p - 1:
        raise ConfigError(f"off-diagonals need shape (rows, {p - 1}), got {off.shape}")
    out = np.empty((off.shape[0], p))
    if p <= _STACK_MAX_P:
        for rows, w in _solve_stacks(np.linalg.eigvalsh, params.v, off):
            out[rows] = w
    else:
        from scipy.linalg.lapack import dsterf

        for r in range(off.shape[0]):
            out[r], info = dsterf(params.v, off[r])
            if info != 0:  # NaN entries
                raise NumericalError(f"LAPACK dsterf failed (info {info})")
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite eigenvalue: matrix entries beyond float64 range")
    return out


def _slope(psi: np.ndarray) -> np.ndarray:
    """psi^T (dJ/da) psi = 2 * sum over the a-bonds (j even) of psi_j psi_{j+1}
    (Hellmann-Feynman), over the last axis of psi."""
    return 2.0 * np.sum(psi[..., :-1:2] * psi[..., 1::2], axis=-1)


def _selected(params: RibbonParams, a_values, indices, slopes: bool = False):
    """(lambda, dlambda/da) of eigenvalue indices[r] of J_a, a = a_values[r];
    the slope, from the eigenvector of the same solve, only with slopes,
    else None.

    Up to _STACK_MAX_P the value is picked from the dense stacks of
    _solve_stacks (numpy.linalg.eigvalsh, or eigh with slopes, where each
    distinct a is solved once).  Wider rows compute the one selected
    eigenvalue: dstebz bisects it, O(p) per step, and with slopes dstein
    adds its eigenvector.  The two do not scale their input, so the
    matrices are first scaled by one power of two (exact) to entries below
    1 in magnitude; a potential near the float64 limit then gives the same
    finite values as the dense route.  Raises NumericalError on a
    non-finite result or a failed solve.
    """
    p, dense = params.p, params.p <= _STACK_MAX_P
    if dense and slopes:
        # each stacked matrix is solved on its own, so equal rows share one
        a_values, inverse = np.unique(a_values, return_inverse=True)
    off = _offdiagonals(p, a_values)
    if dense and slopes:
        w, V = np.empty((off.shape[0], p)), np.empty((off.shape[0], p, p))
        for r, (w_r, V_r) in _solve_stacks(np.linalg.eigh, params.v, off):
            w[r], V[r] = w_r, V_r
        lam, slope = w[inverse, indices], _slope(V[inverse, :, indices])
    elif dense:
        lam, slope = np.empty(off.shape[0]), None
        for r, w in _solve_stacks(np.linalg.eigvalsh, params.v, off):
            lam[r] = w[np.arange(w.shape[0]), indices[r]]
    else:
        from scipy.linalg.lapack import dstebz, dstein

        lam, slope = np.empty(off.shape[0]), (np.empty(off.shape[0]) if slopes else None)
        exp = np.frexp(max(np.max(np.abs(params.v)), np.max(off, initial=0.0)))[1]
        v, off = np.ldexp(params.v, -exp), np.ldexp(off, -exp)
        for r, k in enumerate(indices):
            m, w, iblock, isplit, info = dstebz(v, off[r], 2, 0.0, 1.0, k + 1, k + 1,
                                                0.0, "B")
            if info != 0 or m != 1:
                raise NumericalError(f"LAPACK dstebz failed (info {info}, {m} found)")
            lam[r] = w[0]
            if slopes:
                z, info = dstein(v, off[r], w[:1], iblock, isplit)
                if info != 0:
                    raise NumericalError(f"LAPACK dstein failed (info {info})")
                slope[r] = _slope(z[:, 0])
        with np.errstate(over="ignore"):
            lam = np.ldexp(lam, exp)
    if not (np.all(np.isfinite(lam)) and (slope is None or np.all(np.isfinite(slope)))):
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
