"""Tridiagonal Jacobi family of the nanoribbon's axial reduction.

The ribbon Hamiltonian is unitarily equivalent to a direct integral over
the quasimomentum t of p x p symmetric tridiagonal matrices J_a with
a = a(t) = 2|cos(t/2)|, diagonal v, and alternating off-diagonals
(a, 1, a, 1, ..., a, 1).  This module owns:

  * construction of J_a and the t -> a map,
  * eigenvalues: closed form for the decoupled a = 0 blocks, LAPACK
    (numpy.linalg.eigvalsh) on dense stacks of J_a otherwise, one kernel
    for single matrices and whole a grids; Sturm inertia counts,
  * transfer matrices, monodromy, fundamental solutions of the
    three-term recursion, and the cleared-denominator characteristic
    polynomial (regular at a = 0),
  * closed-form eigenvalues at zero potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CriterionViolation, NumericalError
from .lattice import RibbonParams

_STACK_ENTRIES = 1 << 16  # float64 entries per LAPACK stack (512 KiB)


@dataclass(frozen=True)
class JacobiMatrix:
    """Symmetric tridiagonal p x p matrix with alternating off-diagonals.

    offdiag[j] = a for even j (0-based) and 1 for odd j; diag = v.
    """

    a: float
    diag: np.ndarray
    offdiag: np.ndarray

    @property
    def p(self) -> int:
        return self.diag.shape[0]

    def dense(self) -> np.ndarray:
        M = np.diag(self.diag)
        idx = np.arange(self.p - 1)
        M[idx, idx + 1] = self.offdiag
        M[idx + 1, idx] = self.offdiag
        return M


def a_of_t(t):
    """Map quasimomentum t to the off-diagonal parameter a = 2|cos(t/2)|."""
    t = np.mod(t, 2.0 * np.pi)
    return 2.0 * np.abs(np.cos(0.5 * t))


def offdiag_pattern(p: int, a: float) -> np.ndarray:
    out = np.empty(p - 1)
    out[0::2] = a
    out[1::2] = 1.0
    return out


def jacobi_matrix(params: RibbonParams, a: float) -> JacobiMatrix:
    """Build J_a for the given potential; requires a in [0, 2]."""
    if not 0.0 <= a <= 2.0:
        raise ConfigError(f"a={a} outside [0, 2]")
    return JacobiMatrix(a=float(a), diag=params.v.copy(),
                        offdiag=offdiag_pattern(params.p, float(a)))


# ---------------------------------------------------------------------------
# Eigenvalues: LAPACK on dense stacks, closed form at a = 0; Sturm counts
# ---------------------------------------------------------------------------

def sturm_count(J: JacobiMatrix, x: float) -> int:
    """Number of eigenvalues of J strictly below x (LDL^T inertia count)."""
    counts = _sturm_counts_batch(
        J.diag, (J.offdiag**2)[None, :], np.array([[float(x)]])
    )
    return int(counts[0, 0])


def _sturm_counts_batch(diag: np.ndarray, bsq: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Inertia counts, vectorized: bsq is (A, p-1), x is (A, m).

    Zero pivots are pushed to -pivmin (counts the eigenvalue), the standard
    bisection-safe convention; overflow through 1/d is harmless for counting.
    pivmin is the batch's largest, so a row counts exactly as it would
    alone unless one of its pivots lands between its own pivmin and the
    batch's (both at most 4e-290).
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


def _eigvalsh(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """All eigenvalues of each tridiagonal matrix (diag, off[r]), (rows, p).

    Rows whose off-diagonals are exactly the a = 0 pattern take the closed
    form (exact multiplicities); the rest go to LAPACK
    (numpy.linalg.eigvalsh) in dense stacks of at most _STACK_ENTRIES
    entries.  Each matrix is solved on its own, so a row's values do not
    depend on the rows beside it.  Raises NumericalError on a non-finite
    eigenvalue or a failed solve.
    """
    p = diag.shape[0]
    out = np.empty((off.shape[0], p))
    decoupled = np.all(off == offdiag_pattern(p, 0.0), axis=1)
    if decoupled.any():
        out[decoupled] = decoupled_eigenvalues(RibbonParams(N=(p - 1) // 2, v=diag))
    general = np.flatnonzero(~decoupled)
    step = max(1, _STACK_ENTRIES // (p * p))
    for s in range(0, general.size, step):
        r = general[s : s + step]
        try:
            out[r] = np.linalg.eigvalsh(_tridiagonal_stack(diag, off[r]))
        except np.linalg.LinAlgError as exc:  # NaN entries
            raise NumericalError(f"LAPACK eigensolve failed: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite eigenvalue: matrix entries beyond float64 range")
    return out


def _eigenvalue_slopes(params: RibbonParams, a_values, indices):
    """(lambda, dlambda/da) of eigenvalue indices[r] of J_a, a = a_values[r] > 0.

    The slope is psi^T (dJ/da) psi = 2 * sum over the a-bonds (j even) of
    psi_j psi_{j+1} (Hellmann-Feynman), psi from the same numpy.linalg.eigh
    call.  Raises NumericalError on a non-finite result or a failed solve.
    """
    off = np.where(np.arange(params.p - 1) % 2 == 0, np.c_[a_values], 1.0)
    lam, slope = np.empty(off.shape[0]), np.empty(off.shape[0])
    step = max(1, _STACK_ENTRIES // params.p**2)
    for s in range(0, off.shape[0], step):
        r = slice(s, s + step)
        try:
            w, V = np.linalg.eigh(_tridiagonal_stack(params.v, off[r]))
        except np.linalg.LinAlgError as exc:  # NaN entries
            raise NumericalError(f"LAPACK eigensolve failed: {exc}") from exc
        rows, k = np.arange(w.shape[0]), indices[r]
        psi = V[rows, :, k]
        lam[r] = w[rows, k]
        slope[r] = 2.0 * np.sum(psi[:, :-1:2] * psi[:, 1::2], axis=1)
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(slope))):
        raise NumericalError("non-finite eigenvalue: matrix entries beyond float64 range")
    return lam, slope


def eigenvalues_batch(params: RibbonParams, a_values, *, indices=None) -> np.ndarray:
    """Eigenvalues of J_a for every a in a_values, ascending in each row.

    Returns shape (len(a_values), p); with indices, a 1-D list of m indices
    is shared by every row and a 2-D (len(a_values), m) array picks each
    row's own, giving (len(a_values), m).
    """
    a_values = np.atleast_1d(np.asarray(a_values, dtype=float))
    if not np.all((a_values >= 0) & (a_values <= 2)):
        raise ConfigError("a values must lie in [0, 2]")
    p, A = params.p, a_values.shape[0]
    if indices is not None:
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        if np.any((idx < 0) | (idx >= p)):
            raise ConfigError(f"eigenvalue indices must lie in 0..{p - 1}")
        if idx.ndim > 2 or (idx.ndim == 2 and idx.shape[0] != A):
            raise ConfigError(f"indices must be 1-D or ({A}, m), got shape {idx.shape}")
    off = np.where(np.arange(p - 1) % 2 == 0, a_values[:, None], 1.0)
    vals = _eigvalsh(params.v, off)
    if indices is None:
        return vals
    if idx.ndim == 1:
        return vals[:, idx]
    return np.take_along_axis(vals, idx, axis=1)


def decoupled_eigenvalues(params: RibbonParams) -> np.ndarray:
    """Closed-form spectrum of J_0: block v_1 plus N 2x2 blocks.

    At a = 0 the first site decouples and the rest pairs up as
    [[v_{2k}, 1], [1, v_{2k+1}]], k = 1..N.  Halves are taken before the
    sums, so potentials up to the float64 limit do not overflow.
    """
    v = params.v
    vals = [v[0]]
    for k in range(1, params.N + 1):
        x, y = v[2 * k - 1], v[2 * k]
        mean, half = 0.5 * x + 0.5 * y, 0.5 * x - 0.5 * y
        r = math.hypot(half, 1.0)
        vals.extend((mean - r, mean + r))
    return np.sort(np.asarray(vals))


def eigenvalues(J: JacobiMatrix) -> np.ndarray:
    """All p eigenvalues of J, ascending; position i holds band index i - N.

    Works from the matrix's actual off-diagonals, through the same kernel
    as eigenvalues_batch: the exact a = 0 pattern takes the closed-form
    decoupled blocks, everything else LAPACK.
    """
    return _eigvalsh(J.diag, J.offdiag[None, :])[0]


# ---------------------------------------------------------------------------
# Transfer matrices, monodromy, fundamental solutions
# ---------------------------------------------------------------------------

def _v_at(v: np.ndarray, j: int) -> float:
    """1-based potential lookup with the wrap convention v_{p+1} = v_1."""
    p = v.shape[0]
    if j == p + 1:
        return float(v[0])
    return float(v[j - 1])


def transfer_matrix(k: int, lam: float, a: float, v) -> np.ndarray:
    """2x2 step matrix mapping (y_{2k-2}, y_{2k-1}) to (y_{2k}, y_{2k+1}).

    Unimodular for every (lam, a>0, v); undefined at a = 0 (the decoupled
    blocks carry that case).
    """
    v = np.asarray(v, dtype=float)
    N = (v.shape[0] - 1) // 2
    if a <= 0.0:
        raise CriterionViolation("transfer matrices require a > 0")
    if not 1 <= k <= N + 1:
        raise ConfigError(f"step k={k} outside 1..{N + 1}")
    vo = _v_at(v, 2 * k - 1)
    ve = _v_at(v, 2 * k)
    return (1.0 / a) * np.array(
        [
            [-1.0, lam - vo],
            [ve - lam, (lam - ve) * (lam - vo) - a * a],
        ]
    )


@dataclass(frozen=True)
class Monodromy:
    """Product T_k ... T_1; entries are fundamental-solution values
    ((theta_{2k}, phi_{2k}), (theta_{2k+1}, phi_{2k+1}))."""

    k: int
    entries: np.ndarray


def monodromy(k: int, lam: float, a: float, v) -> Monodromy:
    M = np.eye(2)
    for step in range(1, k + 1):
        M = transfer_matrix(step, lam, a, v) @ M
    return Monodromy(k=k, entries=M)


def fundamental_solutions(lam: float, a: float, v) -> tuple[np.ndarray, np.ndarray]:
    """Solutions theta, phi of the three-term recursion, n = 0..p+1.

    Both satisfy  a*y_{2k} = (lam - v_{2k-1})*y_{2k-1} - y_{2k-2}  and
    y_{2k+1} = (lam - v_{2k})*y_{2k} - a*y_{2k-1} with initial data
    theta_0 = 1, theta_1 = 0 and phi_0 = 0, phi_1 = 1, so the monodromy
    columns are (theta, phi).  Requires a > 0.
    """
    v = np.asarray(v, dtype=float)
    if a <= 0.0:
        raise CriterionViolation("fundamental solutions require a > 0")
    N = (v.shape[0] - 1) // 2
    p = 2 * N + 1
    theta = np.zeros(p + 2)
    phi = np.zeros(p + 2)
    theta[0], theta[1] = 1.0, 0.0
    phi[0], phi[1] = 0.0, 1.0
    for y in (theta, phi):
        for k in range(1, N + 2):
            vo = _v_at(v, 2 * k - 1)
            ve = _v_at(v, 2 * k)
            y[2 * k] = ((lam - vo) * y[2 * k - 1] - y[2 * k - 2]) / a
            if 2 * k + 1 <= p + 1:
                y[2 * k + 1] = (lam - ve) * y[2 * k] - a * y[2 * k - 1]
    return theta, phi


def _numerator_matrix(k: int, lam, a, v: np.ndarray) -> np.ndarray:
    """a * T_k with polynomial entries (safe at a = 0)."""
    vo = _v_at(v, 2 * k - 1)
    ve = _v_at(v, 2 * k)
    return np.array(
        [
            [-1.0, lam - vo],
            [ve - lam, (lam - ve) * (lam - vo) - a * a],
        ]
    )


def char_poly(lam: float, a: float, v) -> float:
    """Characteristic polynomial of J_a, monic of degree p in lam.

    Evaluated as the (0,1) entry of the product of the cleared step
    matrices a*T_k, so a = 0 is regular; for a > 0 its zeros are exactly
    the eigenvalues of J_a.
    """
    v = np.asarray(v, dtype=float)
    N = (v.shape[0] - 1) // 2
    M = np.eye(2)
    for k in range(1, N + 2):
        M = _numerator_matrix(k, lam, a, v) @ M
    return float(M[0, 1])


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
