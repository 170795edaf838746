"""Tridiagonal Jacobi family of the nanoribbon's axial reduction.

The ribbon Hamiltonian is unitarily equivalent to a direct integral over
the quasimomentum t of p x p symmetric tridiagonal matrices J_a with
a = a(t) = 2|cos(t/2)|, diagonal v, and alternating off-diagonals
(a, 1, a, 1, ..., a, 1).  This module owns:

  * construction of J_a and the t -> a map,
  * eigenvalues via Sturm-count bisection (vectorized over grid points
    and eigenvalue indices; no library eigensolver),
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

BISECTION_CAP = 200  # iterations; ~60 suffice for tol=1e-12 on [0,2] spectra
DEFAULT_TOL = 1e-12


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
# Sturm-count bisection eigensolver
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


def _bisect_eigenvalues(
    diag: np.ndarray, bsq: np.ndarray, tol: float, indices=None
) -> np.ndarray:
    """Core bisection on inertia counts: bsq is (A, p-1), one row per matrix.

    Returns shape (A, m).  indices default to all p (ascending); a 1-D
    list of m indices is shared by every row, and a 2-D (A, m) array gives
    each row its own.  Each value is within tol*max(1, Gershgorin radius)
    of the true eigenvalue of its index.  Raises NumericalError when tol is
    below what bisection can resolve or the iteration cap is hit.
    """
    if tol <= 0:
        raise ConfigError(f"tol must be positive, got {tol}")
    p = diag.shape[0]
    idx = np.arange(p) if indices is None else np.atleast_1d(np.asarray(indices, dtype=np.int64))
    if np.any((idx < 0) | (idx >= p)):
        raise ConfigError(f"eigenvalue indices must lie in 0..{p - 1}")
    A, m = bsq.shape[0], idx.shape[-1]
    if idx.ndim > 2 or (idx.ndim == 2 and idx.shape[0] != A):
        raise ConfigError(f"indices must be 1-D or ({A}, m), got shape {idx.shape}")

    babs = np.sqrt(bsq)
    radius = np.zeros((A, p))
    radius[:, :-1] += babs
    radius[:, 1:] += babs
    glo = np.min(diag[None, :] - radius, axis=1)
    ghi = np.max(diag[None, :] + radius, axis=1)
    scale = np.maximum(1.0, np.maximum(np.abs(glo), np.abs(ghi)))

    lo = np.broadcast_to(glo[:, None], (A, m)).copy()
    hi = np.broadcast_to(ghi[:, None], (A, m)).copy()
    want = (idx if idx.ndim == 2 else idx[None, :]) + 1  # bisect on count(x) >= index+1
    tol_abs = tol * scale[:, None]

    for _ in range(BISECTION_CAP):
        active = (hi - lo) > tol_abs
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        stuck = active & ((mid <= lo) | (mid >= hi))
        if stuck.any():
            raise NumericalError(
                f"bisection cannot resolve tol={tol:g} (below machine resolution)"
            )
        counts = _sturm_counts_batch(diag, bsq, mid)
        go_left = counts >= want
        hi = np.where(active & go_left, mid, hi)
        lo = np.where(active & ~go_left, mid, lo)
    else:
        raise NumericalError(
            f"bisection iteration cap {BISECTION_CAP} hit at tol={tol:g}"
        )
    return 0.5 * (lo + hi)


def eigenvalues_batch(
    params: RibbonParams,
    a_values,
    tol: float = DEFAULT_TOL,
    indices=None,
) -> np.ndarray:
    """Eigenvalues of J_a for every a in a_values, by Sturm bisection.

    One call vectorizes over both the a grid and the requested eigenvalue
    indices; returns shape (len(a_values), len(indices)).  A 2-D
    (len(a_values), m) indices array picks each row's own indices.
    """
    a_values = np.atleast_1d(np.asarray(a_values, dtype=float))
    if not np.all((a_values >= 0) & (a_values <= 2)):
        raise ConfigError("a values must lie in [0, 2]")
    p = params.p
    bsq = np.empty((a_values.shape[0], p - 1))
    bsq[:, 0::2] = (a_values**2)[:, None]
    bsq[:, 1::2] = 1.0
    return _bisect_eigenvalues(params.v, bsq, tol, indices)


def decoupled_eigenvalues(params: RibbonParams) -> np.ndarray:
    """Closed-form spectrum of J_0: block v_1 plus N 2x2 blocks.

    At a = 0 the first site decouples and the rest pairs up as
    [[v_{2k}, 1], [1, v_{2k+1}]], k = 1..N.
    """
    v = params.v
    vals = [v[0]]
    for k in range(1, params.N + 1):
        x, y = v[2 * k - 1], v[2 * k]
        mean, half = 0.5 * (x + y), 0.5 * (x - y)
        r = math.hypot(half, 1.0)
        vals.extend((mean - r, mean + r))
    return np.sort(np.asarray(vals))


def eigenvalues(J: JacobiMatrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """All p eigenvalues of J, ascending; position i holds band index i - N.

    Works from the matrix's actual off-diagonals.  The exact a = 0 pattern
    is dispatched to the closed-form decoupled blocks; everything else runs
    Sturm bisection with Gershgorin bracketing.
    """
    if J.a == 0.0 and np.array_equal(J.offdiag, offdiag_pattern(J.p, 0.0)):
        return decoupled_eigenvalues(RibbonParams(N=(J.p - 1) // 2, v=J.diag))
    return _bisect_eigenvalues(J.diag, (J.offdiag**2)[None, :], tol)[0]


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
