"""Independent brute-force verification layer.

The central cross-check: the spectrum of a periodic L-cell ribbon section
(dense real-space matrix, diagonalized by cyclic Jacobi rotations) must
equal, as a multiset, the union over the L discrete quasimomenta of the
eigenvalues of the tridiagonal family (closed form at a = 0, LAPACK on the
p x p Jacobi matrices otherwise).  The two eigensolvers share no code path
on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .jacobi import a_of_t, eigenvalues, jacobi_matrix
from .lattice import PERIODIC, RibbonParams, build_ribbon

SWEEP_CAP = 50
OFFDIAG_TARGET = 1e-12  # times Frobenius norm of the input
ORACLE_SIZE_CAP = 500


def dense_symmetric_eig(M) -> np.ndarray:
    """All eigenvalues of a symmetric real matrix via cyclic Jacobi rotations.

    Plain two-sided rotations, row-cyclic order, no thresholds beyond a
    skip for entries already far below the target; terminates when the
    off-diagonal Frobenius norm drops under 1e-12 times ||M||_F.  Returns
    the eigenvalues sorted ascending.
    """
    A = np.array(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigError(f"need a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n > 10_000:
        raise ConfigError(f"matrix size {n} beyond the guard (10000)")
    norm = float(np.linalg.norm(A))
    if norm == 0.0:
        return np.zeros(n)
    if float(np.linalg.norm(A - A.T)) > 1e-12 * norm:
        raise ConfigError("matrix is not symmetric to 1e-12 relative")
    A = 0.5 * (A + A.T)
    if n == 1:
        return A[0].copy()

    target = OFFDIAG_TARGET * norm
    skip = target / max(n, 2) ** 2

    def offdiag_norm() -> float:
        off = A - np.diag(np.diag(A))
        return float(np.linalg.norm(off))

    for _ in range(SWEEP_CAP):
        if offdiag_norm() <= target:
            return np.sort(np.diag(A))
        for i in range(n - 1):
            for j in range(i + 1, n):
                apq = A[i, j]
                if abs(apq) <= skip:
                    continue
                theta = 0.5 * (A[j, j] - A[i, i]) / apq
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                row_i = A[i, :].copy()
                row_j = A[j, :].copy()
                A[i, :] = c * row_i - s * row_j
                A[j, :] = s * row_i + c * row_j
                col_i = A[:, i].copy()
                col_j = A[:, j].copy()
                A[:, i] = c * col_i - s * col_j
                A[:, j] = s * col_i + c * col_j
                A[i, j] = 0.0
                A[j, i] = 0.0
    if offdiag_norm() <= target:
        return np.sort(np.diag(A))
    raise NumericalError(f"rotation sweeps exceeded the cap ({SWEEP_CAP})")


def periodic_ribbon_spectrum(params: RibbonParams, L: int) -> np.ndarray:
    """All L*p eigenvalues of the periodic L-cell section, ascending."""
    if L < 3:
        raise ConfigError(f"periodic section needs L >= 3, got {L}")
    if L * params.p > ORACLE_SIZE_CAP:
        raise ConfigError(
            f"oracle section size {L * params.p} beyond {ORACLE_SIZE_CAP}"
        )
    H = build_ribbon(params, L, PERIODIC)
    return dense_symmetric_eig(H.toarray())


def bloch_union_spectrum(params: RibbonParams, L: int, *,
                         offdiag_shift: float = 0.0) -> np.ndarray:
    """Union over t_j = 2*pi*j/L of the tridiagonal spectra, ascending.

    This is the L-cell discretization of the axial reduction: the same
    multiset as periodic_ribbon_spectrum, reached through the other solver.
    offdiag_shift is added to the first off-diagonal of every J_a: a
    negative control, which the two-route comparison must catch.
    """
    if L < 3:
        raise ConfigError(f"need L >= 3 quasimomenta, got {L}")
    out = []
    for j in range(L):
        J = jacobi_matrix(params, float(a_of_t(2.0 * np.pi * j / L)))
        J.offdiag[0] += offdiag_shift
        out.append(eigenvalues(J))
    return np.sort(np.concatenate(out))


@dataclass(frozen=True)
class MultisetReport:
    """Greedy sorted pairing of two real multisets.

    Each pair not within tol (a NaN on either side included) contributes
    2 to unmatched_count (one element per side), plus any size difference;
    size is the number of paired elements.
    """

    max_pairwise_deviation: float
    unmatched_count: int
    size: int


def compare_multisets(A, B, tol: float) -> MultisetReport:
    """Symmetric tolerance comparison of two sorted-pairable multisets."""
    A = np.sort(np.asarray(A, dtype=float))
    B = np.sort(np.asarray(B, dtype=float))
    m = min(A.shape[0], B.shape[0])
    dev = np.abs(A[:m] - B[:m])
    max_dev = float(dev.max()) if m else 0.0
    unmatched = 2 * int(np.count_nonzero(~(dev <= tol))) + abs(A.shape[0] - B.shape[0])
    return MultisetReport(
        max_pairwise_deviation=max_dev, unmatched_count=unmatched, size=m
    )
