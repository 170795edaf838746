"""Real-space model of the zigzag nanoribbon graph.

A ribbon of half-width N has p = 2N+1 sites per unit cell, indexed
k = 1..p across the ribbon; cells are indexed n along the axis.  Odd
rows couple within the cell to their even neighbours and across the
cell boundary:

    (H f)_{n,2k+1} = f_{n,2k} + f_{n-1,2k+2} + f_{n,2k+2} + v_{2k+1} f_{n,2k+1}
    (H f)_{n,2k}   = f_{n,2k-1} + f_{n+1,2k-1} + f_{n,2k+1} + v_{2k} f_{n,2k}

with Dirichlet rows f_{n,0} = f_{n,p+1} = 0.  The transverse potential
v_k is constant along the axis.  Only adjacency matters here; no vertex
coordinates are materialized.

This module owns the ribbon parameters, finite sections of H, and the
compactly supported eigenvectors of the flat band (zero-width band at
v_1, present exactly when all odd potential entries equal v_1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CriterionViolation, NumericalError

DENSE_SIZE_CAP = 10_000  # rows; finite sections are oracle-scale only
MAX_N = 4096  # widest ribbon, p = 8193; a wider one is refused before allocation

PERIODIC = "periodic"
OPEN = "open"


def _check_N(N) -> None:
    """Raise ConfigError unless N is an integer in 1..MAX_N."""
    if not isinstance(N, (int, np.integer)) or not 1 <= N <= MAX_N:
        raise ConfigError(f"N must be an integer in 1..{MAX_N}, got {N!r}")


@dataclass(frozen=True)
class RibbonParams:
    """Ribbon half-width N and transverse on-site potential v (length p = 2N+1).

    v is stored as a float array; v[j] is the potential on site j+1 in the
    1-based transverse indexing used throughout.  N is an integer in
    1..MAX_N, checked before anything of size p is allocated.
    """

    N: int
    v: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        _check_N(self.N)
        v = self.v
        if v is None:
            v = np.zeros(self.p)
        v = np.asarray(v, dtype=float)
        if v.shape != (self.p,):
            raise ConfigError(
                f"potential length must be p = 2N+1 = {self.p}, got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ConfigError("potential entries must be finite")
        object.__setattr__(self, "v", v)

    @property
    def p(self) -> int:
        return 2 * self.N + 1


def build_ribbon(params: RibbonParams, L: int, boundary: str = PERIODIC):
    """Assemble the (L*p) x (L*p) real-space Hamiltonian of a finite section.

    Site (n, k) maps to row n*p + (k-1).  Periodic sections wrap the axial
    couplings mod L and require L >= 3 so no wrap edge is double counted;
    open sections drop couplings that leave 0..L-1.

    Returns a symmetric scipy.sparse.csr_matrix.  Raises ConfigError on an
    unknown boundary, on L < 2 (open) or L < 3 (periodic), and beyond
    DENSE_SIZE_CAP rows.
    """
    import scipy.sparse as sp  # here, not at the top: keeps scipy out of CLI start-up
    p = params.p
    if boundary not in (PERIODIC, OPEN):
        raise ConfigError(f"unknown boundary {boundary!r}")
    if L < 2 or (boundary == PERIODIC and L < 3):
        raise ConfigError(f"L={L} too small for boundary={boundary}")
    size = L * p
    if size > DENSE_SIZE_CAP:
        raise ConfigError(
            f"section size {size} exceeds the dense cap {DENSE_SIZE_CAP}"
        )

    n = np.arange(L)[:, None]
    diag = np.arange(size)
    # intra-cell chain edges (k, k+1)
    chain = (n * p + np.arange(p - 1)).ravel()
    # cross edges (n, 2k+1) ~ (n-1, 2k+2), k = 0..N-1; open sections drop n = 0
    m = n if boundary == PERIODIC else n[1:]
    cross = (m * p + 2 * np.arange(params.N)).ravel()
    cross_prev = ((m - 1) % L * p + 2 * np.arange(params.N) + 1).ravel()
    i = np.concatenate([chain, cross])
    j = np.concatenate([chain + 1, cross_prev])
    rows = np.concatenate([diag, i, j])
    cols = np.concatenate([diag, j, i])
    vals = np.concatenate([np.tile(params.v, L), np.ones(2 * i.size)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))


@dataclass(frozen=True)
class FlatBandVector:
    """Compactly supported flat-band eigenvector anchored at cell m.

    Row 2k+1 (k = 0..N) carries integer coefficients (-1)^k * C(k, j) at
    axial position m-j, j = 0..k; even rows vanish identically.  Axial
    support is [m-N, m].  Coefficients are exact integers.  Raises
    ConfigError unless N >= 1; m is cast with int.
    """

    N: int
    m: int

    def __post_init__(self):
        if self.N < 1:
            raise ConfigError(f"N must be positive, got {self.N}")
        object.__setattr__(self, "m", int(self.m))

    def row_entries(self, k: int) -> list[tuple[int, int]]:
        """Entries of odd row 2k+1 as (axial position, integer coefficient)."""
        if not 0 <= k <= self.N:
            raise ConfigError(f"row index k={k} outside 0..{self.N}")
        sign = -1 if k % 2 else 1
        return [(self.m - j, sign * math.comb(k, j)) for j in range(k + 1)]

    def to_state(self, L: int) -> np.ndarray:
        """Materialize on an open section of L cells as an (L, p) array,
        values[n, k-1] = f_{n,k}; the support [m-N, m] must fit inside
        0..L-1."""
        if self.m - self.N < 0 or self.m >= L:
            raise CriterionViolation(
                f"support [{self.m - self.N}, {self.m}] leaves the open "
                f"section 0..{L - 1}"
            )
        vals = np.zeros((L, 2 * self.N + 1))
        for k in range(self.N + 1):
            for n, c in self.row_entries(k):
                vals[n, 2 * k] = float(c)
        return vals


def verify_flat_eigen(params: RibbonParams, psi: FlatBandVector, L: int) -> float:
    """Max-norm residual of (H - v_1) psi on an open section of L cells.

    Exactly 0.0 when the flat-band criterion holds (the computation stays in
    small integers plus bitwise-identical potential products); strictly
    positive when some odd entry differs from v_1.  Raises ConfigError when
    psi and params disagree on N, when N > 56 (the coefficient C(N, N//2)
    passes 2^53 and is no longer exact in float64; checked before the
    section is built) or when L < 2 (build_ribbon's open-section check,
    made before psi is placed), CriterionViolation when the
    support of psi leaves the open section 0..L-1, and NumericalError when
    the residual overflows float64 (a potential near the float64 limit).
    """
    if psi.N != params.N:
        raise ConfigError(f"psi has N={psi.N}, params have N={params.N}")
    if math.comb(psi.N, psi.N // 2) > 2**53:
        raise ConfigError(f"N={psi.N}: the flat-band coefficient C(N, N//2) exceeds "
                          f"2^53, beyond exact float64 integers (N <= 56)")
    H = build_ribbon(params, L, OPEN)
    state = psi.to_state(L).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        resid = float(np.max(np.abs(H @ state - params.v[0] * state)))
    if not math.isfinite(resid):
        raise NumericalError("flat-band residual beyond float64 range")
    return resid
