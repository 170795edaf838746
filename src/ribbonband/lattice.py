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

This module owns the ribbon parameters, its bond list `_bonds`, finite sections
of H, and the compactly supported eigenvectors of the flat band (zero-width
band at v_1, present exactly when all odd potential entries equal v_1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CriterionViolation, NumericalError

DENSE_SIZE_CAP = 10_000  # rows; finite sections are oracle-scale only
MAX_N = 4096  # widest ribbon, p = 8193; a wider one is refused before allocation
_FLAT_MAX_N = 512  # widest flat-band vector: 12.8 MB of JSON, and work and size grow as N^3

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


def _bonds(N: int, L: int, boundary: str) -> tuple[np.ndarray, np.ndarray]:
    """Unit bonds (i, j) of L cells, site (n, k) at n*p + (k-1): the chain (k, k+1),
    then (n, 2k+1) ~ (n-1, 2k+2), wrapped mod L (periodic) or dropped at n = 0."""
    p = 2 * N + 1
    n = np.arange(L)[:, None]
    chain = (n * p + np.arange(p - 1)).ravel()
    m = n if boundary == PERIODIC else n[1:]
    cross = (m * p + 2 * np.arange(N)).ravel()
    cross_prev = ((m - 1) % L * p + 2 * np.arange(N) + 1).ravel()
    return np.concatenate([chain, cross]), np.concatenate([chain + 1, cross_prev])


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
    if boundary not in (PERIODIC, OPEN):
        raise ConfigError(f"unknown boundary {boundary!r}")
    if L < 2 or (boundary == PERIODIC and L < 3):
        raise ConfigError(f"L={L} too small for boundary={boundary}")
    size = L * params.p
    if size > DENSE_SIZE_CAP:
        raise ConfigError(
            f"section size {size} exceeds the dense cap {DENSE_SIZE_CAP}"
        )
    i, j = _bonds(params.N, L, boundary)
    diag = np.arange(size)
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
        c = -1 if k % 2 else 1  # (-1)^k C(k, j), one Pascal step per j
        entries = []
        for j in range(k + 1):
            entries.append((self.m - j, c))
            c = c * (k - j) // (j + 1)
        return entries


def verify_flat_eigen(params: RibbonParams, psi: FlatBandVector, L: int) -> float:
    """Max-norm residual of (H - v_1) psi on an open section of L cells.

    The bonds of psi's support and its neighbours are summed in Python
    integers (work does not depend on L), the diagonal as (v_k - v_1) * c
    on the sites psi occupies: exactly 0.0 when the flat-band criterion
    holds, at any magnitude of v, and positive when an odd entry differs
    from v_1.  Raises ConfigError when psi and params disagree on N, when
    N > 512 (before any work) or when L < 2, CriterionViolation when the
    support [m-N, m] leaves 0..L-1, and NumericalError when the residual
    overflows float64.
    """
    if psi.N != params.N:
        raise ConfigError(f"psi has N={psi.N}, params have N={params.N}")
    N, m, p = psi.N, psi.m, params.p
    if N > _FLAT_MAX_N:
        raise ConfigError(f"N={N}: the flat-band residual serves N <= {_FLAT_MAX_N}")
    if L < 2:
        raise ConfigError(f"L={L} too small for boundary={OPEN}")
    if m - N < 0 or m >= L:
        raise CriterionViolation(
            f"support [{m - N}, {m}] leaves the open section 0..{L - 1}"
        )
    lo, v = max(m - N - 1, 0), params.v.tolist()
    cells = min(m + 1, L - 1) - lo + 1  # cells m-N-1..m+1 inside 0..L-1
    f, r = np.zeros((2, cells * p), dtype=object)  # psi; (H - v_1) psi from its diagonal
    for k in range(N + 1):
        for n, c in psi.row_entries(k):
            f[(n - lo) * p + 2 * k] = c
            r[(n - lo) * p + 2 * k] = (v[2 * k] - v[0]) * c
    i, j = _bonds(N, cells, OPEN)
    np.add.at(r, np.r_[i, j], f[np.r_[j, i]])  # each bond both ways, exact integers
    resid = float(max(map(abs, r)))
    if not math.isfinite(resid):
        raise NumericalError("flat-band residual beyond float64 range")
    return resid
