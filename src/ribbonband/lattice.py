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

from .errors import ConfigError, CriterionViolation

DENSE_SIZE_CAP = 10_000  # rows; finite sections are oracle-scale only

PERIODIC = "periodic"
OPEN = "open"


@dataclass(frozen=True)
class RibbonParams:
    """Ribbon half-width N and transverse on-site potential v (length p = 2N+1).

    v is stored as a float array; v[j] is the potential on site j+1 in the
    1-based transverse indexing used throughout.
    """

    N: int
    v: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ConfigError(f"N must be a positive integer, got {self.N!r}")
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

    Returns a symmetric scipy.sparse.csr_matrix.
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

    H = sp.lil_matrix((size, size))

    def site(n: int, k: int) -> int | None:
        # k is 1-based transverse index; returns flat row or None if dropped
        if boundary == PERIODIC:
            n %= L
        elif n < 0 or n >= L:
            return None
        return n * p + (k - 1)

    for n in range(L):
        for k in range(1, p + 1):
            i = site(n, k)
            H[i, i] = params.v[k - 1]
        # intra-cell chain edges (k, k+1)
        for k in range(1, p):
            i, j = site(n, k), site(n, k + 1)
            H[i, j] = 1.0
            H[j, i] = 1.0
        # cross edges (n, 2k+1) ~ (n-1, 2k+2), k = 0..N-1
        for k in range(params.N):
            i = site(n, 2 * k + 1)
            j = site(n - 1, 2 * k + 2)
            if j is not None:
                H[i, j] = 1.0
                H[j, i] = 1.0
    return H.tocsr()


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
    psi and params disagree on N, and CriterionViolation when the support
    of psi leaves the open section 0..L-1.
    """
    if psi.N != params.N:
        raise ConfigError(f"psi has N={psi.N}, params have N={params.N}")
    state = psi.to_state(L).ravel()
    resid = build_ribbon(params, L, OPEN) @ state - params.v[0] * state
    return float(np.max(np.abs(resid)))
