"""Golden-section refinement of grid-bracketed extrema, batched."""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def refine_extremum(f, grid, values, xtol: float = 1e-10):
    """Refine the minimum and the maximum of every sampled column to xtol in x.

    values[i, j] = f_j(grid[i]) for m columns.  Each of the 2m extrema is
    bracketed by the grid cells around its discrete arg-extremum (clipped
    at the ends) and refined by golden-section search, assuming f_j is
    unimodal there; a degenerate (<= xtol) bracket collapses to its
    midpoint.  All brackets advance together: f(cols, x) must return
    f_cols[r](x[r]) for equal-length arrays, so each step is one batched
    evaluation of the brackets still wider than xtol.  A maximum is
    searched as the minimum of -f_j.  A sample more extreme than the
    refined value is kept.

    Returns (x, fx), each of shape (2, m): row 0 the minima, row 1 the
    maxima.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    m = values.shape[1]
    cols = np.tile(np.arange(m), 2)
    sign = np.repeat([1.0, -1.0], m)
    signed = values[:, cols] * sign
    i = np.argmin(signed, axis=0)
    a = grid[np.maximum(i - 1, 0)]
    b = grid[np.minimum(i + 1, len(grid) - 1)]
    lo, hi = np.minimum(a, b), np.maximum(a, b)

    def g(sel, x):
        return sign[sel] * f(cols[sel], x)

    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1 = np.zeros_like(x1)
    f2 = np.zeros_like(x2)
    live = np.flatnonzero(hi - lo > xtol)
    if live.size:
        both = g(np.concatenate([live, live]), np.concatenate([x1[live], x2[live]]))
        f1[live], f2[live] = both[: live.size], both[live.size :]
    while live.size:
        left = f1[live] <= f2[live]
        L, R = live[left], live[~left]
        hi[L], x2[L], f2[L] = x2[L], x1[L], f1[L]
        x1[L] = hi[L] - _INVPHI * (hi[L] - lo[L])
        lo[R], x1[R], f1[R] = x1[R], x2[R], f2[R]
        x2[R] = lo[R] + _INVPHI * (hi[R] - lo[R])
        fn = g(np.concatenate([L, R]), np.concatenate([x1[L], x2[R]]))
        f1[L], f2[R] = fn[: L.size], fn[L.size :]
        live = live[hi[live] - lo[live] > xtol]

    x = 0.5 * (lo + hi)
    fx = g(np.arange(2 * m), x)
    best = signed[i, np.arange(2 * m)]
    keep = best < fx
    x = np.where(keep, grid[i], x)
    fx = np.where(keep, best, fx)
    return x.reshape(2, m), (sign * fx).reshape(2, m)
