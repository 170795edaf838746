"""Refinement of grid-bracketed extrema from values and slopes, batched."""

from __future__ import annotations

import numpy as np

# A bracket is done once f can change across it by less than this many eps
# times the largest |sample| (at least 1): f's own rounding level.
_ROUNDING = 16.0 * np.finfo(float).eps
# Ratio of the geometric probes in a cell that starts at x = 0.
_LADDER = 4.0
# Width in x below which a bracket is not split further.
_XTOL = 1e-10


def _worth(xl, xr, gl, gr, dl, dr, level):
    """2 where a probe pair holds a local minimum (its lower end's slope
    points in), 1 where it may hide one (its chord slope is off the range
    of its end slopes beyond rounding: f' is not monotone inside), else 0."""
    chord = (gr - gl) / (xr - xl)
    slack = 2.0 * level / (xr - xl)
    bent = (chord < np.minimum(dl, dr) - slack) | (chord > np.maximum(dl, dr) + slack)
    return np.where(np.where(gl <= gr, dl < 0, dr > 0), 2, bent.astype(int))


def refine_extremum(f, grid, values):
    """Refine the minimum and the maximum of every sampled column.

    values[i, j] = f_j(grid[i]); f(cols, x) returns (f_cols[r](x[r]),
    f_cols[r]'(x[r])), so each step is one batched call.  A maximum is the
    minimum of -f_j.  Each extremum is probed in the grid cells around its
    arg-extremum, at the ends and the middle.  A cell from x = 0, where the
    even f_j has slope 0 and near-degenerate eigenvalues hide extrema at
    every scale, is probed at its end over powers of _LADDER down to _XTOL.
    Probe pairs worth searching (_worth) become brackets, stepped together
    by an Illinois secant on the slope where the end slopes straddle 0,
    else by bisection; each keeps its more promising half until it is
    _XTOL wide or max |slope| times its width is below the rounding level.
    The most extreme evaluated point or grid sample is returned, so an
    extremum with no bracket, as at x = 2, costs one step.

    Returns (x, fx), each (2, m): row 0 the minima, row 1 the maxima.
    """
    grid, values = np.asarray(grid, dtype=float), np.asarray(values, dtype=float)
    n, m = values.shape
    cols = np.arange(2 * m) % m
    sign = np.repeat([1.0, -1.0], m)
    e = np.arange(2 * m)
    i = np.argmin(values[:, cols] * sign, axis=0)
    level = _ROUNDING * max(1.0, float(np.max(np.abs(values), initial=0.0)))
    seen = [(e, grid[i], sign * values[i, cols])]

    def g(own, x):
        val, slope = f(cols[own], x)
        sg = sign[own]
        gx = sg * val
        seen.append((own, x, gx))
        return gx, sg * slope

    lo, hi = grid[np.maximum(i - 1, 0)], grid[np.minimum(i + 1, n - 1)]
    depth = np.ceil(np.log(np.maximum(hi / _XTOL, 1.0)) / np.log(_LADDER)).astype(int)
    count = np.where(lo == 0.0, depth + 1, 3)
    own = np.repeat(e, count)
    k = np.arange(own.size) - np.repeat(np.cumsum(count) - count, count)
    x = np.where(lo[own] == 0.0, hi[own] * _LADDER ** (k - depth[own]),
                 lo[own] + 0.5 * k * (hi[own] - lo[own]))
    gx, dx = g(own, x)
    q = np.flatnonzero(own[1:] == own[:-1])
    q = q[_worth(x[q], x[q + 1], gx[q], gx[q + 1], dx[q], dx[q + 1], level) > 0]
    own = own[q]
    # live brackets only: B[v, end, b] holds x, f, slope and the Illinois-
    # weighted slope (v = 0..3) at the left (end 0) and right (end 1) end of
    # bracket b; kept[b]: the end its last step kept
    B = np.stack((x, gx, dx, dx))[:, np.stack((q, q + 1))]
    live, kept = np.ones(q.size, dtype=bool), np.full(q.size, -1)

    while True:
        width = B[0, 1] - B[0, 0]
        live &= (width > _XTOL) & (np.abs(B[2]).max(axis=0) * width >= level)
        if not live.all():
            B, own, kept = B[:, :, live], own[live], kept[live]
        if not own.size:
            break
        (L, R), (GL, GR), (DL, DR), S = B
        x = 0.5 * L + 0.5 * R
        s = np.flatnonzero((DL < 0) & (DR > 0))
        frac = S[0, s] / (S[0, s] - S[1, s])
        x[s] = np.clip(L[s] + (R[s] - L[s]) * frac, L[s] + _XTOL / 2, R[s] - _XTOL / 2)
        gx, dx = g(own, x)
        # both halves (L, x) and (x, R) in one call: rows x, f, slope of their ends
        new = np.stack((x, gx, dx))
        lft, rgt = np.concatenate((B[:3, 0], new), 1), np.concatenate((new, B[:3, 1]), 1)
        w = _worth(lft[0], rgt[0], lft[1], rgt[1], lft[2], rgt[2], level)
        w1, w2 = w[:own.size], w[own.size:]
        live = np.maximum(w1, w2) > 0
        stay = ((w1 > w2) | ((w1 == w2) & (GL <= GR))).astype(int) ^ 1
        b = np.arange(own.size)
        S[stay, b] *= np.where(kept == stay, 0.5, 1.0)
        B[:, 1 - stay, b] = (x, gx, dx, dx)
        kept = stay

    own, x, gx = (np.concatenate(v) for v in zip(*seen))
    order = np.lexsort((gx, own))  # stable: a grid sample wins a tie
    pick = order[np.searchsorted(own[order], e)]
    return x[pick].reshape(2, m), (sign * gx[pick]).reshape(2, m)
