"""Band functions, band intervals, gaps, and multiplicity windows.

Band k (k = -N..N) is the k-th eigenvalue branch a -> lambda_k(J_a),
a in [0, 2]; its band interval sigma_k is the range of that continuous
function, the spectrum of the full ribbon operator being the union of
the sigma_k.  Extrema are located by one grid scan of the requested
bands followed by one bracket search on value and slope refining every
band's minimum and maximum together, each step one batched LAPACK eigh
with one (a, band) pair per row, the slope from its eigenvector.  The
spectrum report is the one place that assembles all band intervals; its
central band is flat exactly when the flat-band criterion holds.  The
zero-potential spectrum has a closed form, used both as public API and
as the regression pin for the generic path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._optimize import refine_extremum
from .errors import ConfigError, NumericalError
from .jacobi import (
    _eigenvalue_slopes,
    cos_node,
    eigenvalues_batch,
    sin_node,
    unperturbed_eigenvalue,
)
from .lattice import RibbonParams

DEFAULT_GRID_POINTS = 401


def default_grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """points equally spaced a values over [0, 2]; points is odd and >= 3."""
    if points < 3 or points % 2 == 0:
        raise ConfigError(f"grid points must be odd and >= 3, got {points}")
    return np.linspace(0.0, 2.0, points)


def band_function(k: int, params: RibbonParams, grid=None) -> np.ndarray:
    """Samples of lambda_k over the a grid (k-th sorted eigenvalue)."""
    N = params.N
    if not -N <= k <= N:
        raise ConfigError(f"band index k={k} outside -{N}..{N}")
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    return eigenvalues_batch(params, grid, indices=[k + N])[:, 0]


def _scan_and_refine(params: RibbonParams, indices):
    """One default_grid() scan of the given eigenvalue indices, then one
    batched value-and-slope refinement of each index's minimum and maximum.

    Returns fx, (2, len(indices)): fx[0, j] and fx[1, j] are the refined
    minimum and maximum of eigenvalue indices[j].
    """
    grid = default_grid()
    indices = np.asarray(indices)
    values = eigenvalues_batch(params, grid, indices=indices)

    def f(cols, a):
        return _eigenvalue_slopes(params, a, indices[cols])

    return refine_extremum(f, grid, values)[1]


def band_interval(k: int, params: RibbonParams) -> tuple[float, float]:
    """(min, max) of lambda_k over a in [0,2]: grid scan + slope refinement."""
    N = params.N
    if not -N <= k <= N:
        raise ConfigError(f"band index k={k} outside -{N}..{N}")
    fx = _scan_and_refine(params, [k + N])
    return float(fx[0, 0]), float(fx[1, 0])


@dataclass(frozen=True)
class SpectrumReport:
    """Bands, gaps, and multiplicity windows of the ribbon spectrum.

    bands: (k, lo, hi, is_flat) per band index k = -N..N.
    gaps: maximal open intervals inside the convex hull covered by no
      positive-width band (a zero-width flat band does not split a gap).
    multiplicity_windows: ((x1, x2), count) partition of the union of
      positive-width bands by how many bands cover each window.  The count
      is per Jacobi band; the full operator carries twice that multiplicity
      for interior a, since two quasimomenta share each a value.
    """

    bands: tuple
    gaps: tuple
    multiplicity_windows: tuple


def flat_band_criterion(params: RibbonParams) -> bool:
    """True iff every odd-site potential equals v_1 exactly."""
    odd = params.v[0::2]
    return bool(np.all(odd == params.v[0]))


def _report_from_intervals(bands, edge_tol: float = 0.0) -> SpectrumReport:
    """Gaps and multiplicity windows from finished (k, lo, hi, is_flat) rows.

    An edge within edge_tol of the previous kept edge is the same point, so
    band edges that agree up to rounding open no sliver window.
    """
    solid = [(lo, hi) for (_, lo, hi, is_flat) in bands if not is_flat]
    if not solid:
        return SpectrumReport(bands=tuple(bands), gaps=(),
                              multiplicity_windows=())
    hull_lo = min(lo for lo, _ in solid)
    hull_hi = max(hi for _, hi in solid)
    edges = []
    for x in sorted({x for iv in solid for x in iv}):
        if not edges or x - edges[-1] > edge_tol:
            edges.append(x)
    gaps = []
    windows = []
    for x1, x2 in zip(edges[:-1], edges[1:]):
        mid = 0.5 * x1 + 0.5 * x2
        count = sum(1 for lo, hi in solid if lo <= mid <= hi)
        if count == 0:
            if hull_lo < mid < hull_hi:
                if gaps and gaps[-1][1] == x1:
                    gaps[-1] = (gaps[-1][0], x2)
                else:
                    gaps.append((x1, x2))
        else:
            if windows and windows[-1][0][1] == x1 and windows[-1][1] == count:
                windows[-1] = ((windows[-1][0][0], x2), count)
            else:
                windows.append(((x1, x2), count))
    return SpectrumReport(bands=tuple(bands), gaps=tuple(gaps),
                          multiplicity_windows=tuple(windows))


def spectrum_report(params: RibbonParams) -> SpectrumReport:
    """Measure every band interval and assemble gaps/windows; raises
    NumericalError when the band edges span beyond float64 range.

    Band k = 0 is flat exactly when flat_band_criterion holds; no band is
    judged flat by its measured width.
    """
    fx = _scan_and_refine(params, np.arange(params.p))
    flat = flat_band_criterion(params)
    rows = [(j - params.N, float(fx[0, j]), float(fx[1, j]), flat and j == params.N)
            for j in range(params.p)]
    if rows[-1][2] - rows[0][1] == float("inf"):
        raise NumericalError("band edges span beyond float64 range")
    edge_tol = 1e-10 * max(1.0, float(np.max(np.abs(params.v))))
    return _report_from_intervals(rows, edge_tol)


def unperturbed_spectrum(N: int) -> SpectrumReport:
    """Closed-form zero-potential report.

    sigma_0 = {0} (flat); for k > 0, sigma_k = [s_k, sqrt(5-4c_k)] when
    c_k >= 0 (minimum attained at a = c_k) and [1, sqrt(5-4c_k)] when
    c_k < 0 (minimum at a = 0); sigma_{-k} = -sigma_k.
    """
    if N < 1:
        raise ConfigError(f"N must be positive, got {N}")
    rows = []
    for k in range(-N, N + 1):
        if k == 0:
            rows.append((0, 0.0, 0.0, True))
            continue
        c = cos_node(abs(k), N)
        lo = sin_node(abs(k), N) if c >= 0 else 1.0
        hi = float(unperturbed_eigenvalue(abs(k), 2.0, N))
        if k > 0:
            rows.append((k, lo, hi, False))
        else:
            rows.append((k, -hi, -lo, False))
    return _report_from_intervals(rows)
