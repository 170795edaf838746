"""Band functions, band intervals, gaps, and multiplicity windows.

Band k (k = -N..N) is the k-th eigenvalue branch a -> lambda_k(J_a),
a in [0, 2]; its band interval sigma_k is the range of that continuous
function, the spectrum of the full ribbon operator being the union of
the sigma_k.  Extrema are located by one grid scan of the requested
bands followed by one bracket search on value and slope refining every
band's minimum and maximum together, each step one batched call with one
(a, band) pair per row, the slope from its eigenvector.  The grid scan of
every band takes all eigenvalues per row (eigenvalues_batch); the scan of
one band, and each refinement step, takes only the selected eigenvalues
(jacobi._selected), which picks its own LAPACK route.  The
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
    _selected,
    cos_node,
    eigenvalues_batch,
    sin_node,
    unperturbed_eigenvalue,
)
from .lattice import RibbonParams, _check_N

DEFAULT_GRID_POINTS = 401


def default_grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """points equally spaced a values over [0, 2]; points is odd and >= 3."""
    if points < 3 or points % 2 == 0:
        raise ConfigError(f"grid points must be odd and >= 3, got {points}")
    return np.linspace(0.0, 2.0, points)


def band_function(k: int, params: RibbonParams) -> np.ndarray:
    """Samples of lambda_k over default_grid() (k-th sorted eigenvalue)."""
    N = params.N
    if not -N <= k <= N:
        raise ConfigError(f"band index k={k} outside -{N}..{N}")
    grid = default_grid()
    return _selected(params, grid, np.full(grid.size, k + N))[0]


def _refine(params: RibbonParams, indices: np.ndarray, values: np.ndarray):
    """One batched value-and-slope refinement of the minimum and maximum
    of each eigenvalue indices[j], seeded by its default_grid() samples
    values[:, j].

    Returns fx, (2, len(indices)): fx[0, j] and fx[1, j] are the refined
    minimum and maximum of eigenvalue indices[j].
    """
    def f(cols, a):
        return _selected(params, a, indices[cols], slopes=True)

    return refine_extremum(f, default_grid(), values)[1]


def band_interval(k: int, params: RibbonParams) -> tuple[float, float]:
    """(min, max) of lambda_k over a in [0,2]: grid scan + slope refinement."""
    values = band_function(k, params)
    fx = _refine(params, np.array([k + params.N]), values[:, None])
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
    edges = []
    for x in sorted({x for iv in solid for x in iv}):
        if not edges or x - edges[-1] > edge_tol:
            edges.append(x)
    # bands covering mid: #(lo <= mid) - #(hi < mid), as lo <= hi
    lo, hi = np.sort(np.array(solid).T)
    mid = 0.5 * np.array(edges[:-1]) + 0.5 * np.array(edges[1:])
    counts = np.searchsorted(lo, mid, "right") - np.searchsorted(hi, mid, "left")
    gaps = []
    windows = []
    for x1, x2, count in zip(edges[:-1], edges[1:], counts.tolist()):
        if count == 0:  # mid, in [x1, x2] and in no band, is inside the hull
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

    Band k = 0 is flat exactly when flat_band_criterion holds, and is then
    reported as exactly [v_1, v_1]; no band is judged flat by its measured
    width.
    """
    return _report_from_scan(params, eigenvalues_batch(params, default_grid()))


def _report_from_scan(params: RibbonParams, values: np.ndarray) -> SpectrumReport:
    """spectrum_report from its scan values = eigenvalues_batch(params,
    default_grid()), which a caller that already holds it passes in."""
    fx = _refine(params, np.arange(params.p), values)
    rows = [(j - params.N, float(fx[0, j]), float(fx[1, j]), False)
            for j in range(params.p)]
    if flat_band_criterion(params):
        v1 = float(params.v[0])
        rows[params.N] = (0, v1, v1, True)
    if rows[-1][2] - rows[0][1] == float("inf"):
        raise NumericalError("band edges span beyond float64 range")
    edge_tol = 1e-10 * max(1.0, float(np.max(np.abs(params.v))))
    return _report_from_intervals(rows, edge_tol)


def unperturbed_spectrum(N: int) -> SpectrumReport:
    """Closed-form zero-potential report.

    sigma_0 = {0} (flat); for k > 0, sigma_k = [s_k, sqrt(5-4c_k)] when
    c_k >= 0 (minimum attained at a = c_k) and [1, sqrt(5-4c_k)] when
    c_k < 0 (minimum at a = 0); sigma_{-k} = -sigma_k.  Raises ConfigError
    unless N is an integer in 1..MAX_N.
    """
    _check_N(N)
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
