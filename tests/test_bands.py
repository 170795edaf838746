"""Band intervals, the assembled spectrum report, and the flat-band
criterion, checked against the zero-potential closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonband import (
    ConfigError,
    RibbonParams,
    band_function,
    band_interval,
    default_grid,
    flat_band_criterion,
    eigenvalues_batch,
    spectrum_report,
    unperturbed_eigenvalue,
    unperturbed_spectrum,
)
from ribbonband._optimize import refine_extremum
from ribbonband.bands import _report_from_intervals
from ribbonband.jacobi import _eigenvalue_slopes

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min_scalar(f, lo, hi, xtol):
    """Golden-section search of one bracket: the scalar reference that the
    batched refinement must match or beat."""
    if hi < lo:
        lo, hi = hi, lo
    if hi - lo <= xtol:
        x = 0.5 * (lo + hi)
        return x, f(x)
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > xtol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
    x = 0.5 * (lo + hi)
    return x, f(x)


def _refine_scalar(f, grid, col, sign, xtol=1e-10):
    """(x, f(x)) of the minimum (sign +1) or maximum (sign -1) of one column."""
    signed = sign * np.asarray(col)
    i = int(np.argmin(signed))
    x, fx = _golden_min_scalar(lambda a: sign * f(a), float(grid[max(i - 1, 0)]),
                               float(grid[min(i + 1, len(grid) - 1)]), xtol)
    if signed[i] < fx:
        return float(grid[i]), float(col[i])
    return x, sign * fx


def test_default_grid_covers_parameter_range():
    g = default_grid()
    assert g[0] == 0.0 and g[-1] == 2.0
    assert len(g) == 401
    for points in (2, 4):  # fewer than 3, or even
        with pytest.raises(ConfigError):
            default_grid(points)


def test_band_function_traces_one_eigenvalue_branch():
    params = RibbonParams(N=1)
    grid = np.linspace(0, 2, 21)
    np.testing.assert_allclose(
        band_function(1, params, grid),
        unperturbed_eigenvalue(1, grid, 1),
        atol=1e-11,
    )
    np.testing.assert_allclose(
        band_function(0, params, grid), np.zeros(21), atol=1e-11
    )


def test_band_interval_frozen_values():
    # N=1: sigma_1 = [1, sqrt5]; N=2: sigma_1 = [sqrt3/2, sqrt3] with the
    # minimum at an interior a, sigma_2 = [1, sqrt7] with the minimum at 0
    lo, hi = band_interval(1, RibbonParams(N=1))
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert hi == pytest.approx(math.sqrt(5), abs=1e-9)

    lo, hi = band_interval(1, RibbonParams(N=2))
    assert lo == pytest.approx(math.sqrt(3) / 2, abs=1e-9)
    assert hi == pytest.approx(math.sqrt(3), abs=1e-9)

    lo, hi = band_interval(2, RibbonParams(N=2))
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert hi == pytest.approx(math.sqrt(7), abs=1e-9)

    lo, hi = band_interval(-2, RibbonParams(N=2))
    assert lo == pytest.approx(-math.sqrt(7), abs=1e-9)
    assert hi == pytest.approx(-1.0, abs=1e-9)


def test_band_interval_interior_minimum_is_refined():
    # the grid does not contain the exact minimizer a = cos(pi/3) region
    # minimum sqrt(3)/2; a coarse grid must still land on it via refinement
    # (default_grid() holds a = 0.5, so band_interval's own scan would not
    # test this: refine band 1 from 11 points as band_interval does)
    params, grid, band = RibbonParams(N=2), np.linspace(0, 2, 11), np.array([3])
    values = eigenvalues_batch(params, grid, indices=band)
    _, fx = refine_extremum(lambda cols, a: _eigenvalue_slopes(params, a, band[cols]),
                            grid, values)
    assert fx[0, 0] == pytest.approx(math.sqrt(3) / 2, abs=1e-8)


def test_spectrum_report_smallest_ribbon():
    rep = spectrum_report(RibbonParams(N=1))
    ks = [b[0] for b in rep.bands]
    assert ks == [-1, 0, 1]
    assert rep.bands[1][3] is True or rep.bands[1][3] == True  # noqa: E712
    (g,) = rep.gaps
    assert g[0] == pytest.approx(-1.0, abs=1e-9)
    assert g[1] == pytest.approx(1.0, abs=1e-9)
    assert [w[1] for w in rep.multiplicity_windows] == [1, 1]


def test_spectrum_report_window_counts_overlapping_bands():
    # N=3 zero potential: positive side splits as 1 | 3 | 2 | 1 overlaps
    rep = spectrum_report(RibbonParams(N=3))
    counts = [w[1] for w in rep.multiplicity_windows]
    assert counts == [1, 2, 3, 1, 1, 3, 2, 1]
    s1 = math.sin(math.pi / 4)
    c1 = math.cos(math.pi / 4)
    (gap,) = rep.gaps
    assert gap[0] == pytest.approx(-s1, abs=1e-9)
    assert gap[1] == pytest.approx(s1, abs=1e-9)
    hull_hi = max(w[0][1] for w in rep.multiplicity_windows)
    assert hull_hi == pytest.approx(math.sqrt(5 + 4 * c1), abs=1e-9)


def test_unperturbed_spectrum_matches_measurement():
    for N in (1, 2, 3):
        closed = unperturbed_spectrum(N)
        measured = spectrum_report(RibbonParams(N=N))
        for (k1, lo1, hi1, f1), (k2, lo2, hi2, f2) in zip(
            closed.bands, measured.bands
        ):
            assert k1 == k2 and f1 == f2
            assert lo1 == pytest.approx(lo2, abs=1e-8)
            assert hi1 == pytest.approx(hi2, abs=1e-8)
        assert len(closed.gaps) == len(measured.gaps)
        for g1, g2 in zip(closed.gaps, measured.gaps):
            np.testing.assert_allclose(g1, g2, atol=1e-8)


def test_flat_band_criterion_is_exact():
    v = np.array([0.4, 1.0, 0.4, -2.0, 0.4])
    assert flat_band_criterion(RibbonParams(N=2, v=v))
    v2 = v.copy()
    v2[2] = np.nextafter(v2[2], 2.0)  # one ulp off already breaks it
    assert not flat_band_criterion(RibbonParams(N=2, v=v2))


def test_flat_band_does_not_split_the_gap():
    # the zero-width central band lies inside the gap without splitting it
    params = RibbonParams(N=1, v=np.array([0.2, 0.0, 0.2]))
    rep = spectrum_report(params)
    assert rep.bands[1][3]  # flat
    assert any(g[0] < 0.2 < g[1] for g in rep.gaps)


def test_flat_only_where_the_criterion_holds():
    # strong-field bands are narrower than 1e-10 * max|v| but not flat;
    # with the criterion, band 0 alone is
    ramp = spectrum_report(RibbonParams(N=1, v=1e6 * np.array([1.0, 2.0, 3.0])))
    assert [b[3] for b in ramp.bands] == [False, False, False]
    held = spectrum_report(RibbonParams(N=1, v=1e6 * np.array([1.0, 2.0, 1.0])))
    assert [b[3] for b in held.bands] == [False, True, False]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_flatness_equivalence_on_random_potentials(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 4))
    v = rng.uniform(-1.0, 1.0, 2 * N + 1)
    v[0::2] = v[0]
    params = RibbonParams(N=N, v=v)
    assert flat_band_criterion(params)
    lo, hi = band_interval(0, params)
    assert hi - lo <= 1e-10
    # breaking one odd site reopens the band
    v2 = v.copy()
    site = int(rng.integers(1, N + 1))
    v2[2 * site] += float(rng.uniform(1e-3, 2e-3)) * (-1) ** site
    lo, hi = band_interval(0, RibbonParams(N=N, v=v2))
    assert hi - lo > 1e-5


def test_monotone_band_ordering_random_potential():
    rng = np.random.default_rng(23)
    params = RibbonParams(N=3, v=rng.uniform(-0.5, 0.5, 7))
    grid = np.linspace(0, 2, 31)
    values = np.column_stack(
        [band_function(k, params, grid) for k in range(-3, 4)]
    )
    assert np.all(np.diff(values, axis=1) >= -1e-12)


def test_report_merges_edges_within_edge_tol():
    # edges 1.0 and the float just below it are one point: no sliver
    # window with a spurious count
    below = float(np.nextafter(1.0, 0.0))
    rows = [(-1, 0.0, 1.0, False), (0, None, 2.0, False),
            (1, 0.5, 3.0, False), (2, 4.0, 5.0, False)]
    near = [(k, below if lo is None else lo, hi, f) for k, lo, hi, f in rows]
    exact = [(k, 1.0 if lo is None else lo, hi, f) for k, lo, hi, f in rows]
    reference = _report_from_intervals(exact, 1e-12)
    assert reference == _report_from_intervals(exact)
    merged = _report_from_intervals(near, 1e-12)
    assert merged.gaps == reference.gaps == ((3.0, 4.0),)
    assert merged.multiplicity_windows == reference.multiplicity_windows
    # edge_tol = 0 keeps the split: a sliver (below, 1.0) with count 3
    split = _report_from_intervals(near, 0.0)
    assert split.gaps == reference.gaps
    assert ((below, 1.0), 3) in split.multiplicity_windows
    assert split.multiplicity_windows != reference.multiplicity_windows


def _analytic_columns():
    """(value, slope) pairs of five even functions of a.

    Columns 3 and 4 are the eigenvalues c*a^2 + eps/2 -+ sqrt(eps^2/4 +
    kappa^2 a^2) of [[c a^2, kappa a], [kappa a, eps + c a^2]]: a pair
    eps apart at a = 0 whose lower member has its minimum at a_star, inside
    the first cell of a 41-point grid.
    """
    c, kappa, eps = 1.0, 0.1, 0.004

    def root(a):
        return np.sqrt(0.25 * eps**2 + (kappa * a) ** 2)

    funcs = [
        (lambda a: (a * a - 0.49) ** 2, lambda a: 4.0 * a * (a * a - 0.49)),
        (lambda a: np.cos(3.0 * a), lambda a: -3.0 * np.sin(3.0 * a)),
        (lambda a: np.full_like(a, 0.3), lambda a: np.zeros_like(a)),
        (lambda a: c * a * a + 0.5 * eps - root(a),
         lambda a: 2.0 * c * a - kappa**2 * a / root(a)),
        (lambda a: c * a * a + 0.5 * eps + root(a),
         lambda a: 2.0 * c * a + kappa**2 * a / root(a)),
    ]
    a_star = math.sqrt(kappa**4 / (4.0 * c * c) - 0.25 * eps**2) / kappa
    low = c * a_star**2 + 0.5 * eps - kappa**2 / (2.0 * c)
    return funcs, a_star, low


def test_refine_extremum_analytic_columns():
    funcs, a_star, low = _analytic_columns()
    calls = []

    def f(cols, x):
        calls.append(x.copy())
        vals = np.array([funcs[c][0](xi) for c, xi in zip(cols, x)])
        return vals, np.array([funcs[c][1](xi) for c, xi in zip(cols, x)])

    grid = np.linspace(0.0, 2.0, 41)
    values = np.column_stack([fv(grid) for fv, _ in funcs])
    x, fx = refine_extremum(f, grid, values)
    assert x.shape == fx.shape == (2, 5)
    # interior minima, located by the slope root
    assert abs(x[0, 0] - 0.7) < 1e-7 and 0.0 <= fx[0, 0] < 1e-13
    assert abs(x[0, 1] - math.pi / 3) < 1e-7
    assert fx[0, 1] == pytest.approx(-1.0, abs=1e-13)
    # extrema at the ends: the a = 2 probe and the a = 0 sample
    assert (x[1, 0], fx[1, 0]) == (2.0, (4.0 - 0.49) ** 2)
    assert (x[1, 1], fx[1, 1]) == (0.0, 1.0)
    assert (x[0, 4], fx[0, 4]) == (0.0, 0.004)
    # a constant column is its own extremum
    assert fx[0, 2] == fx[1, 2] == 0.3
    # the near-degenerate pair: a minimum inside (0, h) below every sample
    assert 0.0 < a_star < grid[1]
    assert abs(x[0, 3] - a_star) < 1e-7
    assert fx[0, 3] == pytest.approx(low, abs=1e-15) and fx[0, 3] < values[:, 3].min()
    assert (x[1, 3], fx[1, 3]) == (2.0, values[-1, 3])
    # the slope at a = 0 is 0 by symmetry and is never asked for
    assert all(np.all(xs > 0.0) for xs in calls)
    assert len(calls) <= 10


def _seeded_potentials():
    """N = 1..6: random, equal 2x2 blocks (repeated a = 0 eigenvalues) and
    rounded values, at scales from 1e-4 to 30."""
    rng = np.random.default_rng(20261018)
    for N in range(1, 7):
        for shape in ("random", "equal-blocks", "rounded"):
            for _ in range(2):
                v = rng.uniform(-1.0, 1.0, 2 * N + 1)
                if shape == "equal-blocks":
                    v[1:] = np.tile(v[1:3], N)
                elif shape == "rounded":
                    v = np.round(v, 1)
                scale = 10.0 ** rng.uniform(-4.0, math.log10(30.0))
                yield RibbonParams(N=N, v=scale * v)


def test_report_edges_at_least_as_extreme_as_golden_reference():
    grid = default_grid()
    for params in _seeded_potentials():
        bands = spectrum_report(params).bands
        values = eigenvalues_batch(params, grid)
        tol = 1e-13 * max(1.0, float(np.max(np.abs(params.v))))
        for j, (_, lo, hi, _) in enumerate(bands):
            def f(a, j=j):
                return float(eigenvalues_batch(params, [a], indices=[j])[0, 0])

            col = values[:, j]
            assert lo <= _refine_scalar(f, grid, col, 1.0)[1] + tol
            assert hi >= _refine_scalar(f, grid, col, -1.0)[1] - tol


def test_refine_extremum_steps_per_spectrum_report(monkeypatch):
    # a count, not a timing: golden section took about 35 batched steps
    import ribbonband.bands as bands_mod

    steps = []

    def counted(f, grid, values):
        def g(cols, a):
            steps[-1] += 1
            return f(cols, a)

        steps.append(0)
        return refine_extremum(g, grid, values)

    monkeypatch.setattr(bands_mod, "refine_extremum", counted)
    for params in _seeded_potentials():
        spectrum_report(params)
    assert len(steps) == 36
    assert np.median(steps) <= 10


def _dense_scan_extrema(params, points=20001):
    a = np.linspace(0.0, 2.0, points)
    p = params.p
    J = np.zeros((points, p, p))
    J[:, np.arange(p), np.arange(p)] = params.v
    off = np.tile(np.where(np.arange(p - 1) % 2 == 0, 1.0, 0.0), (points, 1))
    off = off * a[:, None] + (1.0 - off)  # (a, 1, a, 1, ...)
    J[:, np.arange(p - 1), np.arange(1, p)] = off
    J[:, np.arange(1, p), np.arange(p - 1)] = off
    lam = np.linalg.eigvalsh(J)
    return lam.min(axis=0), lam.max(axis=0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    N=st.integers(1, 3),
    scale=st.floats(1e-4, 3.0),
    shape=st.sampled_from(["random", "equal-pairs", "equal-blocks", "rounded"]),
)
def test_report_edges_at_least_as_extreme_as_dense_scan(seed, N, scale, shape):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, 2 * N + 1)
    if shape == "equal-pairs":  # each a = 0 block [[x, 1], [1, x]]
        v[2::2] = v[1::2]
    elif shape == "equal-blocks":  # repeated a = 0 eigenvalues
        v[1:] = np.tile(v[1:3], N)
    elif shape == "rounded":
        v = np.round(v, 1)
    params = RibbonParams(N=N, v=scale * v)
    lo_scan, hi_scan = _dense_scan_extrema(params)
    tol = 1e-9 * max(1.0, scale)
    for (_, lo, hi, _), m, M in zip(spectrum_report(params).bands, lo_scan, hi_scan):
        assert lo <= m + tol and hi >= M - tol
