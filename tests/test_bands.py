"""Band intervals, the assembled spectrum report, and the flat-band
criterion, checked against the zero-potential closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ribbonband.jacobi as jacobi_mod
from ribbonband import (
    ConfigError,
    NumericalError,
    RibbonParams,
    band_function,
    band_interval,
    constant_field,
    default_grid,
    flat_band_criterion,
    eigenvalues_batch,
    spectrum_report,
    unperturbed_eigenvalue,
    unperturbed_spectrum,
)
from ribbonband._optimize import _LADDER, _ROUNDING, _XTOL, _worth, refine_extremum
from ribbonband.bands import _report_from_intervals
from ribbonband.jacobi import _selected

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
    np.testing.assert_allclose(
        band_function(1, params),
        unperturbed_eigenvalue(1, default_grid(), 1),
        atol=1e-11,
    )
    np.testing.assert_allclose(
        band_function(0, params), np.zeros(401), atol=1e-11
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


def test_unbalanced_block_edge_at_a_zero_keeps_its_digits():
    # J_0 holds the block [[3, 1], [1, 1e6]]: its small eigenvalue is band
    # 1's value at a = 0 and its lower edge.  A 50-digit mpmath solve gives
    # 2.99999899999699999...; the closed form mean - hypot(half, 1) lost
    # five digits to cancellation (2.9999989999923855).
    params = RibbonParams(N=2, v=np.array([0.0, 3.0, 1e6, -2.0, 0.5]))
    reference = 2.999998999997
    assert eigenvalues_batch(params, [0.0])[0, 3] == pytest.approx(reference, rel=1e-14)
    assert band_interval(1, params)[0] == pytest.approx(reference, rel=1e-14)


def test_band_interval_interior_minimum_is_refined():
    # the grid does not contain the exact minimizer a = cos(pi/3) region
    # minimum sqrt(3)/2; a coarse grid must still land on it via refinement
    # (default_grid() holds a = 0.5, so band_interval's own scan would not
    # test this: refine band 1 from 11 points as band_interval does)
    params, grid, band = RibbonParams(N=2), np.linspace(0, 2, 11), np.array([3])
    values = eigenvalues_batch(params, grid)[:, band]
    _, fx = refine_extremum(
        lambda cols, a: _selected(params, a, band[cols], slopes=True), grid, values)
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
    values = np.column_stack([band_function(k, params) for k in range(-3, 4)])
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


def _refine_extremum_reference(f, grid, values):
    """refine_extremum as it was before its bracket loop kept only the live
    brackets: every bracket's ends in four (2, q) arrays, a live mask, and
    one _worth call per half.  The loop now must match it bit for bit."""
    grid, values = np.asarray(grid, dtype=float), np.asarray(values, dtype=float)
    n, m = values.shape
    cols = np.tile(np.arange(m), 2)
    sign = np.repeat([1.0, -1.0], m)
    e = np.arange(2 * m)
    i = np.argmin(values[:, cols] * sign, axis=0)
    level = _ROUNDING * max(1.0, float(np.max(np.abs(values), initial=0.0)))
    seen = [(e, grid[i], sign * values[i, cols])]

    def g(own, x):
        val, slope = f(cols[own], x)
        seen.append((own, x, sign[own] * val))
        return sign[own] * val, sign[own] * slope

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
    X, G, D, S = (np.stack([v[q], v[q + 1]]) for v in (x, gx, dx, dx))
    live, kept = np.ones(q.size, dtype=bool), np.full(q.size, -1)
    while True:
        live &= (X[1] - X[0] > _XTOL) & (np.abs(D).max(axis=0) * (X[1] - X[0]) >= level)
        act = np.flatnonzero(live)
        if not act.size:
            break
        L, R = X[0, act], X[1, act]
        x = 0.5 * L + 0.5 * R
        s = np.flatnonzero((D[0, act] < 0) & (D[1, act] > 0))
        frac = S[0, act[s]] / (S[0, act[s]] - S[1, act[s]])
        x[s] = np.clip(L[s] + (R[s] - L[s]) * frac, L[s] + _XTOL / 2, R[s] - _XTOL / 2)
        gx, dx = g(own[act], x)
        w1 = _worth(L, x, G[0, act], gx, D[0, act], dx, level)
        w2 = _worth(x, R, gx, G[1, act], dx, D[1, act], level)
        live[act] = np.maximum(w1, w2) > 0
        stay = ((w1 > w2) | ((w1 == w2) & (G[0, act] <= G[1, act]))).astype(int) ^ 1
        S[stay, act] *= np.where(kept[act] == stay, 0.5, 1.0)
        for ends, new in ((X, x), (G, gx), (D, dx), (S, dx)):
            ends[1 - stay, act] = new
        kept[act] = stay
    own, x, gx = (np.concatenate(v) for v in zip(*seen))
    order = np.lexsort((gx, own))
    pick = order[np.searchsorted(own[order], e)]
    return x[pick].reshape(2, m), (sign * gx[pick]).reshape(2, m)


def _same_refinement(f, grid, values):
    """refine_extremum and the reference give the same probes, x and fx,
    bit for bit."""
    probes = [], []
    results = []
    for calls, refine in zip(probes, (refine_extremum, _refine_extremum_reference)):
        def logged(cols, a, calls=calls):
            calls.append((cols.tobytes(), a.tobytes()))
            return f(cols, a)

        results.append([r.tobytes() for r in refine(logged, grid, values)])
    assert probes[0] == probes[1]
    assert results[0] == results[1]


def test_refine_extremum_matches_reference_on_seeded_potentials():
    grid = default_grid()
    for params in _seeded_potentials():
        band = np.arange(params.p)
        _same_refinement(lambda cols, a: _selected(params, a, band[cols], slopes=True),
                         grid, eigenvalues_batch(params, grid))


def test_refine_extremum_matches_reference_on_analytic_columns():
    funcs, _, _ = _analytic_columns()

    def f(cols, x):
        vals = np.array([funcs[c][0](xi) for c, xi in zip(cols, x)])
        return vals, np.array([funcs[c][1](xi) for c, xi in zip(cols, x)])

    for points in (41, 401):
        grid = np.linspace(0.0, 2.0, points)
        _same_refinement(f, grid, np.column_stack([fv(grid) for fv, _ in funcs]))


def test_report_edges_at_least_as_extreme_as_golden_reference():
    grid = default_grid()
    for params in _seeded_potentials():
        bands = spectrum_report(params).bands
        values = eigenvalues_batch(params, grid)
        tol = 1e-13 * max(1.0, float(np.max(np.abs(params.v))))
        for j, (_, lo, hi, _) in enumerate(bands):
            def f(a, j=j):
                return float(eigenvalues_batch(params, [a])[0, j])

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


def _dense_route_report(monkeypatch, params):
    """spectrum_report with every row of both kernels on dense stacks."""
    with monkeypatch.context() as m:
        m.setattr(jacobi_mod, "_STACK_MAX_P", params.p)
        return spectrum_report(params)


def _wide_seeded_potentials():
    """(params, scale) at N = 6..24, past the widest dense stack, in six
    shapes: random, equal pairs and equal blocks (repeated a = 0
    eigenvalues), rounded, zero, and flat (the criterion holds), at scales
    from 1e-4 to 30.  Each width takes three shapes, each shape three
    widths."""
    shapes = ("random", "equal-pairs", "equal-blocks", "rounded", "zero", "flat")
    rng = np.random.default_rng(20261019)
    for i, N in enumerate((6, 9, 12, 16, 20, 24)):
        for shape in shapes[i % 2::2]:
            v = rng.uniform(-1.0, 1.0, 2 * N + 1)
            if shape == "equal-pairs":
                v[2::2] = v[1::2]
            elif shape == "equal-blocks":
                v[1:] = np.tile(v[1:3], N)
            elif shape == "rounded":
                v = np.round(v, 1)
            elif shape == "zero":
                v[:] = 0.0
            elif shape == "flat":
                v[0::2] = v[0]
            scale = 10.0 ** rng.uniform(-4.0, math.log10(30.0))
            yield RibbonParams(N=N, v=scale * v), scale


def test_wide_report_edges_match_dense_scan_and_dense_route(monkeypatch):
    # the tridiagonal route (dsterf scan, dstebz + dstein refinement):
    # each edge is at least as extreme as a dense scan at the default grid's
    # 401 points, and no more extreme than |d lambda / da| <= 1 allows over
    # half a step of a dense 2001-point scan; and it agrees with the
    # dense-stack route.  An extremum in a narrow avoided crossing that the
    # default grid does not bracket can sit below the 2001-point scan on
    # both routes (here band -11 of N = 20, by 1.1e-5).
    points = 2001
    half_step = 1.0 / (points - 1)
    for params, scale in _wide_seeded_potentials():
        assert params.p > jacobi_mod._STACK_MAX_P
        bands = spectrum_report(params).bands
        dense = _dense_route_report(monkeypatch, params).bands
        lo_scan, hi_scan = _dense_scan_extrema(params, points)
        lo_seed, hi_seed = _dense_scan_extrema(params, len(default_grid()))
        tol = 1e-13 * max(1.0, scale)
        for (k, lo, hi, flat), (_, dlo, dhi, dflat), m, M, ms, Ms in zip(
                bands, dense, lo_scan, hi_scan, lo_seed, hi_seed):
            assert m - half_step - tol <= lo <= ms + tol, (params.N, k)
            assert Ms - tol <= hi <= M + half_step + tol, (params.N, k)
            assert flat == dflat
            assert abs(lo - dlo) <= tol and abs(hi - dhi) <= tol, (params.N, k)


@pytest.mark.parametrize("v", [
    np.full(33, 1e308),
    1.7e308 * (-1.0) ** np.arange(33),
    1e300 * np.arange(1.0, 34.0),
], ids=["1e308-ones", "1.7e308-alternating", "1e300-ramp"])
def test_wide_report_near_float_limit_matches_dense_route(monkeypatch, v):
    # N = 16: the same finite edges, or NumericalError on both routes
    params = RibbonParams(N=16, v=v)
    outcomes = []
    for report in (spectrum_report, lambda p: _dense_route_report(monkeypatch, p)):
        try:
            outcomes.append(report(params).bands)
        except NumericalError:
            outcomes.append(None)
    wide, dense = outcomes
    assert (wide is None) == (dense is None)
    if wide is not None:
        np.testing.assert_allclose([b[1:3] for b in wide], [b[1:3] for b in dense],
                                   rtol=1e-13)
        assert [b[3] for b in wide] == [b[3] for b in dense]


def test_zero_potential_report_at_n256_matches_closed_form():
    # a 513 x 513 family: a wide ribbon on the tridiagonal route in seconds
    closed = unperturbed_spectrum(256)
    measured = spectrum_report(RibbonParams(N=256))
    for (k1, lo1, hi1, f1), (k2, lo2, hi2, f2) in zip(closed.bands, measured.bands):
        assert k1 == k2 and f1 == f2
        assert abs(lo1 - lo2) <= 1e-10 and abs(hi1 - hi2) <= 1e-10


# ---------------------------------------------------------------------------
# one-band scans: on the wide route only the requested band is bisected
# ---------------------------------------------------------------------------

def _full_route_interval(params, k):
    """band_interval(k) refined from the sliced full rows of eigenvalues_batch."""
    grid, band = default_grid(), np.array([k + params.N])
    values = eigenvalues_batch(params, grid)[:, band]
    _, fx = refine_extremum(
        lambda cols, a: _selected(params, a, band[cols], slopes=True), grid, values)
    return float(fx[0, 0]), float(fx[1, 0])


def _one_band_potentials(widths):
    """RibbonParams in five shapes (random, equal pairs, zero, flat, ramp)
    at scales 1e-4, 1 and 30, the widths taken in turn."""
    rng = np.random.default_rng(20261019)
    shapes = ("random", "equal-pairs", "zero", "flat", "ramp")
    cases = [(shape, scale) for shape in shapes for scale in (1e-4, 1.0, 30.0)]
    for i, (shape, scale) in enumerate(cases):
        N = widths[i % len(widths)]
        v = rng.uniform(-1.0, 1.0, 2 * N + 1)
        if shape == "equal-pairs":
            v[2::2] = v[1::2]
        elif shape == "zero":
            v[:] = 0.0
        elif shape == "flat":
            v[0::2] = v[0]
        elif shape == "ramp":
            v = np.linspace(-1.0, 1.0, 2 * N + 1)
        yield RibbonParams(N=N, v=scale * v)


def test_one_band_scan_matches_full_rows_on_wide_route():
    for params in _one_band_potentials((6, 9, 16, 33, 64, 128)):
        N = params.N
        full = eigenvalues_batch(params, default_grid())
        tol = 1e-13 * max(1.0, float(np.max(np.abs(params.v))))
        for k in sorted({-N, -1, 0, 1, N, N // 2}):
            assert np.max(np.abs(band_function(k, params) - full[:, k + N])) <= tol, (N, k)


def test_one_band_interval_matches_spectrum_report_on_wide_route():
    for params in _one_band_potentials((6, 9, 12, 16, 24, 33)):
        N = params.N
        bands = spectrum_report(params).bands
        tol = 1e-13 * max(1.0, float(np.max(np.abs(params.v))))
        for k in sorted({-N, -1, 0, 1, N, N // 2}):
            lo, hi = band_interval(k, params)
            assert abs(lo - bands[k + N][1]) <= tol, (N, k)
            assert abs(hi - bands[k + N][2]) <= tol, (N, k)


def test_one_band_scan_bit_equal_on_dense_stacks():
    # p <= 11: the rows are the dense eigvalsh stacks, sliced
    rng = np.random.default_rng(5)
    for N in range(1, 6):
        params = RibbonParams(N=N, v=rng.uniform(-1.0, 1.0, 2 * N + 1))
        full = eigenvalues_batch(params, default_grid())
        for k in range(-N, N + 1):
            np.testing.assert_array_equal(band_function(k, params), full[:, k + N])
            assert band_interval(k, params) == _full_route_interval(params, k)


@pytest.mark.parametrize("v", [
    np.full(33, 1e308),
    1.7e308 * (-1.0) ** np.arange(33),
    1e300 * np.arange(1.0, 34.0),
], ids=["1e308-ones", "1.7e308-alternating", "1e300-ramp"])
def test_one_band_scan_near_float_limit_matches_full_route(v):
    # N = 16: the same finite values, or NumericalError on both routes
    params = RibbonParams(N=16, v=v)
    for k in (-16, 0, 5, 16):
        for one, full in ((lambda: band_function(k, params),
                           lambda: eigenvalues_batch(params, default_grid())[:, k + 16]),
                          (lambda: band_interval(k, params),
                           lambda: _full_route_interval(params, k))):
            outcomes = []
            for route in (one, full):
                try:
                    outcomes.append(np.asarray(route()))
                except NumericalError:
                    outcomes.append(None)
            a, b = outcomes
            assert (a is None) == (b is None), k
            if a is not None:
                assert np.all(np.isfinite(a))
                np.testing.assert_allclose(a, b, rtol=1e-13)


def test_one_band_scan_does_not_solve_all_eigenvalues(monkeypatch):
    import scipy.linalg.lapack

    def no_dsterf(*args, **kwargs):
        raise AssertionError("dsterf called by a one-band scan")

    monkeypatch.setattr(scipy.linalg.lapack, "dsterf", no_dsterf)
    params = RibbonParams(N=64, v=np.random.default_rng(8).uniform(-1.0, 1.0, 129))
    assert band_function(3, params).shape == (401,)
    lo, hi = band_interval(3, params)
    assert lo <= hi
    with pytest.raises(AssertionError):
        eigenvalues_batch(params, [0.5])


# ---------------------------------------------------------------------------
# window counts from sorted edges, and the width cap of the closed forms
# ---------------------------------------------------------------------------

def _report_by_scanning_bands(rows, edge_tol):
    """(gaps, windows) with each window counted by a scan of every band."""
    solid = [(lo, hi) for (_, lo, hi, flat) in rows if not flat]
    edges = []
    for x in sorted({x for iv in solid for x in iv}):
        if not edges or x - edges[-1] > edge_tol:
            edges.append(x)
    gaps, windows = [], []
    for x1, x2 in zip(edges[:-1], edges[1:]):
        mid = 0.5 * x1 + 0.5 * x2
        count = sum(1 for lo, hi in solid if lo <= mid <= hi)
        if count == 0:
            if gaps and gaps[-1][1] == x1:
                gaps[-1] = (gaps[-1][0], x2)
            else:
                gaps.append((x1, x2))
        elif windows and windows[-1][0][1] == x1 and windows[-1][1] == count:
            windows[-1] = ((windows[-1][0][0], x2), count)
        else:
            windows.append(((x1, x2), count))
    return tuple(gaps), tuple(windows)


def test_window_counts_match_a_scan_of_every_band():
    # random interval sets: adjacent floats, subnormals, rounded values and
    # flat rows, at edge_tol 0, 1e-10 and 0.5
    rng = np.random.default_rng(11)
    for trial in range(3000):
        n = int(rng.integers(1, 12))
        kind = trial % 4
        if kind == 0:
            base = rng.uniform(-1.0, 1.0)
            x = base + rng.integers(-4, 5, (n, 2)) * np.spacing(base)
        elif kind == 1:
            x = rng.integers(-6, 7, (n, 2)) * 5e-324
        elif kind == 2:
            x = np.round(rng.uniform(-1.0, 1.0, (n, 2)), 1)
        else:
            x = rng.uniform(-2.0, 2.0, (n, 2))
        x = np.sort(x, axis=1)
        flat = rng.random(n) < 0.1
        rows = [(j, float(lo), float(hi), bool(f)) for j, ((lo, hi), f) in
                enumerate(zip(x, flat))]
        edge_tol = (0.0, 1e-10, 0.5)[trial % 3]
        report = _report_from_intervals(rows, edge_tol)
        gaps, windows = _report_by_scanning_bands(rows, edge_tol)
        assert report.gaps == gaps and report.multiplicity_windows == windows
        assert all(type(c) is int for _, c in report.multiplicity_windows)


@pytest.mark.parametrize("N", [0, -1, 4097, 5000, 2**40, 2.5])
def test_closed_forms_reject_widths_outside_the_cap(N):
    with pytest.raises(ConfigError, match=r"N must be an integer in 1\.\.4096"):
        unperturbed_spectrum(N)
    with pytest.raises(ConfigError, match=r"N must be an integer in 1\.\.4096"):
        constant_field(N, 1e-3)
