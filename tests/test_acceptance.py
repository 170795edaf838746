"""Acceptance gate: the ten headline checks, one test (and one printed
pass/fail line) each.  Run with `pytest tests/test_acceptance.py -v -s`.

Tolerances are pinned; each test prints its measured margin so a passing
run doubles as a numbers report.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ribbonband import (
    FlatBandVector,
    RibbonParams,
    band_interval,
    bloch_union_spectrum,
    compare_multisets,
    constant_field,
    constant_field_potential,
    eigenvalues_batch,
    first_order_lower_edge,
    first_order_upper_edge,
    order_check,
    periodic_ribbon_spectrum,
    spectrum_report,
    strong_field,
    unperturbed_eigenvalue,
    verify_flat_eigen,
    weak_field_center,
    weak_field_edges,
)
from ribbonband.cli import main


def _line(num: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, text


def test_criterion_01_closed_form_bands_fast_and_tight():
    grid = np.linspace(0.0, 2.0, 401)
    start = time.perf_counter()
    worst = 0.0
    for N in range(1, 9):
        batch = eigenvalues_batch(RibbonParams(N=N), grid)
        closed = np.column_stack(
            [unperturbed_eigenvalue(k, grid, N) for k in range(-N, N + 1)]
        )
        worst = max(worst, float(np.max(np.abs(batch - closed))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _line(
        1,
        ok,
        f"zero-potential bands N=1..8 on 401-point grid: max deviation "
        f"{worst:.3e} (<= 1e-10), runtime {elapsed:.3f}s (< 1s)",
    )


def test_criterion_02_spectrum_shape_three_rows():
    rep = spectrum_report(RibbonParams(N=3))
    s1 = math.sin(math.pi / 4)
    hull = math.sqrt(5 + 4 * math.cos(math.pi / 4))
    (gap,) = rep.gaps
    gap_err = max(abs(gap[0] + s1), abs(gap[1] - s1))
    hull_hi = max(hi for (_, _, hi, _) in rep.bands)
    hull_err = abs(hull_hi - hull)
    flat_present = any(is_flat and k == 0 for (k, _, _, is_flat) in rep.bands)
    ok = gap_err <= 1e-9 and hull_err <= 1e-9 and flat_present
    _line(
        2,
        ok,
        f"N=3 report: gap endpoints off by {gap_err:.2e}, hull edge off by "
        f"{hull_err:.2e} (both <= 1e-9), flat central band "
        f"{'present' if flat_present else 'MISSING'}",
    )


def test_criterion_03_two_route_spectra_agree():
    rng = np.random.default_rng(20260817)
    worst_unmatched = 0
    worst_dev = 0.0
    for _ in range(20):
        N = int(rng.integers(1, 4))
        L = int(rng.integers(3, 11))
        v = rng.uniform(-1.0, 1.0, size=2 * N + 1)
        norm = float(np.linalg.norm(v))
        if norm > 1.0:
            v /= norm
        params = RibbonParams(N=N, v=v)
        rep = compare_multisets(
            periodic_ribbon_spectrum(params, L),
            bloch_union_spectrum(params, L),
            1e-8,
        )
        worst_unmatched = max(worst_unmatched, rep.unmatched_count)
        worst_dev = max(worst_dev, rep.max_pairwise_deviation)
    ok = worst_unmatched == 0
    _line(
        3,
        ok,
        f"20 random sections vs quasimomentum unions: unmatched "
        f"{worst_unmatched} (= 0), max pairwise deviation {worst_dev:.2e}",
    )


def test_criterion_04_flat_band_exact_and_sharp():
    rng = np.random.default_rng(8)
    grid = np.linspace(0.0, 2.0, 101)
    worst_resid = 0.0
    worst_flat_width = 0.0
    min_violated_width = np.inf
    for _ in range(50):
        N = int(rng.integers(1, 4))
        v = rng.uniform(-1e-3, 1e-3, 2 * N + 1)
        v[0::2] = v[0]
        params = RibbonParams(N=N, v=v)
        resid = verify_flat_eigen(params, FlatBandVector(N, N + 1), 2 * N + 4)
        worst_resid = max(worst_resid, abs(resid))
        samples = eigenvalues_batch(params, grid, indices=[N])[:, 0]
        worst_flat_width = max(
            worst_flat_width, float(samples.max() - samples.min())
        )

        v2 = v.copy()
        site = int(rng.integers(1, N + 1))
        v2[2 * site] += float(rng.uniform(1e-3, 2e-3)) * (-1) ** site
        samples = eigenvalues_batch(
            RibbonParams(N=N, v=v2), grid, indices=[N]
        )[:, 0]
        min_violated_width = min(
            min_violated_width, float(samples.max() - samples.min())
        )
    ok = (
        worst_resid == 0.0
        and worst_flat_width <= 1e-10
        and min_violated_width > 1e-5
    )
    _line(
        4,
        ok,
        f"50 flat potentials: residual exactly {worst_resid} (= 0.0), band "
        f"width <= {worst_flat_width:.2e} (<= 1e-10); 50 violated by >= 1e-3: "
        f"width >= {min_violated_width:.2e} (> 1e-5)",
    )


def test_criterion_05_weak_field_is_first_order_accurate():
    rng = np.random.default_rng(4)
    w = rng.uniform(-1.0, 1.0, 7)
    agrid = np.linspace(0.0, 2.0, 51)

    def center_err(eps: float) -> float:
        params = RibbonParams(N=3, v=eps * w)
        lam0 = eigenvalues_batch(params, agrid, indices=[3])[:, 0]
        F = np.array([weak_field_center(float(a), params) for a in agrid])
        return float(np.max(np.abs(lam0 - F)))

    def edge_err(eps: float) -> float:
        params = RibbonParams(N=3, v=eps * w)
        plo, phi = weak_field_edges(params)
        lo, hi = band_interval(0, params)
        return max(abs(plo - lo), abs(phi - hi))

    slope_c = order_check(center_err, 1e-2)  # eps = 1e-2 ... 1.25e-3
    slope_e = order_check(edge_err, 1e-2)
    ok = (
        slope_c is not None
        and slope_c >= 1.9
        and slope_e is not None
        and slope_e >= 1.9
    )
    _line(
        5,
        ok,
        f"center error slope {slope_c:.3f}, edge error slope "
        f"{slope_e:.3f} (both >= 1.9) over eps = 1e-2 .. 1.25e-3",
    )


def test_criterion_06_first_order_edges():
    rng = np.random.default_rng(6)
    eps = 1e-4
    params = RibbonParams(N=2, v=eps * rng.uniform(-1.0, 1.0, 5))
    mlo, mhi = band_interval(1, params)
    err_lo = abs(first_order_lower_edge(1, params) - mlo)
    err_hi = abs(first_order_upper_edge(1, params) - mhi)

    shift = 0.37
    uni = RibbonParams(N=2, v=np.full(5, shift))
    exact_lo = abs(
        first_order_lower_edge(1, uni) - (math.sin(math.pi / 3) + shift)
    )
    exact_hi = abs(
        first_order_upper_edge(1, uni)
        - (math.sqrt(5 - 4 * math.cos(math.pi / 3)) + shift)
    )
    ok = (
        err_lo <= 10 * eps**2
        and err_hi <= 10 * eps**2
        and exact_lo <= 1e-12
        and exact_hi <= 1e-12
    )
    _line(
        6,
        ok,
        f"N=2 k=1 edges at eps=1e-4: lower error {err_lo:.2e}, upper error "
        f"{err_hi:.2e} (both <= 1e-7); uniform-shift exactness "
        f"{max(exact_lo, exact_hi):.2e} (<= 1e-12)",
    )


def test_criterion_07_constant_field_example():
    eps = 1e-3
    margins = []
    for N in (1, 2):
        lo, hi, cp = constant_field(N, eps)
        params = constant_field_potential(N, eps)
        _, hi_meas = band_interval(0, params)
        rel = abs(hi_meas - hi) / hi
        agree = abs(weak_field_center(2.0, params) - hi) / hi
        margins.append((N, rel, agree))
    # the N=1 prefactor is exactly 1/5 as a rational
    frac_ok = Fraction(3 * sum(k * 4**k for k in range(2)), 4 * (4**2 - 1)) == (
        Fraction(1, 5)
    )
    n1_ok = constant_field(1, eps)[1] == pytest.approx(4 * eps / 5, rel=1e-14)
    ok = (
        all(rel <= 0.05 for _, rel, _ in margins)
        and all(agree <= 1e-12 for _, _, agree in margins)
        and frac_ok
        and n1_ok
    )
    detail = ", ".join(
        f"N={N}: measured within {rel:.2%}, forms agree to {agree:.1e}"
        for N, rel, agree in margins
    )
    _line(7, ok, f"constant field upper edge 4*eps*C_p: {detail}; "
                 f"N=1 prefactor exactly 1/5: {frac_ok and n1_ok}")


def test_criterion_08_strong_field_regime():
    ts = np.array([50.0, 100.0, 200.0, 400.0])
    slopes = []
    width_rel_worst = 0.0
    top_slopes = []
    disjoint_ok = True
    for N in (1, 2, 3):
        p = 2 * N + 1
        base = RibbonParams(N=N, v=np.arange(1.0, p + 1.0))
        edge_errs = []
        top_widths = []
        for t in ts:
            est = strong_field(base, float(t))
            scaled = RibbonParams(N=N, v=t * base.v)
            worst = 0.0
            measured = []
            for site in range(1, p + 1):
                lo, hi = band_interval(site - 1 - N, scaled)
                measured.append((lo, hi))
                plo, phi = est.bands[site - 1]
                worst = max(worst, abs(lo - plo), abs(hi - phi))
                if t == ts[-1] and site < p:
                    width_rel_worst = max(
                        width_rel_worst,
                        abs((hi - lo) / est.widths[site - 1] - 1.0),
                    )
            edge_errs.append(worst)
            top_widths.append(measured[-1][1] - measured[-1][0])
            for (l1, h1), (l2, h2) in zip(measured[:-1], measured[1:]):
                disjoint_ok = disjoint_ok and h1 < l2
        slope = np.polyfit(np.log(ts), np.log(edge_errs), 1)[0]
        slopes.append(float(slope))
        top_slopes.append(float(np.polyfit(np.log(ts), np.log(top_widths), 1)[0]))
    ok = (
        all(s <= -1.9 for s in slopes)
        and width_rel_worst <= 0.05
        and all(s <= -1.9 for s in top_slopes)
        and disjoint_ok
    )
    _line(
        8,
        ok,
        f"edge-error slopes in t {['%.2f' % s for s in slopes]} (<= -1.9), "
        f"widths at t=400 within {width_rel_worst:.2%} (<= 5%), top-band "
        f"width slopes {['%.2f' % s for s in top_slopes]} (<= -1.9), bands "
        f"pairwise disjoint: {disjoint_ok}",
    )


def test_criterion_09_gap_asymptote_wide_ribbon():
    N = 50
    params = RibbonParams(N=N)
    lo, _ = band_interval(1, params)
    gap_len = 2.0 * lo
    target = 2.0 * math.pi / N
    ratio = gap_len / target
    closed_err = abs(lo - math.sin(math.pi / (N + 1)))
    ok = abs(ratio - 1.0) <= 0.05 and closed_err <= 1e-9
    _line(
        9,
        ok,
        f"N=50 central gap length {gap_len:.6f} vs 2*pi/N {target:.6f}: "
        f"ratio {ratio:.4f} (within 5%), closed-form check {closed_err:.1e}",
    )


def test_criterion_10_byte_identical_reruns(tmp_path, capsys):
    args = [
        "bands",
        "--N",
        "2",
        "--potential",
        "0.05,-0.1,0.2,0.3,-0.4",
        "--grid",
        "101",
        "--format",
        "json",
    ]
    f1, f2 = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    capsys.readouterr()
    csv_same = f1.read_bytes() == f2.read_bytes()
    rep_same = (tmp_path / "one.csv.report.json").read_bytes() == (
        tmp_path / "two.csv.report.json"
    ).read_bytes()
    json.loads((tmp_path / "one.csv.report.json").read_text())  # valid json
    ok = csv_same and rep_same
    _line(
        10,
        ok,
        f"band table reruns byte-identical: csv {csv_same}, report {rep_same}",
    )
