"""Acceptance gate: the ten headline checks, one test (and one printed
pass/fail line) each.  Run with `pytest tests/test_acceptance.py -v -s`.

Tolerances are pinned; each test prints its measured margin so a passing
run doubles as a numbers report.  Criteria 01, 03, 05 and 08 measure
through the check and helper functions `ribbonband verify` runs
(`ribbonband.cli`), on larger instances, so each claim has one measurement
and one threshold.
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
    constant_field,
    constant_field_potential,
    eigenvalues_batch,
    first_order_edges,
    order_check,
    spectrum_report,
    verify_flat_eigen,
    weak_field_center,
)
from ribbonband.cli import (
    ORDER_MIN,
    check_closed_form,
    check_strong_top_width_order,
    check_two_route,
    check_weak_center_order,
    main,
    strong_field_edges,
    weak_edge_error,
)


def _line(num: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, text


def test_criterion_01_closed_form_bands_fast_and_tight():
    start = time.perf_counter()
    _, ok, detail = check_closed_form(range(1, 9), np.linspace(0.0, 2.0, 401))
    elapsed = time.perf_counter() - start
    _line(
        1,
        ok and elapsed < 1.0,
        f"zero-potential bands N=1..8 on 401-point grid: {detail} "
        f"(<= 1e-10), runtime {elapsed:.3f}s (< 1s)",
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
    _, ok, detail = check_two_route(np.random.default_rng(20260817), 20)
    _line(3, ok, f"20 random sections vs quasimomentum unions: {detail} "
                 f"(unmatched = 0)")


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
        samples = eigenvalues_batch(params, grid)[:, N]
        worst_flat_width = max(
            worst_flat_width, float(samples.max() - samples.min())
        )

        v2 = v.copy()
        site = int(rng.integers(1, N + 1))
        v2[2 * site] += float(rng.uniform(1e-3, 2e-3)) * (-1) ** site
        samples = eigenvalues_batch(RibbonParams(N=N, v=v2), grid)[:, N]
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
    w = np.random.default_rng(4).uniform(-1.0, 1.0, 7)
    _, ok_c, detail_c = check_weak_center_order(w, np.linspace(0.0, 2.0, 51))
    slope_e = order_check(  # eps = 1e-2 ... 1.25e-3
        lambda eps: weak_edge_error(RibbonParams(N=3, v=eps * w)), 1e-2)
    ok = ok_c and slope_e is not None and slope_e >= ORDER_MIN
    _line(
        5,
        ok,
        f"center error {detail_c}, edge error slope {slope_e:.3f} "
        f"(both >= {ORDER_MIN}) over eps = 1e-2 .. 1.25e-3",
    )


def test_criterion_06_first_order_edges():
    rng = np.random.default_rng(6)
    eps = 1e-4
    params = RibbonParams(N=2, v=eps * rng.uniform(-1.0, 1.0, 5))
    mlo, mhi = band_interval(1, params)
    plo, phi = first_order_edges(params)[1 + 2]  # band k = 1 at k + N
    err_lo = abs(plo - mlo)
    err_hi = abs(phi - mhi)

    shift = 0.37
    uni = RibbonParams(N=2, v=np.full(5, shift))
    ulo, uhi = first_order_edges(uni)[1 + 2]
    exact_lo = abs(ulo - (math.sin(math.pi / 3) + shift))
    exact_hi = abs(uhi - (math.sqrt(5 - 4 * math.cos(math.pi / 3)) + shift))
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
    slopes = []
    width_rel_worst = 0.0
    top_checks = []
    disjoint_ok = True
    for N in (1, 2, 3):
        ramp = np.arange(1.0, 2 * N + 2.0)
        edges = []  # the last scale's, t = 400

        def edge_err(e: float) -> float:  # t = 50/e: 50, 100, 200, 400
            nonlocal edges, disjoint_ok
            edges, worst = strong_field_edges(RibbonParams(N=N, v=ramp), 50.0 / e)
            for e1, e2 in zip(edges[:-1], edges[1:]):
                disjoint_ok = disjoint_ok and e1[3] < e2[2]
            return worst

        slopes.append(order_check(edge_err, 1.0))
        # the top site's predicted width is 0
        for plo, phi, lo, hi in edges[:-1]:
            width_rel_worst = max(width_rel_worst,
                                  abs((hi - lo) / (phi - plo) - 1.0))
        top_checks.append(check_strong_top_width_order(ramp))
    ok = (
        all(s is not None and s >= ORDER_MIN for s in slopes)
        and width_rel_worst <= 0.05
        and all(passed for _, passed, _ in top_checks)
        and disjoint_ok
    )
    _line(
        8,
        ok,
        f"edge-error slopes in 1/t {slopes} (>= {ORDER_MIN}), "
        f"widths at t=400 within {width_rel_worst:.2%} (<= 5%), top-band "
        f"width {'; '.join(d for _, _, d in top_checks)} (slope >= "
        f"{ORDER_MIN}), bands pairwise disjoint: {disjoint_ok}",
    )


def test_criterion_09_gap_asymptote_wide_ribbon():
    # the central gap 2 sin(pi/(N+1)) against 2*pi/N: the ratio is within 5%
    # at each N, and |ratio - 1| halves as N doubles (order log2 of the
    # step's quotient within 0.1 of 1)
    lines, ok, prev = [], True, None
    for N in (50, 100, 200):
        lo, _ = band_interval(1, RibbonParams(N=N))
        ratio = 2.0 * lo / (2.0 * math.pi / N)
        closed_err = abs(lo - math.sin(math.pi / (N + 1)))
        dev = abs(ratio - 1.0)
        ok = ok and dev <= 0.05 and closed_err <= 1e-9
        line = f"N={N} ratio {ratio:.4f}, closed-form check {closed_err:.1e}"
        if prev is not None:
            order = math.log2(prev / dev)
            ok = ok and abs(order - 1.0) <= 0.1
            line += f", order {order:.3f}"
        lines.append(line)
        prev = dev
    _line(
        9,
        ok,
        "central gap length vs 2*pi/N (within 5%, |ratio - 1| halving as N "
        "doubles): " + "; ".join(lines),
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
