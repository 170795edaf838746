"""Weak-field center, first-order band edges, the constant-field example,
and the strong-field localization estimates.

Expected numbers below were derived by hand from the defining sums before
the implementations were written, so they are independent of the code
paths they check.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonband import (
    ConfigError,
    CriterionViolation,
    NumericalError,
    RibbonParams,
    band_interval,
    constant_field,
    constant_field_potential,
    cos_node,
    first_order_edges,
    order_check,
    sin_node,
    spectrum_report,
    strong_field,
    weak_field_center,
    weak_field_edges,
)
from ribbonband.bands import default_grid
from ribbonband.cli import check_weak_center_order, strong_field_edges
from ribbonband.lattice import MAX_N


def _weak_field_center_telescoped(a: float, params: RibbonParams) -> float:
    """Reference form of weak_field_center, algebraically equivalent:

        v_p - sum_{k=1..N} (v_{2k+1} - v_{2k-1}) * (a^{2k}-1)/(a^{2(N+1)}-1)

    The ratio is computed through expm1/log so the removable singularity
    at a = 1 costs no precision; at a = 1 exactly the limit k/(N+1) is
    used.  Nondecreasing odd entries make this nondecreasing in a.
    """
    N = params.N
    odd = params.v[0::2]

    if a == 1.0:
        def ratio(k: int) -> float:
            return k / (N + 1)
    elif a == 0.0:
        def ratio(k: int) -> float:
            return 1.0
    else:
        t = math.log(a)

        def ratio(k: int) -> float:
            return math.expm1(2 * k * t) / math.expm1(2 * (N + 1) * t)

    acc = float(odd[-1])
    for k in range(1, N + 1):
        acc -= (odd[k] - odd[k - 1]) * ratio(k)
    return acc


# ---------------------------------------------------------------------------
# weak field: central band
# ---------------------------------------------------------------------------

def test_weak_center_is_weighted_average_of_odd_sites():
    # N=1: F = (v1 + a^2 v3) / (1 + a^2)
    v = np.array([0.002, 0.5, -0.004])
    params = RibbonParams(N=1, v=v)
    for a in (0.0, 0.5, 1.0, 2.0):
        expected = (v[0] + a**2 * v[2]) / (1 + a**2)
        assert weak_field_center(a, params) == pytest.approx(expected, rel=1e-14)


def test_weak_center_constant_odd_sites_is_constant():
    params = RibbonParams(N=3, v=np.array([0.3, 9, 0.3, -4, 0.3, 1, 0.3]))
    for a in np.linspace(0, 2, 17):
        assert weak_field_center(float(a), params) == pytest.approx(0.3, rel=1e-13)


def test_weak_center_at_a_one_is_plain_average():
    v = np.array([0.1, 0.0, 0.3, 0.0, -0.2])
    params = RibbonParams(N=2, v=v)
    assert weak_field_center(1.0, params) == pytest.approx(
        np.mean(v[0::2]), rel=1e-13
    )
    assert _weak_field_center_telescoped(1.0, params) == pytest.approx(
        np.mean(v[0::2]), rel=1e-13
    )


@settings(max_examples=80, deadline=None)
@given(st.floats(0.0, 2.0, allow_nan=False), st.integers(0, 10_000))
def test_weak_center_two_forms_agree(a, seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 5))
    params = RibbonParams(N=N, v=rng.uniform(-1, 1, 2 * N + 1))
    direct = weak_field_center(a, params)
    tele = _weak_field_center_telescoped(a, params)
    assert tele == pytest.approx(direct, abs=1e-12, rel=1e-12)


def test_weak_center_two_forms_agree_near_a_equals_one():
    # the telescoped form has a removable singularity at a = 1; both sides
    # must agree to full precision right next to it
    rng = np.random.default_rng(41)
    params = RibbonParams(N=3, v=rng.uniform(-1, 1, 7))
    for a in (1 - 1e-13, 1 - 1e-8, 1 + 1e-8, 1 + 1e-13):
        assert _weak_field_center_telescoped(a, params) == pytest.approx(
            weak_field_center(a, params), abs=1e-12
        )


def test_weak_center_tracks_true_eigenvalue_to_second_order():
    rng = np.random.default_rng(2)
    _, passed, detail = check_weak_center_order(rng.uniform(-1, 1, 5),
                                                np.linspace(0, 2, 41))
    assert passed, detail


def test_weak_field_edges_prediction_object():
    params = RibbonParams(N=1, v=np.array([1e-3, 0.0, 3e-3]))
    lo, hi = weak_field_edges(params)
    # F is monotone between v1 and v3 here
    assert lo == pytest.approx(1e-3, rel=1e-10)
    assert hi == pytest.approx(3e-3 * 4 / 5 + 1e-3 / 5, rel=1e-10)


def test_weak_center_rescaling_changes_no_bit():
    # at N = 250 and a = 2 the denominator reaches 2^500: rescaled by powers
    # of two, yet every value equals plain Horner, which is still finite
    rng = np.random.default_rng(250)
    params = RibbonParams(250, rng.uniform(-1e-3, 1e-3, 501))
    z = default_grid() ** 2
    num = den = 0.0
    for vk in params.v[0::2][::-1]:
        num, den = num * z + vk, den * z + 1.0
    assert den[-1] > 2.0**500
    assert weak_field_center(default_grid(), params).tobytes() == (num / den).tobytes()


@pytest.mark.parametrize("N", [300, MAX_N])
def test_weak_field_is_finite_on_wide_ribbons(N):
    # the a = 2 weights 4^k pass float64 range from N = 512: the center
    # still equals the average with the exact weights 4^(k - N)
    rng = np.random.default_rng(N)
    params = RibbonParams(N, rng.uniform(-1e-3, 1e-3, 2 * N + 1))
    w = np.ldexp(1.0, 2 * np.arange(-N, 1))
    average = math.fsum(w * params.v[0::2]) / math.fsum(w)
    assert weak_field_center(2.0, params) == pytest.approx(average, rel=0, abs=1e-18)
    lo, hi = weak_field_edges(params)
    assert lo <= weak_field_center(2.0, params) <= hi
    assert weak_field_edges(RibbonParams(N)) == (0.0, 0.0)
    assert all(map(math.isfinite, weak_field_edges(RibbonParams(N, 1e8 * params.v))))
    with pytest.raises(NumericalError):  # a truly overflowing potential
        weak_field_edges(RibbonParams(N, np.full(2 * N + 1, 1e308)))


# ---------------------------------------------------------------------------
# first-order band edges
# ---------------------------------------------------------------------------

def _first_order_lower_edge(k: int, params: RibbonParams) -> float:
    """Reference: the interior (a ~ c_k) extremum of band k, 0 < |k| <
    (N+1)/2, as one scalar function per edge; first_order_edges must
    reproduce it bit for bit."""
    N = params.N
    ak = abs(k)
    v = params.v
    total = 0.0
    for n in range(1, N + 2):
        c2 = cos_node(n * ak, N) ** 2
        total += c2 * v[2 * n - 2]
        if n <= N:
            s2 = sin_node(n * ak, N) ** 2
            total += s2 * v[2 * n - 1]
    lead = sin_node(ak, N) * math.copysign(1.0, k)
    return lead + total / (N + 1)


def _first_order_upper_edge(k: int, params: RibbonParams) -> float:
    """Reference: the a = 2 extremum of band k != 0, one scalar function
    per edge."""
    N = params.N
    ak = abs(k)
    v = params.v
    denom = 5.0 - 4.0 * cos_node(ak, N)
    chi = np.zeros(params.p)
    for n in range(0, N + 1):
        chi[2 * n] = (sin_node(n * ak, N) - 2.0 * sin_node((n + 1) * ak, N)) ** 2 / denom
    for n in range(1, N + 1):
        chi[2 * n - 1] = sin_node(n * ak, N) ** 2
    total = float(chi @ v)
    lead = math.sqrt(denom) * math.copysign(1.0, k)
    return lead + total / (N + 1)


def _edges(k: int, params: RibbonParams) -> tuple:
    """first_order_edges' (lo, hi) of band k, as (interior, a = 2) edge."""
    lo, hi = first_order_edges(params)[k + params.N]
    return (lo, hi) if k > 0 else (hi, lo)


def test_first_order_edges_equal_scalar_references_bitwise():
    rng = np.random.default_rng(17)
    for N in range(1, 9):
        for scale in (1e-6, 1e-2, 1.0, 1e2):
            params = RibbonParams(N=N, v=scale * rng.uniform(-1, 1, 2 * N + 1))
            edges = first_order_edges(params)
            assert len(edges) == params.p
            assert edges[N] == (None, None)  # band 0: weak_field_edges
            for k in [k for k in range(-N, N + 1) if k != 0]:
                inner, outer = _edges(k, params)
                assert outer == _first_order_upper_edge(k, params)
                if abs(k) < (N + 1) / 2:
                    assert inner == _first_order_lower_edge(k, params)
                else:
                    assert inner is None


def test_lower_edge_frozen_coefficients_N2():
    # k=1, N=2: sqrt(3)/2 + (v1/4 + 3 v2/4 + v3/4 + 3 v4/4 + v5) / 3
    v = np.array([0.001, 0.002, 0.003, 0.004, 0.005])
    params = RibbonParams(N=2, v=v)
    shift = (v[0] / 4 + 3 * v[1] / 4 + v[2] / 4 + 3 * v[3] / 4 + v[4]) / 3
    assert _edges(1, params)[0] == pytest.approx(math.sqrt(3) / 2 + shift, abs=1e-15)
    assert _edges(-1, params)[0] == pytest.approx(-math.sqrt(3) / 2 + shift, abs=1e-15)


def test_lower_edge_only_defined_for_inner_bands():
    params = RibbonParams(N=2)
    for k in (0, 2, -2):
        assert _edges(k, params)[0] is None
    assert _edges(1, RibbonParams(N=1))[0] is None  # (N+1)/2 = 1 excludes k=1
    assert first_order_edges(RibbonParams(N=1))[0][1] is None  # k = -1's max


def test_upper_edge_frozen_coefficients_N1():
    # k=1, N=1: sqrt(5) + (4 v1/5 + v2 + v3/5) / 2
    v = np.array([0.001, 0.002, 0.003])
    params = RibbonParams(N=1, v=v)
    shift = (4 * v[0] / 5 + v[1] + v[2] / 5) / 2
    assert _edges(1, params)[1] == pytest.approx(math.sqrt(5) + shift, abs=1e-15)
    assert _edges(-1, params)[1] == pytest.approx(-math.sqrt(5) + shift, abs=1e-15)


def test_upper_edge_uniform_shift_is_exact():
    # the edge weights sum to N+1, so a constant potential shifts every
    # upper edge by exactly that constant
    c = 0.37
    for N in (1, 2, 3):
        params = RibbonParams(N=N, v=np.full(2 * N + 1, c))
        for k in range(1, N + 1):
            base = math.sqrt(5 - 4 * math.cos(k * math.pi / (N + 1)))
            assert _edges(k, params)[1] == pytest.approx(base + c, abs=1e-12)


def test_upper_edge_rejects_out_of_range():
    # band 0 has no first-order outer edge; an overflowing edge raises
    params = RibbonParams(N=2)
    assert first_order_edges(params)[2] == (None, None)
    assert len(first_order_edges(params)) == 5  # no band k = 3
    with pytest.raises(NumericalError):  # overflows to inf
        first_order_edges(RibbonParams(N=1, v=np.full(3, 1e308)))


def test_interior_edge_overflow_raises_numerical_error():
    # N = 2, |k| = 1: the interior weights of v1 and v5 are 1/4 and 1, the
    # a = 2 weights 1 and 1/4, so only the interior edges overflow, with
    # no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = RibbonParams(N=2, v=np.array([1e308, 0.0, 0.0, 0.0, 1.7e308]))
        with pytest.raises(NumericalError, match="k=-1"):
            first_order_edges(params)


def test_edges_match_measured_bands_to_second_order():
    rng = np.random.default_rng(13)
    w = rng.uniform(-1, 1, 5)
    eps = 1e-4
    params = RibbonParams(N=2, v=eps * w)
    (_, mlo, mhi, _) = spectrum_report(params).bands[1 + params.N]
    plo, phi = first_order_edges(params)[1 + params.N]
    assert (mlo, mhi) == band_interval(1, params)
    assert abs(plo - mlo) <= 10 * eps**2
    assert abs(phi - mhi) <= 10 * eps**2


# ---------------------------------------------------------------------------
# constant-field example
# ---------------------------------------------------------------------------

def test_constant_field_prefactor_exact_fraction():
    # C_p = ((3N-1) 4^N + 1) / (3 (4^{N+1} - 1)), equal to the defining sum
    # 3 sum(k 4^k) / (4 (4^{N+1} - 1)) as exact rationals
    for N in range(1, 13):
        lhs = Fraction(3 * sum(k * 4**k for k in range(N + 1)),
                       4 * (4 ** (N + 1) - 1))
        rhs = Fraction((3 * N - 1) * 4**N + 1, 3 * (4 ** (N + 1) - 1))
        assert lhs == rhs
    lo, hi, cp = constant_field(1, 1e-3)
    assert lo == 0.0
    assert cp == pytest.approx(0.2, abs=1e-16)
    assert hi == pytest.approx(4e-3 * 0.2, rel=1e-14)
    _, _, cp2 = constant_field(2, 1e-3)
    assert cp2 == pytest.approx(3 / 7, rel=1e-15)


def test_constant_field_potential_layout():
    params = constant_field_potential(2, 0.01)
    np.testing.assert_allclose(params.v, [0.0, 0.0, 0.01, 0.0, 0.02])


def test_constant_field_agrees_with_general_weak_field_form():
    # the example's closed form is the general first-order center at a = 2
    for N in (1, 2, 3, 4):
        eps = 1e-3
        params = constant_field_potential(N, eps)
        _, hi, _ = constant_field(N, eps)
        assert weak_field_center(2.0, params) == pytest.approx(hi, rel=1e-12)


def test_constant_field_matches_measurement():
    eps = 1e-3
    for N in (1, 2):
        params = constant_field_potential(N, eps)
        _, hi_pred, _ = constant_field(N, eps)
        _, hi_meas = band_interval(0, params)
        assert abs(hi_meas - hi_pred) <= 0.05 * hi_pred


# ---------------------------------------------------------------------------
# strong field
# ---------------------------------------------------------------------------

def test_strong_field_frozen_smallest_ramp():
    params = RibbonParams(N=1, v=np.array([1.0, 2.0, 3.0]))
    t = 100.0
    bands = strong_field(params, t)
    # the corrections at a = 0 are xi_minus = (0, 1, -1) and at a = 2
    # xi_plus = (4, -3, -1); each band is t*v_k - (max, min)(xi) / t
    # (edges differ from t*v_k by rounding, at most one ulp of 3t each)
    ulp = np.spacing(3 * t)
    xi_max = [(t * vk - lo) * t for vk, (lo, _) in zip(params.v, bands)]
    xi_min = [(t * vk - hi) * t for vk, (_, hi) in zip(params.v, bands)]
    np.testing.assert_allclose(xi_max, [4.0, 1.0, -1.0], atol=2 * t * ulp)
    np.testing.assert_allclose(xi_min, [0.0, -3.0, -1.0], atol=2 * t * ulp)
    assert bands[0] == (t - 4 / t, t)
    assert bands[1] == (2 * t - 1 / t, 2 * t + 3 / t)
    assert bands[2] == (3 * t + 1 / t, 3 * t + 1 / t)
    np.testing.assert_allclose([hi - lo for lo, hi in bands], [4 / t, 4 / t, 0.0],
                               rtol=0, atol=2 * ulp)


def test_strong_field_width_rule_general():
    # width_k = 4 / (t |v_{k - (-1)^k} - v_k|) for k < p, 0 at k = p
    rng = np.random.default_rng(31)
    v = np.sort(rng.uniform(0, 5, 7))
    v += 0.2 * np.arange(7)  # enforce decent spacing
    params = RibbonParams(N=3, v=v)
    t = 500.0
    widths = [hi - lo for lo, hi in strong_field(params, t)]
    for k in range(1, 8):
        if k == 7:
            expected = 0.0
        else:
            partner = k - (-1) ** k
            expected = 4.0 / (t * abs(v[partner - 1] - v[k - 1]))
        # hi - lo carries the rounding of both edges near t*v_k
        ulp = np.spacing(t * v[k - 1])
        assert widths[k - 1] == pytest.approx(expected, rel=1e-12, abs=2 * ulp)


def test_strong_field_validations():
    params = RibbonParams(N=1, v=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(CriterionViolation):
        strong_field(params, 9.0)  # below 10 / min spacing
    strong_field(params, 10.0)  # boundary value accepted
    with pytest.raises(CriterionViolation):
        strong_field(RibbonParams(N=1, v=np.array([1.0, 1.0, 2.0])), 100.0)


def test_strong_field_predicts_measured_edges():
    t = 200.0
    edges, _ = strong_field_edges(RibbonParams(N=1, v=np.array([1.0, 2.0, 3.0])), t)
    for plo, phi, mlo, mhi in edges:
        assert abs(mlo - plo) <= 20.0 / t**2
        assert abs(mhi - phi) <= 20.0 / t**2


def test_strong_field_edges_beside_a_huge_site():
    # at a = 0 site 3 (potential 1e301) decouples into the block
    # [[20, 1], [1, 1e301]], whose small eigenvalue is 20 - 1e-301; a closed
    # form mean - hypot(half, 1) cancelled it to 0, and band 1's lower edge
    # read 0 against a prediction of 9.6
    t = 10.0
    edges, _ = strong_field_edges(RibbonParams(N=1, v=np.array([1.0, 2.0, 1e300])), t)
    assert edges[0][2] > 9.0
    for plo, phi, mlo, mhi in edges:
        assert abs(mlo - plo) <= 20.0 / t**2
        assert abs(mhi - phi) <= 20.0 / t**2


def test_strong_field_bands_disjoint_and_ordered():
    params = RibbonParams(N=2, v=np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    bands = strong_field(params, 50.0)
    for (lo1, hi1), (lo2, hi2) in zip(bands[:-1], bands[1:]):
        assert hi1 < lo2


# ---------------------------------------------------------------------------
# order checking utility
# ---------------------------------------------------------------------------

def test_order_check_recovers_known_orders():
    assert order_check(lambda e: 3.0 * e, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert order_check(lambda e: 0.5 * e**2, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_order_check_flags_exact_zero():
    assert order_check(lambda e: 0.0, 1.0) is None


def test_order_check_validations():
    with pytest.raises(ConfigError):
        order_check(lambda e: e, -1.0)
    with pytest.raises(ConfigError):
        order_check(lambda e: float("nan"), 1.0)
