"""Closed-form perturbative predictions for band edges.

Four regimes are covered:

  * weak field, central band: lambda_0(a, v) equals a weighted average of
    the odd-site potentials (weights a^{2k}) to first order in ||v||,
  * weak field, outer bands: explicit first-order corrections to both
    extrema of each band,
  * the constant transverse field v_{2k+1} = eps*k (even sites 0), whose
    first-order central-band width has a rational closed form,
  * strong field t*v with strictly increasing v: bands localize near
    t*v_k with O(1/t) second-order corrections from the two neighboring
    sites.

order_check fits the empirical convergence order of an error under
halvings of a scale, so each asymptotic claim can be validated against
measured band data.  The result types carry only what their callers read:
the predicted extrema (WeakFieldPrediction), the per-site corrections,
bands and widths (StrongFieldEstimate), and the fitted slope
(OrderEstimate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optimize import refine_extremum
from .bands import default_grid
from .errors import ConfigError, CriterionViolation, NumericalError
from .jacobi import cos_node, sin_node
from .lattice import RibbonParams

_HALVINGS = 3  # order_check fits eps0, eps0/2, eps0/4, eps0/8


def weak_field_center(a, params: RibbonParams):
    """First-order central band value: sum v_{2k+1} a^{2k} / sum a^{2k}.

    Both polynomials are evaluated by Horner in z = a^2, elementwise when
    a is an array.
    """
    a = np.asarray(a, dtype=float)
    if not np.all((a >= 0.0) & (a <= 2.0)):
        raise ConfigError(f"a={a} outside [0, 2]")
    return _center_and_slope(a, params)[0]


def _center_and_slope(a, params: RibbonParams):
    """weak_field_center and its a-derivative: Horner in z = a^2 carrying
    the derivatives of numerator and denominator, quotient rule, dz/da.
    Raises NumericalError when either leaves float64 range."""
    z = a * a
    num = den = dnum = dden = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite -> raised below
        for vk in params.v[0::2][::-1]:  # v_p, ..., v_3, v_1
            dnum = dnum * z + num
            dden = dden * z + den
            num = num * z + vk
            den = den * z + 1.0
        center = num / den
        slope = 2.0 * a * (dnum * den - num * dden) / (den * den)
    if not (np.all(np.isfinite(center)) and np.all(np.isfinite(slope))):
        raise NumericalError("weak-field central band is not finite: potential "
                             "beyond float64 range")
    return center, slope


@dataclass(frozen=True)
class WeakFieldPrediction:
    """First-order central band: its extrema over a in [0,2]."""

    lo: float
    hi: float


def weak_field_edges(params: RibbonParams) -> WeakFieldPrediction:
    """Extrema of the first-order central band over [0,2] (grid + slope)."""
    grid = default_grid()
    samples = weak_field_center(grid, params)
    _, fx = refine_extremum(lambda _, a: _center_and_slope(a, params),
                            grid, samples[:, None])
    return WeakFieldPrediction(lo=float(fx[0, 0]), hi=float(fx[1, 0]))


def first_order_lower_edge(k: int, params: RibbonParams) -> float:
    """First-order value of the interior extremum of band k (the one at
    a ~ c_k; for k > 0 it is the band minimum, for k < 0 the maximum).

    Valid for 0 < |k| < (N+1)/2, where the zero-potential minimum s_k is
    attained in the open interval (0, 2).  The potential correction is an
    average of squared eigenvector weights; the out-of-range even index
    2(N+1) carries weight sin^2(k*pi) = 0 and is therefore absent.
    """
    N = params.N
    ak = abs(k)
    if not 0 < ak < (N + 1) / 2:
        raise CriterionViolation(
            f"first-order interior edge needs 0 < |k| < (N+1)/2, got k={k}, N={N}"
        )
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


def first_order_upper_edge(k: int, params: RibbonParams) -> float:
    """First-order value of the a = 2 extremum of band k (the band maximum
    for k > 0, minimum for k < 0); valid for all k != 0.

    Correction weights: even site 2n gets s_{kn}^2; odd site 2n+1 gets
    (s_{nk} - 2 s_{(n+1)k})^2 / (5 - 4 c_k), n = 0..N.  The weights sum to
    N+1, which is re-verified on every call (uniform shifts must be exact).
    """
    N = params.N
    ak = abs(k)
    if ak == 0 or ak > N:
        raise CriterionViolation(f"band index k={k} outside 1..{N} in modulus")
    v = params.v
    denom = 5.0 - 4.0 * cos_node(ak, N)
    chi = np.zeros(params.p)
    for n in range(0, N + 1):
        chi[2 * n] = (sin_node(n * ak, N) - 2.0 * sin_node((n + 1) * ak, N)) ** 2 / denom
    for n in range(1, N + 1):
        chi[2 * n - 1] = sin_node(n * ak, N) ** 2
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite -> raised below
        total = float(chi @ v)
    if abs(float(np.sum(chi)) - (N + 1)) > 1e-9 * (N + 1):
        raise NumericalError(
            "edge-weight normalization drifted; first-order formula unusable"
        )
    lead = math.sqrt(denom) * math.copysign(1.0, k)
    edge = lead + total / (N + 1)
    if not math.isfinite(edge):
        raise NumericalError(f"first-order edge of band k={k} is not finite")
    return edge


def constant_field(N: int, eps: float) -> tuple[float, float, float]:
    """First-order central band edges for v_{2k+1} = eps*k, even sites 0.

    Returns (lo, hi, C_p) with lo = 0, hi = 4*eps*C_p and
    C_p = ((3N-1)*4^N + 1) / (3*(4^{N+1} - 1)), the closed form of
    3*sum_{k=1..N} k*4^k / (4^{N+1}-1) / 4.
    """
    if N < 1:
        raise ConfigError(f"N must be positive, got {N}")
    if eps < 0:
        raise ConfigError(f"eps must be nonnegative, got {eps}")
    cp_num = (3 * N - 1) * 4**N + 1
    cp_den = 3 * (4 ** (N + 1) - 1)
    C_p = cp_num / cp_den
    return 0.0, 4.0 * eps * C_p, C_p


def constant_field_potential(N: int, eps: float) -> RibbonParams:
    """The potential of the constant transverse field family."""
    v = np.zeros(2 * N + 1)
    v[0::2] = eps * np.arange(N + 1)
    return RibbonParams(N=N, v=v)


@dataclass(frozen=True)
class StrongFieldEstimate:
    """Per-site band predictions for the Hamiltonian with potential t*v.

    Site k (1-based) hosts the band centered at t*v_k with second-order
    corrections xi_minus (a = 0) and xi_plus (a = 2, where the a-bond
    carries the coupling-squared value 4) from its two neighbors; the band
    estimate is [t*v_k - max(xi)/t, t*v_k - min(xi)/t].  The top site p has
    equal corrections, so its predicted width vanishes at this order and
    the true width is O(1/t^2).
    """

    xi_minus: np.ndarray
    xi_plus: np.ndarray
    bands: tuple
    widths: np.ndarray


def strong_field(params: RibbonParams, t: float) -> StrongFieldEstimate:
    """Predicted bands for potential t*v, v strictly increasing, t large.

    Requires v_1 < ... < v_p and t >= 10 / min spacing.
    """
    v = params.v
    p = params.p
    spacing = np.diff(v)
    if np.any(spacing <= 0):
        raise CriterionViolation("strong-field regime needs strictly increasing v")
    t_min = 10.0 / float(np.min(spacing))
    if t < t_min:
        raise CriterionViolation(
            f"t={t:g} below the validity threshold {t_min:g} for this potential"
        )

    # bond coupling squared between sites j and j+1: pattern a^2, 1, a^2, ...
    # evaluated at the a-range ends 0 and 2 -> per-site correction weights
    # r_j for the bond (j-1, j), j = 1..p+1, with r_1 = r_{p+1} = 0.
    r_minus = np.zeros(p + 2)
    r_plus = np.zeros(p + 2)
    for j in range(2, p + 1):
        if j % 2 == 0:
            r_plus[j] = 4.0  # a-type bond at a = 2
        else:
            r_minus[j] = 1.0
            r_plus[j] = 1.0

    vext = np.concatenate(([0.0], v, [0.0]))  # v_0 = v_{p+1} = 0 convention

    xi_minus = np.empty(p)
    xi_plus = np.empty(p)
    for k in range(1, p + 1):
        dm = vext[k - 1] - vext[k]
        dp = vext[k + 1] - vext[k]
        xi_minus[k - 1] = (r_minus[k] / dm if r_minus[k] else 0.0) + (
            r_minus[k + 1] / dp if r_minus[k + 1] else 0.0
        )
        xi_plus[k - 1] = (r_plus[k] / dm if r_plus[k] else 0.0) + (
            r_plus[k + 1] / dp if r_plus[k + 1] else 0.0
        )

    centers = t * v
    hi_corr = np.minimum(xi_minus, xi_plus) / t
    lo_corr = np.maximum(xi_minus, xi_plus) / t
    bands = tuple(
        (float(centers[k] - lo_corr[k]), float(centers[k] - hi_corr[k]))
        for k in range(p)
    )
    return StrongFieldEstimate(xi_minus=xi_minus, xi_plus=xi_plus, bands=bands,
                               widths=lo_corr - hi_corr)


@dataclass(frozen=True)
class OrderEstimate:
    """Least-squares slope of log|error| against log(scale)."""

    slope: float | None
    exact: bool


def order_check(observable, eps0: float) -> OrderEstimate:
    """Empirical convergence order of observable(eps) under three halvings.

    Evaluates at eps0 / 2^i, i = 0.._HALVINGS, and fits log|err| ~ slope *
    log(eps).  Zero errors short-circuit to exact=True (slope undefined).
    """
    if eps0 <= 0:
        raise ConfigError(f"eps0 must be positive, got {eps0}")
    scales = eps0 / 2.0 ** np.arange(_HALVINGS + 1)
    errors = np.array([float(observable(e)) for e in scales])
    if not np.all(np.isfinite(errors)):
        raise ConfigError("observable returned non-finite error")
    errors = np.abs(errors)
    if np.any(errors < 1e-300):
        return OrderEstimate(slope=None, exact=True)
    slope = np.polyfit(np.log(scales), np.log(errors), 1)[0]
    return OrderEstimate(slope=float(slope), exact=False)
