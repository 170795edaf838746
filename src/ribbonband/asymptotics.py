"""Closed-form perturbative predictions for band edges.

Four regimes are covered:

  * weak field, central band: lambda_0(a, v) equals a weighted average of
    the odd-site potentials (weights a^{2k}) to first order in ||v||; the
    measured error falls at third order,
  * weak field, outer bands: explicit first-order corrections to both
    extrema of each band,
  * the constant transverse field v_{2k+1} = eps*k (even sites 0), whose
    first-order central-band width has a rational closed form,
  * strong field t*v with strictly increasing v: bands localize near
    t*v_k with O(1/t) second-order corrections from the two neighboring
    sites; the measured edge errors fall as 1/t^3.

Every band prediction answers in the shape spectrum_report measures in,
one (lo, hi) per band: weak_field_edges for the central band,
first_order_edges for all p bands at position k + N (None where the
first-order theory gives no edge), strong_field for all p sites.
order_check fits the empirical convergence order of an error under
halvings of a scale, so each asymptotic claim can be validated against
measured band data; it returns a float, or None when an error is exactly 0.
"""

from __future__ import annotations

import math

import numpy as np

from ._optimize import refine_extremum
from .bands import default_grid
from .errors import ConfigError, CriterionViolation, NumericalError
from .jacobi import _offdiagonals, cos_node, sin_node
from .lattice import RibbonParams, _check_N

_HALVINGS = 3  # order_check fits eps0, eps0/2, eps0/4, eps0/8
# _center_and_slope's rescaling step.  After t terms den < 4^t / 3 (z = a^2
# <= 4), below _RESCALE up to t = _RESCALE_AFTER, so no check runs before.
# At the end den <= _RESCALE, so the slope's products dnum * den and
# num * dden, about N |v| den^2 / 4, stay finite up to |v| ~ 1e64 at MAX_N
# (a threshold of 2^500 would overflow them from |v| ~ 1e5).
_RESCALE = 2.0**400
_RESCALE_AFTER = 200


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
    Where den passes _RESCALE, the four sums and the scale of the
    coefficients still to come are multiplied by 1 / _RESCALE, a power of
    two, so the quotients are unchanged and nothing overflows at a = 2,
    where den reaches 4^N.  Raises NumericalError when either result
    leaves float64 range."""
    z = a * a
    num = den = dnum = dden = 0.0
    scale = 1.0  # of the coefficients: 1 / _RESCALE per rescaling so far
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite -> raised below
        for terms, vk in enumerate(params.v[0::2][::-1], 1):  # v_p, ..., v_3, v_1
            dnum = dnum * z + num
            dden = dden * z + den
            num = num * z + vk * scale
            den = den * z + scale
            if terms > _RESCALE_AFTER:
                big = den > _RESCALE
                if np.any(big):
                    num, den, dnum, dden, scale = (
                        np.where(big, x / _RESCALE, x) for x in (num, den, dnum, dden, scale))
        center = num / den
        slope = 2.0 * a * (dnum * den - num * dden) / (den * den)
    if not (np.all(np.isfinite(center)) and np.all(np.isfinite(slope))):
        raise NumericalError("weak-field central band is not finite: potential "
                             "beyond float64 range")
    return center, slope


def weak_field_edges(params: RibbonParams) -> tuple[float, float]:
    """(min, max) of the first-order central band over [0,2] (grid + slope)."""
    grid = default_grid()
    samples = weak_field_center(grid, params)
    _, fx = refine_extremum(lambda _, a: _center_and_slope(a, params),
                            grid, samples[:, None])
    return float(fx[0, 0]), float(fx[1, 0])


def first_order_edges(params: RibbonParams) -> tuple:
    """First-order (lo, hi) of every band, at position k + N as in
    spectrum_report(params).bands; an edge this theory does not give here
    is None.

    Band k != 0 has two extrema.  Its a = 2 extremum (the maximum for
    k > 0, the minimum for k < 0) is sign(k) sqrt(5 - 4 c_k) plus the
    potential averaged with weights: even site 2n gets s_{kn}^2, odd site
    2n+1 gets (s_{nk} - 2 s_{(n+1)k})^2 / (5 - 4 c_k), n = 0..N.  The
    weights sum to N+1, which is re-verified on every call (uniform shifts
    must be exact).  Its interior extremum at a ~ c_k (the minimum for
    k > 0, the maximum for k < 0) is sign(k) s_k plus the average with
    weights c_{nk}^2 on odd site 2n-1 and s_{nk}^2 on even site 2n; it
    exists for |k| < (N+1)/2, where the zero-potential extremum lies in
    the open interval (0, 2) (the out-of-range even index 2(N+1) carries
    weight sin^2(k*pi) = 0 and is absent), and is None otherwise.  Both
    edges of band 0 are None: weak_field_edges gives them.

    Raises NumericalError when an edge is not finite.
    """
    N, v = params.N, params.v
    edges = [(None, None)] * params.p
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite -> raised below
        for ak in range(1, N + 1):
            denom = 5.0 - 4.0 * cos_node(ak, N)
            chi = np.zeros(params.p)
            for n in range(0, N + 1):
                chi[2 * n] = (sin_node(n * ak, N) - 2.0 * sin_node((n + 1) * ak, N)) ** 2 / denom
            for n in range(1, N + 1):
                chi[2 * n - 1] = sin_node(n * ak, N) ** 2
            if abs(float(np.sum(chi)) - (N + 1)) > 1e-9 * (N + 1):
                raise NumericalError(
                    "edge-weight normalization drifted; first-order formula unusable"
                )
            root, shift = math.sqrt(denom), float(chi @ v) / (N + 1)
            inner = (None, None)  # bands +ak, -ak
            if ak < (N + 1) / 2:
                total = 0.0
                for n in range(1, N + 2):
                    total += cos_node(n * ak, N) ** 2 * v[2 * n - 2]
                    if n <= N:
                        total += sin_node(n * ak, N) ** 2 * v[2 * n - 1]
                s = sin_node(ak, N)
                inner = (float(s + total / (N + 1)), float(-s + total / (N + 1)))
            edges[N + ak] = (inner[0], root + shift)
            edges[N - ak] = (-root + shift, inner[1])
    for k, edge in enumerate(edges, -N):
        if not all(x is None or math.isfinite(x) for x in edge):
            raise NumericalError(f"first-order edge of band k={k} is not finite")
    return tuple(edges)


def constant_field(N: int, eps: float) -> tuple[float, float, float]:
    """First-order central band edges for v_{2k+1} = eps*k, even sites 0.

    Returns (lo, hi, C_p) with lo = 0, hi = 4*eps*C_p and
    C_p = ((3N-1)*4^N + 1) / (3*(4^{N+1} - 1)), the closed form of
    3*sum_{k=1..N} k*4^k / (4^{N+1}-1) / 4.  Raises ConfigError unless N is
    an integer in 1..MAX_N, before 4^N is formed, and on eps < 0.
    """
    _check_N(N)
    if eps < 0:
        raise ConfigError(f"eps must be nonnegative, got {eps}")
    cp_num = (3 * N - 1) * 4**N + 1
    cp_den = 3 * (4 ** (N + 1) - 1)
    C_p = cp_num / cp_den
    return 0.0, 4.0 * eps * C_p, C_p


def constant_field_potential(N: int, eps: float) -> RibbonParams:
    """The potential of the constant transverse field family."""
    _check_N(N)
    v = np.zeros(2 * N + 1)
    v[0::2] = eps * np.arange(N + 1)
    return RibbonParams(N=N, v=v)


def strong_field(params: RibbonParams, t: float) -> tuple:
    """Predicted (lo, hi) per site for potential t*v, v strictly
    increasing, t large.

    Site k (1-based) hosts the band centered at t*v_k.  Its two neighbors
    shift that center by second-order corrections xi_minus (a = 0) and
    xi_plus (a = 2, where the a-bond carries the coupling-squared value
    4), and the band is [t*v_k - max(xi)/t, t*v_k - min(xi)/t].  The top
    site p has equal corrections, so its predicted width vanishes at this
    order; its true width is O(1/t^3).

    Requires v_1 < ... < v_p and t >= 10 / min spacing; raises ConfigError
    when v_p - v_1 or t*v leaves float64 range.
    """
    v = params.v
    p = params.p
    if not np.all(v[1:] > v[:-1]):
        raise CriterionViolation("strong-field regime needs strictly increasing v")
    if not math.isfinite(float(v[-1]) - float(v[0])):  # Python floats: no warning
        raise ConfigError("potential spacing v_p - v_1 beyond float64 range")
    spacing = np.diff(v)
    t_min = 10.0 / float(np.min(spacing))
    if t < t_min:
        raise CriterionViolation(
            f"t={t:g} below the validity threshold {t_min:g} for this potential"
        )
    if not math.isfinite(float(t) * float(np.max(np.abs(v)))):  # Python floats: no warning
        raise ConfigError(f"t={t:g} puts the potential t*v beyond float64 range")

    # bond j couples sites j and j+1 with squared weight (a^2, 1, a^2, ...)
    # at the a-range ends 0 and 2; site k's correction is q_k - q_{k-1}
    # with q_j = weight_j / (v_{j+1} - v_j), and no bond beyond either end.
    q = _offdiagonals(p, [0.0, 2.0]) ** 2 / spacing
    xi_minus, xi_plus = (np.r_[row, 0.0] - np.r_[0.0, row] for row in q)

    centers = t * v
    hi_corr = np.minimum(xi_minus, xi_plus) / t
    lo_corr = np.maximum(xi_minus, xi_plus) / t
    return tuple(
        (float(centers[k] - lo_corr[k]), float(centers[k] - hi_corr[k]))
        for k in range(p)
    )


def order_check(observable, eps0: float) -> float | None:
    """Empirical convergence order of observable(eps) under three halvings.

    Evaluates at eps0 / 2^i, i = 0.._HALVINGS, and returns the slope of the
    least-squares fit log|err| ~ slope * log(eps), or None when an error is
    exactly zero (the order is undefined).
    """
    if eps0 <= 0:
        raise ConfigError(f"eps0 must be positive, got {eps0}")
    scales = eps0 / 2.0 ** np.arange(_HALVINGS + 1)
    errors = np.array([float(observable(e)) for e in scales])
    if not np.all(np.isfinite(errors)):
        raise ConfigError("observable returned non-finite error")
    errors = np.abs(errors)
    if np.any(errors < 1e-300):
        return None
    return float(np.polyfit(np.log(scales), np.log(errors), 1)[0])
