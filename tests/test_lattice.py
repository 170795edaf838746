"""Ribbon assembly and the compactly supported flat-band vectors."""

import math
import warnings

import numpy as np
import pytest

from ribbonband import (
    OPEN,
    PERIODIC,
    ConfigError,
    CriterionViolation,
    FlatBandVector,
    NumericalError,
    RibbonParams,
    build_ribbon,
    verify_flat_eigen,
)
from ribbonband import lattice
from ribbonband.lattice import MAX_N


def test_params_defaults_and_validation():
    params = RibbonParams(N=2)
    assert params.p == 5
    np.testing.assert_array_equal(params.v, np.zeros(5))
    with pytest.raises(ConfigError):
        RibbonParams(N=0)
    with pytest.raises(ConfigError):
        RibbonParams(N=1, v=np.zeros(4))  # needs length p = 3
    with pytest.raises(ConfigError):
        RibbonParams(N=1, v=np.array([0.0, np.nan, 0.0]))


def test_open_section_edge_count_smallest_case():
    # N=1, L=2, open: 2 cells x 2 intra-chain bonds + 1 cross bond = 5 edges
    H = build_ribbon(RibbonParams(N=1), 2, boundary=OPEN).toarray()
    assert np.count_nonzero(H) == 2 * 5  # symmetric, so twice the edge count
    np.testing.assert_array_equal(H, H.T)


def test_periodic_vertex_degrees():
    # along a middle cross-section: first site degree 2, last site degree 1,
    # everything between degree 3
    params = RibbonParams(N=2)
    H = build_ribbon(params, 4, boundary=PERIODIC).toarray()
    degrees = H.sum(axis=1)  # unit couplings, zero potential
    per_cell = degrees.reshape(4, params.p)
    for n in range(4):
        np.testing.assert_array_equal(per_cell[n], [2.0, 3.0, 3.0, 3.0, 1.0])


def test_open_section_boundary_degrees():
    # open ends lose cross bonds: total edges = L*2N (chain) + (L-1)*N (cross)
    N, L = 2, 4
    H = build_ribbon(RibbonParams(N=N), L, boundary=OPEN).toarray()
    assert np.count_nonzero(H) == 2 * (L * 2 * N + (L - 1) * N)


def test_potential_lands_on_diagonal():
    v = np.array([0.5, -1.0, 2.0])
    H = build_ribbon(RibbonParams(N=1, v=v), 3, boundary=PERIODIC).toarray()
    np.testing.assert_array_equal(np.diag(H), np.tile(v, 3))


def test_build_ribbon_validations():
    params = RibbonParams(N=1)
    with pytest.raises(ConfigError):
        build_ribbon(params, 1, boundary=OPEN)
    with pytest.raises(ConfigError):
        build_ribbon(params, 2, boundary=PERIODIC)  # ring needs L >= 3
    with pytest.raises(ConfigError):
        build_ribbon(params, 2, boundary="moebius")
    with pytest.raises(ConfigError):
        build_ribbon(RibbonParams(N=200), 100)  # size cap


def test_flat_band_vector_rows_are_signed_binomials():
    psi = FlatBandVector(2, 3)
    assert psi.row_entries(0) == [(3, 1)]
    assert psi.row_entries(1) == [(3, -1), (2, -1)]
    assert psi.row_entries(2) == [(3, 1), (2, 2), (1, 1)]


@pytest.mark.parametrize("k", [0, 1, 57, 512])
def test_flat_band_vector_rows_equal_math_comb(k):
    # the Pascal-step rows, past 2^53 from k = 57, are the exact binomials
    psi = FlatBandVector(512, 600)
    sign = -1 if k % 2 else 1
    assert psi.row_entries(k) == [(600 - j, sign * math.comb(k, j)) for j in range(k + 1)]


def test_flat_band_vector_even_rows_vanish():
    psi = FlatBandVector(2, 2)
    # odd-site support sits in cells m-N..m = 0..2, and fills an open
    # section of exactly those cells
    positions = {n for k in range(3) for n, _ in psi.row_entries(k)}
    assert positions == {0, 1, 2}
    # even sites carry nothing: their potential never reaches the residual
    params = RibbonParams(N=2, v=np.array([0.5, 1e6, 0.5, -3e7, 0.5]))
    assert verify_flat_eigen(params, psi, 3) == 0.0
    assert verify_flat_eigen(params, psi, 6) == 0.0


def test_verify_flat_eigen_is_exactly_zero():
    rng = np.random.default_rng(11)
    for _ in range(10):
        N = int(rng.integers(1, 5))
        v = rng.uniform(-2, 2, 2 * N + 1)
        v[0::2] = v[0]
        params = RibbonParams(N=N, v=v)
        resid = verify_flat_eigen(params, FlatBandVector(N, N + 1), 2 * N + 4)
        assert resid == 0.0


@pytest.mark.parametrize("N, served", [(56, True), (57, True), (512, True),
                                       (513, False), (MAX_N, False)])
def test_verify_flat_eigen_size_cap(N, served, monkeypatch):
    # integer sums keep the residual exactly 0 beyond C(N, N//2) > 2^53
    # (N = 57); past the size cap N <= 512 the call is refused before any
    # coefficient or bond is formed
    rng = np.random.default_rng(N)
    v = rng.uniform(-2, 2, 2 * N + 1)
    v[0::2] = v[0]
    params, psi = RibbonParams(N=N, v=v), FlatBandVector(N, N)
    if served:
        assert verify_flat_eigen(params, psi, N + 2) == 0.0
    else:
        def no_work(*args):
            raise AssertionError("work done before the size check")
        monkeypatch.setattr(lattice, "_bonds", no_work)
        monkeypatch.setattr(FlatBandVector, "row_entries", no_work)
        with pytest.raises(ConfigError, match="N <= 512"):
            verify_flat_eigen(params, psi, N + 2)


def test_verify_flat_eigen_visits_only_the_support_window(monkeypatch):
    # the bonds of cells m-N-1..m+1 inside 0..L-1, however long the section
    seen, real = [], lattice._bonds

    def bonds(N, L, boundary):
        seen.append(L)
        return real(N, L, boundary)

    monkeypatch.setattr(lattice, "_bonds", bonds)
    params = RibbonParams(N=3, v=np.array([0.5, 0, 0.5, 1, 0.5, 2, 0.5]))
    for m, L, cells in ((3, 4, 4), (3, 10**9, 5), (500, 10**9, 6), (10**9 - 1, 10**9, 5)):
        assert verify_flat_eigen(params, FlatBandVector(3, m), L) == 0.0
        assert seen.pop() == cells


def _float_residual(params, psi, L):
    """The residual by the float route: a dense open section times the float
    state.  Exact only while every coefficient is below 2^53."""
    state = np.zeros((L, params.p))
    for k in range(params.N + 1):
        for n, c in psi.row_entries(k):
            state[n, 2 * k] = c
    state = state.ravel()
    H = build_ribbon(params, L, OPEN).toarray()
    return float(np.max(np.abs(H @ state - params.v[0] * state)))


def test_verify_flat_eigen_matches_the_float_route():
    rng = np.random.default_rng(26)
    for N in range(1, 13):
        L = 2 * N + 4
        for _ in range(4):
            psi = FlatBandVector(N, int(rng.integers(N, L)))
            v = rng.uniform(-2, 2, 2 * N + 1)
            params = RibbonParams(N=N, v=v)
            assert verify_flat_eigen(params, psi, L) == pytest.approx(
                _float_residual(params, psi, L), rel=1e-15, abs=0)
            v[0::2] = v[0]
            params = RibbonParams(N=N, v=v)
            assert verify_flat_eigen(params, psi, L) == 0.0
            assert _float_residual(params, psi, L) == 0.0
            # negative control: one odd site raised by 0.1 leaves 0.1 times
            # the largest coefficient of its row
            k = int(rng.integers(1, N + 1))
            v[2 * k] += 0.1
            params = RibbonParams(N=N, v=v)
            bump = 0.1 * math.comb(k, k // 2)
            assert verify_flat_eigen(params, psi, L) == pytest.approx(bump, rel=1e-13)
            assert _float_residual(params, psi, L) == pytest.approx(bump, rel=1e-13)


def test_verify_flat_eigen_flags_violation_with_its_size():
    # bumping one odd site by 0.1 leaves a residual of exactly 0.1 times
    # the largest coefficient on that row
    v = np.array([0.0, 0.0, 0.1, 0.0, 0.0])
    params = RibbonParams(N=2, v=v)
    resid = verify_flat_eigen(params, FlatBandVector(2, 3), 8)
    assert resid == pytest.approx(0.1, abs=1e-15)


def test_verify_flat_eigen_overflow_is_a_numerical_error():
    # the criterion fails and v_3 - v_1 = 2e308 leaves float64 range
    params = RibbonParams(N=1, v=np.array([-1e308, 0.0, 1e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="beyond float64 range"):
            verify_flat_eigen(params, FlatBandVector(1, 1), 3)


def test_flat_band_vector_boundary_clash():
    params = RibbonParams(N=2)
    with pytest.raises(CriterionViolation):
        verify_flat_eigen(params, FlatBandVector(2, 1), 6)  # spills below cell 0
    with pytest.raises(CriterionViolation):
        verify_flat_eigen(RibbonParams(N=1), FlatBandVector(1, 5), 5)  # anchor outside


def test_flat_band_vector_checks_N_and_casts_m():
    with pytest.raises(ConfigError):
        FlatBandVector(0, 0)
    m = FlatBandVector(2, np.int64(3)).m
    assert m == 3 and type(m) is int
