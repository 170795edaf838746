"""Ribbon assembly and the compactly supported flat-band vectors."""

import numpy as np
import pytest

from ribbonband import (
    OPEN,
    PERIODIC,
    ConfigError,
    CriterionViolation,
    FlatBandVector,
    RibbonParams,
    build_ribbon,
    verify_flat_eigen,
)
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


def test_flat_band_vector_even_rows_vanish():
    state = FlatBandVector(2, 2).to_state(6)
    assert state.shape == (6, 5)
    # 0-based columns 1, 3 are the even sites of the cross-section
    assert np.all(state[:, 1] == 0)
    assert np.all(state[:, 3] == 0)
    # odd-site support sits in cells m-N..m = 0..2
    assert np.all(state[3:] == 0)
    assert np.any(state[0] != 0)
    assert np.any(state[2] != 0)


def test_verify_flat_eigen_is_exactly_zero():
    rng = np.random.default_rng(11)
    for _ in range(10):
        N = int(rng.integers(1, 5))
        v = rng.uniform(-2, 2, 2 * N + 1)
        v[0::2] = v[0]
        params = RibbonParams(N=N, v=v)
        resid = verify_flat_eigen(params, FlatBandVector(N, N + 1), 2 * N + 4)
        assert resid == 0.0


@pytest.mark.parametrize("N, exact", [(56, True), (57, False), (MAX_N, False)])
def test_verify_flat_eigen_refuses_inexact_coefficients(N, exact):
    # the residual is exactly 0 only while C(N, N//2) <= 2^53; beyond, it
    # is refused before the section is built
    rng = np.random.default_rng(N)
    v = rng.uniform(-2, 2, 2 * N + 1)
    v[0::2] = v[0]
    params, psi = RibbonParams(N=N, v=v), FlatBandVector(N, N)
    if exact:
        assert verify_flat_eigen(params, psi, N + 2) == 0.0
    else:
        with pytest.raises(ConfigError, match="2\\^53"):
            verify_flat_eigen(params, psi, N + 2)


def test_verify_flat_eigen_flags_violation_with_its_size():
    # bumping one odd site by 0.1 leaves a residual of exactly 0.1 times
    # the largest coefficient on that row
    v = np.array([0.0, 0.0, 0.1, 0.0, 0.0])
    params = RibbonParams(N=2, v=v)
    resid = verify_flat_eigen(params, FlatBandVector(2, 3), 8)
    assert resid == pytest.approx(0.1, abs=1e-15)


def test_flat_band_vector_boundary_clash():
    psi = FlatBandVector(2, 1)  # support would spill below cell 0
    with pytest.raises(CriterionViolation):
        psi.to_state(6)
    with pytest.raises(CriterionViolation):
        FlatBandVector(1, 5).to_state(5)  # anchor outside


def test_flat_band_vector_checks_N_and_casts_m():
    with pytest.raises(ConfigError):
        FlatBandVector(0, 0)
    m = FlatBandVector(2, np.int64(3)).m
    assert m == 3 and type(m) is int
