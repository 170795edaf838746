"""The dense rotation eigensolver and the two-route spectrum comparison.

These are the oracles everything else is checked against, so they get
validated first, on problems with independently known answers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonband import (
    ConfigError,
    RibbonParams,
    bloch_union_spectrum,
    build_ribbon,
    compare_multisets,
    dense_symmetric_eig,
    periodic_ribbon_spectrum,
)


def test_dense_eig_identity():
    np.testing.assert_allclose(dense_symmetric_eig(np.eye(4)), np.ones(4))


def test_dense_eig_diagonal_is_sorted():
    vals = dense_symmetric_eig(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(vals, [1.0, 2.0, 3.0])


def test_dense_eig_2x2_closed_form():
    # [[a, b], [b, c]] -> mean +- hypot((a-c)/2, b)
    a, b, c = 1.3, -0.7, 0.2
    vals = dense_symmetric_eig(np.array([[a, b], [b, c]]))
    mean, r = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
    np.testing.assert_allclose(vals, [mean - r, mean + r], atol=1e-14)


def test_dense_eig_known_tridiagonal():
    # p=3 chain with unit couplings: {-sqrt(2), 0, sqrt(2)}
    M = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    vals = dense_symmetric_eig(M)
    np.testing.assert_allclose(vals, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-13)


def test_dense_eig_single_entry():
    np.testing.assert_allclose(dense_symmetric_eig(np.array([[4.2]])), [4.2])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_dense_eig_trace_and_det_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    M = rng.uniform(-1.0, 1.0, size=(n, n))
    M = 0.5 * (M + M.T)
    vals = dense_symmetric_eig(M)
    assert np.all(np.diff(vals) >= -1e-12)
    np.testing.assert_allclose(vals.sum(), np.trace(M), atol=1e-10)
    np.testing.assert_allclose(np.prod(vals), np.linalg.det(M), atol=1e-10)


def test_dense_eig_rejects_nonsymmetric():
    M = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ConfigError):
        dense_symmetric_eig(M)


def test_dense_eig_rejects_nonsquare():
    with pytest.raises(ConfigError):
        dense_symmetric_eig(np.zeros((2, 3)))


def test_periodic_vs_bloch_zero_potential():
    for N, L in ((1, 8), (2, 6), (3, 4)):
        params = RibbonParams(N=N)
        rep = compare_multisets(
            periodic_ribbon_spectrum(params, L),
            bloch_union_spectrum(params, L),
            1e-8,
        )
        assert rep.unmatched_count == 0, (N, L, rep)
        assert rep.size == L * params.p


def test_periodic_vs_bloch_random_potential():
    rng = np.random.default_rng(7)
    params = RibbonParams(N=2, v=rng.uniform(-0.5, 0.5, size=5))
    rep = compare_multisets(
        periodic_ribbon_spectrum(params, 7),
        bloch_union_spectrum(params, 7),
        1e-8,
    )
    assert rep.unmatched_count == 0
    assert rep.max_pairwise_deviation <= 1e-8


def test_periodic_spectrum_carries_flat_multiplicity():
    # odd-site potentials all equal -> eigenvalue v1 appears L times
    L = 6
    params = RibbonParams(N=2, v=np.array([0.3, -0.1, 0.3, 0.2, 0.3]))
    vals = periodic_ribbon_spectrum(params, L)
    assert np.sum(np.abs(vals - 0.3) <= 1e-9) == L


def test_periodic_spectrum_validations():
    params = RibbonParams(N=1)
    with pytest.raises(ConfigError):
        periodic_ribbon_spectrum(params, 2)  # periodic ring needs L >= 3
    with pytest.raises(ConfigError):
        periodic_ribbon_spectrum(params, 400)  # dense oracle size cap


def test_bloch_union_size_and_order():
    params = RibbonParams(N=1)
    vals = bloch_union_spectrum(params, 5)
    assert vals.shape == (15,)
    assert np.all(np.diff(vals) >= 0)


def test_compare_multisets_counts_mismatches():
    A = np.array([0.0, 1.0, 2.0])
    tol = 1e-8
    rep = compare_multisets(A, np.array([0.0, 1.0, 2.0 + 2 * tol]), tol)
    assert rep.unmatched_count == 2
    assert rep.max_pairwise_deviation == pytest.approx(2 * tol)

    rep = compare_multisets(A, np.array([0.0, 1.0]), tol)
    assert rep.unmatched_count == 1
    assert rep.size == 2

    rep = compare_multisets(A, A.copy(), tol)
    assert rep.unmatched_count == 0
    assert rep.max_pairwise_deviation == 0.0


def test_compare_multisets_counts_nan_as_unmatched():
    # dev > tol is False for NaN; a NaN pair must not pass as matched
    assert compare_multisets([np.nan], [0.0], 1e-8).unmatched_count == 2
    assert compare_multisets([0.0, 1.0], [0.0, np.nan], 1e-8).unmatched_count == 2


def test_ring_matches_dense_of_built_matrix():
    # sanity: periodic_ribbon_spectrum really is the assembled ring operator
    params = RibbonParams(N=1, v=np.array([0.1, -0.2, 0.3]))
    H = build_ribbon(params, 5, boundary="periodic").toarray()
    np.testing.assert_allclose(
        periodic_ribbon_spectrum(params, 5),
        np.sort(np.linalg.eigvalsh(H)),
        atol=1e-9,
    )
