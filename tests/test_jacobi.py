"""Tridiagonal family: the LAPACK kernel against the dense rotation oracle,
the decoupled a = 0 blocks, and the zero-potential closed forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonband import (
    ConfigError,
    JacobiMatrix,
    NumericalError,
    RibbonParams,
    a_of_t,
    cos_node,
    dense_symmetric_eig,
    eigenvalues,
    eigenvalues_batch,
    jacobi_matrix,
    sin_node,
    unperturbed_eigenvalue,
)
from ribbonband.jacobi import decoupled_eigenvalues, offdiag_pattern


def test_a_of_t_special_values():
    assert a_of_t(0.0) == 2.0
    assert a_of_t(np.pi) == pytest.approx(0.0, abs=1e-15)
    assert a_of_t(2 * np.pi / 3) == pytest.approx(1.0, rel=1e-15)
    # even and 2*pi-periodic
    t = np.linspace(-2 * np.pi, 2 * np.pi, 41)
    np.testing.assert_allclose(a_of_t(t), a_of_t(-t), atol=1e-15)
    ts = np.linspace(0.0, np.pi, 50)
    assert np.all(np.diff(a_of_t(ts)) < 0)


def test_offdiag_pattern_alternates():
    np.testing.assert_array_equal(
        offdiag_pattern(5, 1.5), [1.5, 1.0, 1.5, 1.0]
    )
    np.testing.assert_array_equal(offdiag_pattern(3, 0.0), [0.0, 1.0])


def test_jacobi_matrix_layout():
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    J = jacobi_matrix(RibbonParams(N=2, v=v), 0.7)
    D = J.dense()
    np.testing.assert_array_equal(np.diag(D), v)
    np.testing.assert_allclose(np.diag(D, 1), [0.7, 1.0, 0.7, 1.0])
    np.testing.assert_array_equal(D, D.T)
    assert J.p == 5


def test_jacobi_matrix_rejects_a_outside_range():
    params = RibbonParams(N=1)
    for a in (-0.1, 2.1):
        with pytest.raises(ConfigError):
            jacobi_matrix(params, a)


def test_eigenvalues_smallest_case_closed_form():
    J = jacobi_matrix(RibbonParams(N=1), 1.0)
    np.testing.assert_allclose(
        eigenvalues(J), [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-11
    )


def test_eigenvalues_match_dense_oracle():
    rng = np.random.default_rng(5)
    for N in (1, 2, 3):
        for a in (0.0, 0.3, 1.0, 2.0):
            v = rng.uniform(-1.5, 1.5, 2 * N + 1)
            J = jacobi_matrix(RibbonParams(N=N, v=v), a)
            np.testing.assert_allclose(
                eigenvalues(J), dense_symmetric_eig(J.dense()), atol=1e-10
            )


def test_eigenvalues_batch_consistent_with_single_solves():
    params = RibbonParams(N=2, v=np.array([0.2, -0.3, 0.5, 0.1, -0.4]))
    grid = np.linspace(0.0, 2.0, 9)
    batch = eigenvalues_batch(params, grid)
    assert batch.shape == (9, 5)
    for i, a in enumerate(grid):
        np.testing.assert_allclose(
            batch[i], eigenvalues(jacobi_matrix(params, a)), atol=1e-11
        )


def test_eigenvalues_batch_index_selection():
    params = RibbonParams(N=2)
    grid = np.linspace(0.0, 2.0, 7)
    full = eigenvalues_batch(params, grid)
    sel = eigenvalues_batch(params, grid, indices=[2])
    np.testing.assert_allclose(sel[:, 0], full[:, 2], atol=1e-12)
    with pytest.raises(ConfigError):
        eigenvalues_batch(params, [2.5])
    with pytest.raises(TypeError):
        eigenvalues_batch(params, grid, [2])  # indices is keyword-only


def test_eigenvalues_batch_rejects_nan():
    for a in ([np.nan], [0.5, np.nan]):
        with pytest.raises(ConfigError):
            eigenvalues_batch(RibbonParams(N=1), a)


def test_eigenvalues_batch_rows_match_single_solves_bitwise():
    # each row, with shared or per-row (2-D) indices, is bit for bit the
    # solve of that row alone; the zero potential has exact multiplicities
    a = np.array([0.0, 0.3, 1.0, 1.7, 2.0, 0.3])
    idx = np.array([0, 4, 2, 1, 3, 3])
    for v in (np.zeros(5), np.array([0.2, -0.3, 0.5, 0.1, -0.4])):
        params = RibbonParams(N=2, v=v)
        shared = eigenvalues_batch(params, a)
        per_row = eigenvalues_batch(params, a, indices=idx[:, None])
        assert per_row.shape == (6, 1)
        for r in range(6):
            single = eigenvalues_batch(params, [a[r]])[0]
            np.testing.assert_array_equal(shared[r], single)
            assert per_row[r, 0] == single[idx[r]]
    with pytest.raises(ConfigError):
        eigenvalues_batch(params, a, indices=idx[:3, None])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)), min_size=1, max_size=8),
    st.floats(-4.0, 3.0).map(lambda e: 10.0**e),
    st.integers(0, 2**32 - 1),
)
def test_eigenvalues_batch_matches_rotation_oracle(N, a, scale, seed):
    # every row against the independent Jacobi-rotation solver; indices,
    # shared or per row, pick bit for bit from the full row
    rng = np.random.default_rng(seed)
    params = RibbonParams(N=N, v=scale * rng.uniform(-1.0, 1.0, 2 * N + 1))
    a = np.array(a)
    full = eigenvalues_batch(params, a)
    for r in range(a.size):
        oracle = dense_symmetric_eig(jacobi_matrix(params, a[r]).dense())
        np.testing.assert_allclose(full[r], oracle, rtol=0,
                                   atol=1e-10 * max(1.0, scale))
    idx = rng.integers(0, params.p, size=(a.size, 3))
    np.testing.assert_array_equal(eigenvalues_batch(params, a, indices=idx),
                                  np.take_along_axis(full, idx, axis=1))
    np.testing.assert_array_equal(eigenvalues_batch(params, a, indices=idx[0]),
                                  full[:, idx[0]])


def test_eigenvalues_batch_rows_equal_across_stacks(monkeypatch):
    # at N = 64 a 401-point scan spans many LAPACK stacks, each at most
    # 2^16 entries; a row's values do not depend on its stack
    stacks = []
    eigvalsh = np.linalg.eigvalsh

    def recording(M):
        stacks.append(M.shape)
        return eigvalsh(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    params = RibbonParams(N=64, v=np.random.default_rng(3).uniform(-1, 1, 129))
    grid = np.linspace(0.0, 2.0, 401)
    full = eigenvalues_batch(params, grid)
    assert len(stacks) > 2
    assert all(rows * p * q <= 2**16 for rows, p, q in stacks)
    shifted = eigenvalues_batch(params, grid[1:12])
    np.testing.assert_array_equal(shifted, full[1:12])
    for r in (2, 3, 4, 400):
        np.testing.assert_array_equal(eigenvalues_batch(params, grid[r])[0], full[r])


@pytest.mark.parametrize("v", [(1e308, 1e308, 1e308), (1e308, -1e308, 1e308),
                               (1.7e308, -1.7e308, 1.7e308)])
def test_eigenvalues_batch_near_float_limit_finite_or_typed(v):
    # potentials near 1e308: finite rows or NumericalError, no warning
    params = RibbonParams(N=1, v=np.array(v))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = eigenvalues_batch(params, np.linspace(0.0, 2.0, 9))
        except NumericalError:
            return
    assert np.all(np.isfinite(rows))


def test_eigenvalues_non_finite_offdiagonal_raises_typed():
    for bad in (np.nan, np.inf):
        J = JacobiMatrix(a=1.0, diag=np.zeros(3), offdiag=np.array([bad, 1.0]))
        with pytest.raises(NumericalError):
            eigenvalues(J)


def test_decoupled_limit_matches_general_path():
    v = np.array([0.3, 1.0, -0.5, 0.2, 0.8])
    params = RibbonParams(N=2, v=v)
    closed = decoupled_eigenvalues(params)
    # v1 splits off; pairs are mean +- hypot of the 2x2 blocks
    assert 0.3 in closed
    np.testing.assert_allclose(
        closed, dense_symmetric_eig(jacobi_matrix(params, 0.0).dense()),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        eigenvalues(jacobi_matrix(params, 0.0)), closed, atol=1e-12
    )


def test_eigenvalues_respect_actual_offdiagonals():
    # a corrupted off-diagonal must shift the spectrum: no silent rebuild
    # of the ideal pattern from the a label
    J = jacobi_matrix(RibbonParams(N=1), 1.0)
    off = J.offdiag.copy()
    off[0] += 1e-3
    corrupted = JacobiMatrix(a=J.a, diag=J.diag, offdiag=off)
    dev = np.max(np.abs(eigenvalues(corrupted) - eigenvalues(J)))
    assert dev > 1e-4
    np.testing.assert_allclose(
        eigenvalues(corrupted),
        dense_symmetric_eig(corrupted.dense()),
        atol=1e-10,
    )


def test_nodes_and_unperturbed_values():
    assert cos_node(1, 1) == pytest.approx(0.0, abs=1e-16)
    assert cos_node(1, 2) == pytest.approx(0.5)
    assert sin_node(1, 2) == pytest.approx(math.sqrt(3) / 2)
    # N=2, a=1: lam_1 = 1, lam_2 = sqrt(3); odd symmetry in k
    assert unperturbed_eigenvalue(1, 1.0, 2) == pytest.approx(1.0)
    assert unperturbed_eigenvalue(2, 1.0, 2) == pytest.approx(math.sqrt(3))
    assert unperturbed_eigenvalue(-2, 1.0, 2) == pytest.approx(-math.sqrt(3))
    assert unperturbed_eigenvalue(0, 1.7, 4) == 0.0
    grid = np.linspace(0, 2, 11)
    np.testing.assert_allclose(
        unperturbed_eigenvalue(1, grid, 2),
        np.sqrt(grid**2 - grid + 1),
        atol=1e-15,
    )
    with pytest.raises(ConfigError):
        unperturbed_eigenvalue(3, 1.0, 2)


def test_bisection_agrees_with_closed_form_three_ribbons():
    grid = np.linspace(0.0, 2.0, 101)
    for N in (1, 2, 3):
        batch = eigenvalues_batch(RibbonParams(N=N), grid)
        for k in range(-N, N + 1):
            np.testing.assert_allclose(
                batch[:, k + N],
                unperturbed_eigenvalue(k, grid, N),
                atol=1e-11,
            )
