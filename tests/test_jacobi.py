"""Tridiagonal family: the one eigenvalue kernel against the dense rotation
oracle, the closed-form a = 0 blocks, and the zero-potential closed forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonband import (
    ConfigError,
    NumericalError,
    RibbonParams,
    a_of_t,
    bloch_union_spectrum,
    cos_node,
    dense_symmetric_eig,
    eigenvalues,
    eigenvalues_batch,
    sin_node,
    unperturbed_eigenvalue,
)
from ribbonband.jacobi import _offdiagonals, _selected, _tridiagonal_stack


def _dense(v, off):
    """Dense tridiagonal matrix (v, off), built here so the oracle's input
    does not come from the production stack."""
    return np.diag(v) + np.diag(off, 1) + np.diag(off, -1)


def _decoupled_eigenvalues(params):
    """Closed-form spectrum of J_0, a reference for the kernel's a = 0 rows.

    At a = 0 the first site decouples and the rest pairs up as
    [[v_{2k}, 1], [1, v_{2k+1}]], k = 1..N.  The small root mean - hypot
    loses digits to cancellation when the block's diagonal is far from
    balanced, so compare it only on moderate potentials.
    """
    v = params.v
    vals = [v[0]]
    for k in range(1, params.N + 1):
        x, y = v[2 * k - 1], v[2 * k]
        mean, half = 0.5 * x + 0.5 * y, 0.5 * x - 0.5 * y
        r = math.hypot(half, 1.0)
        vals.extend((mean - r, mean + r))
    return np.sort(np.asarray(vals))


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
    # the off-diagonals alternate (a, 1, a, 1, ...), a = 0 included
    np.testing.assert_array_equal(_offdiagonals(5, [1.5]), [[1.5, 1.0, 1.5, 1.0]])
    np.testing.assert_array_equal(_offdiagonals(3, [0.0]), [[0.0, 1.0]])


def test_tridiagonal_stack_layout():
    # one row of p - 1 off-diagonals per a; the kernel's dense matrix has
    # diagonal v and that row on both sides of it
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    off = _offdiagonals(5, [0.7, 0.2])
    np.testing.assert_allclose(off, [[0.7, 1.0, 0.7, 1.0], [0.2, 1.0, 0.2, 1.0]])
    stack = _tridiagonal_stack(v, off)
    assert stack.shape == (2, 5, 5)
    for r in range(2):
        np.testing.assert_array_equal(stack[r], _dense(v, off[r]))


def test_eigenvalues_batch_rejects_a_outside_range():
    # the [0, 2] check on a lives in eigenvalues_batch
    params = RibbonParams(N=1)
    for a in (-0.1, 2.1):
        with pytest.raises(ConfigError):
            eigenvalues_batch(params, [a])


def test_eigenvalues_smallest_case_closed_form():
    np.testing.assert_allclose(
        eigenvalues(RibbonParams(N=1), _offdiagonals(3, [1.0]))[0],
        [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-11
    )


def test_eigenvalues_rejects_offdiagonals_of_wrong_shape():
    params = RibbonParams(N=1)
    for off in ([1.0, 1.0], [[1.0, 1.0, 1.0]], [[1.0]]):
        with pytest.raises(ConfigError):
            eigenvalues(params, off)


def test_eigenvalues_match_dense_oracle():
    rng = np.random.default_rng(5)
    for N in (1, 2, 3):
        for a in (0.0, 0.3, 1.0, 2.0):
            v = rng.uniform(-1.5, 1.5, 2 * N + 1)
            off = _offdiagonals(2 * N + 1, [a])
            np.testing.assert_allclose(
                eigenvalues(RibbonParams(N=N, v=v), off)[0],
                dense_symmetric_eig(_dense(v, off[0])), atol=1e-10
            )


def test_eigenvalues_batch_consistent_with_single_solves():
    params = RibbonParams(N=2, v=np.array([0.2, -0.3, 0.5, 0.1, -0.4]))
    grid = np.linspace(0.0, 2.0, 9)
    batch = eigenvalues_batch(params, grid)
    assert batch.shape == (9, 5)
    for i, a in enumerate(grid):
        np.testing.assert_allclose(
            batch[i], eigenvalues(params, _offdiagonals(5, [a]))[0], atol=1e-11
        )


def test_eigenvalues_batch_rejects_nan():
    for a in ([np.nan], [0.5, np.nan]):
        with pytest.raises(ConfigError):
            eigenvalues_batch(RibbonParams(N=1), a)


def test_eigenvalues_batch_rows_match_single_solves_bitwise():
    # each row is bit for bit the solve of that row alone
    a = np.array([0.0, 0.3, 1.0, 1.7, 2.0, 0.3])
    for v in (np.zeros(5), np.array([0.2, -0.3, 0.5, 0.1, -0.4])):
        params = RibbonParams(N=2, v=v)
        shared = eigenvalues_batch(params, a)
        for r in range(6):
            single = eigenvalues_batch(params, [a[r]])[0]
            np.testing.assert_array_equal(shared[r], single)


@pytest.mark.parametrize("slopes", [False, True])
def test_selected_repeated_a_match_single_solves_bitwise(slopes, monkeypatch):
    # p = 3..11, the dense route: rows that repeat an a, at other or equal
    # indices, give bit for bit what each row solved alone gives; with
    # slopes every distinct a is solved once
    solved = []
    eigh = np.linalg.eigh

    def counting(M):
        solved.append(M.shape[0])
        return eigh(M)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    rng = np.random.default_rng(11)
    for N in range(1, 6):
        params = RibbonParams(N=N, v=rng.uniform(-1.0, 1.0, 2 * N + 1))
        a = np.array([0.3, 0.0, 1.7, 0.3, 2.0, 0.3, 0.0, 1.7, 1.1, 0.3])
        if N == 5:  # 900 distinct a over two dense stacks of 541 matrices
            a = rng.permutation(np.repeat(np.linspace(0.0, 2.0, 900), 2))
        idx = rng.integers(0, params.p, a.size)
        idx[3] = idx[0]
        solved.clear()
        lam, slope = _selected(params, a, idx, slopes=slopes)
        if slopes:
            assert sum(solved) == np.unique(a).size
        for r in range(a.size):
            lam1, slope1 = _selected(params, a[r:r + 1], idx[r:r + 1], slopes=slopes)
            assert lam[r:r + 1].tobytes() == lam1.tobytes()
            if slopes:
                assert slope[r:r + 1].tobytes() == slope1.tobytes()
            else:
                assert slope is slope1 is None


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)), min_size=1, max_size=8),
    st.floats(-4.0, 3.0).map(lambda e: 10.0**e),
    st.integers(0, 2**32 - 1),
)
def test_eigenvalues_batch_matches_rotation_oracle(N, a, scale, seed):
    # every row against the independent Jacobi-rotation solver
    rng = np.random.default_rng(seed)
    params = RibbonParams(N=N, v=scale * rng.uniform(-1.0, 1.0, 2 * N + 1))
    a = np.array(a)
    full = eigenvalues_batch(params, a)
    for r in range(a.size):
        off = _offdiagonals(params.p, [a[r]])[0]
        oracle = dense_symmetric_eig(_dense(params.v, off))
        np.testing.assert_allclose(full[r], oracle, rtol=0,
                                   atol=1e-10 * max(1.0, scale))


def test_eigenvalues_batch_rows_equal_across_stacks(monkeypatch):
    # at N = 5 (p = 11, the widest dense-stack route) a 2001-point scan
    # spans four LAPACK stacks, each at most 2^16 entries; a row's values do
    # not depend on its stack
    stacks = []
    eigvalsh = np.linalg.eigvalsh

    def recording(M):
        stacks.append(M.shape)
        return eigvalsh(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    params = RibbonParams(N=5, v=np.random.default_rng(3).uniform(-1, 1, 11))
    grid = np.linspace(0.0, 2.0, 2001)
    full = eigenvalues_batch(params, grid)
    assert len(stacks) > 2
    assert all(rows * p * q <= 2**16 for rows, p, q in stacks)
    first = stacks[0][0]  # rows first - 1 and first sit in different stacks
    shifted = eigenvalues_batch(params, grid[first - 5:first + 6])
    np.testing.assert_array_equal(shifted, full[first - 5:first + 6])
    for r in (2, first - 1, first, 2000):
        np.testing.assert_array_equal(eigenvalues_batch(params, grid[r])[0], full[r])


def test_eigenvalues_batch_rows_independent_on_tridiagonal_route(monkeypatch):
    # at N = 64 every row is its own dsterf call, with no dense stack; a
    # row's values do not depend on the rows beside it
    def no_stacks(M):
        raise AssertionError("dense stack at p = 129")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_stacks)
    params = RibbonParams(N=64, v=np.random.default_rng(3).uniform(-1, 1, 129))
    grid = np.linspace(0.0, 2.0, 401)
    full = eigenvalues_batch(params, grid)
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
    # on a dense stack (N = 1) and on the dsterf route (N = 16), no warning
    for N in (1, 16):
        for bad in (np.nan, np.inf):
            off = _offdiagonals(2 * N + 1, [1.0])
            off[0, 0] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalError):
                    eigenvalues(RibbonParams(N=N), off)


def test_decoupled_limit_matches_general_path():
    v = np.array([0.3, 1.0, -0.5, 0.2, 0.8])
    params = RibbonParams(N=2, v=v)
    closed = _decoupled_eigenvalues(params)
    # v1 splits off; pairs are mean +- hypot of the 2x2 blocks
    assert 0.3 in closed
    off = _offdiagonals(5, [0.0])
    np.testing.assert_allclose(
        closed, dense_symmetric_eig(_dense(v, off[0])), atol=1e-12,
    )
    np.testing.assert_allclose(eigenvalues(params, off)[0], closed, atol=1e-12)


def test_eigenvalues_respect_actual_offdiagonals():
    # a corrupted off-diagonal must shift the spectrum: no silent rebuild
    # of the ideal pattern from the a label
    params = RibbonParams(N=1)
    off = _offdiagonals(3, [1.0])
    corrupted = off.copy()
    corrupted[0, 0] += 1e-3
    dev = np.max(np.abs(eigenvalues(params, corrupted) - eigenvalues(params, off)))
    assert dev > 1e-4
    np.testing.assert_allclose(
        eigenvalues(params, corrupted)[0],
        dense_symmetric_eig(_dense(params.v, corrupted[0])),
        atol=1e-10,
    )


@pytest.mark.parametrize("L", [3, 6, 7, 12])
def test_bloch_union_equals_batch_over_quasimomenta(L):
    # the union is the rows of eigenvalues_batch at a(2*pi*j/L), bit for bit,
    # at odd L and at even L (where a(pi) is 2*cos(pi/2) ~ 1.2e-16)
    rng = np.random.default_rng(L)
    for N in (1, 3):
        params = RibbonParams(N=N, v=rng.uniform(-1.0, 1.0, 2 * N + 1))
        rows = eigenvalues_batch(params, a_of_t(2.0 * np.pi * np.arange(L) / L))
        np.testing.assert_array_equal(bloch_union_spectrum(params, L),
                                      np.sort(rows.ravel()))


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


def test_eigenvalues_batch_agrees_with_closed_form_three_ribbons():
    grid = np.linspace(0.0, 2.0, 101)
    for N in (1, 2, 3):
        batch = eigenvalues_batch(RibbonParams(N=N), grid)
        for k in range(-N, N + 1):
            np.testing.assert_allclose(
                batch[:, k + N],
                unperturbed_eigenvalue(k, grid, N),
                atol=1e-11,
            )
