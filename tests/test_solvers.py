import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from decoupline.solvers import KKT_RTOL, lstsq, nnls, stacked_lstsq


def test_lstsq_overdetermined_matches_normal_equations():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 4))
    b = rng.standard_normal(20)
    out = lstsq(a, b)
    expect = np.linalg.solve(a.T @ a, a.T @ b)
    assert out.rank == 4
    assert not out.rank_deficient
    assert np.allclose(out.solution, expect, atol=1e-10)


def test_lstsq_flags_rank_deficiency():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((10, 3))
    a = np.hstack([a, a[:, :1]])  # duplicated column
    out = lstsq(a, rng.standard_normal(10))
    assert out.rank == 3
    assert out.rank_deficient


def test_lstsq_picks_minimum_norm_solution():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 5))
    b = rng.standard_normal(2)
    x = lstsq(a, b).solution
    assert np.allclose(a @ x, b, atol=1e-10)
    # any residual-equal solution differs by a null vector, so the min-norm
    # one is orthogonal to the null space: x lies in the row space of a
    null = np.linalg.svd(a)[2][2:]
    assert np.allclose(null @ x, 0.0, atol=1e-10)


def test_lstsq_shape_errors():
    with pytest.raises(ValueError, match="row mismatch"):
        lstsq(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError, match="matrix"):
        lstsq(np.zeros(3), np.zeros(3))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_lstsq_beats_random_candidates(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((12, 4))
    b = rng.standard_normal(12)
    x = lstsq(a, b).solution
    res = np.linalg.norm(a @ x - b)
    cand = x[None, :] + rng.standard_normal((1000, 4))
    cand_res = np.linalg.norm(cand @ a.T - b, axis=1)
    assert np.all(res <= cand_res + 1e-12)


def test_stacked_lstsq_matches_explicit_stack():
    rng = np.random.default_rng(3)
    a1 = rng.standard_normal((10, 3))
    b1 = rng.standard_normal((10, 2))
    a2 = rng.standard_normal((6, 3))
    b2 = rng.standard_normal((6, 2))
    lam = 0.37
    out = stacked_lstsq(a1, b1, a2, b2, lam)
    big_a = np.vstack([a1, np.sqrt(lam) * a2])
    big_b = np.vstack([b1, np.sqrt(lam) * b2])
    expect = np.linalg.lstsq(big_a, big_b, rcond=None)[0]
    assert np.allclose(out.solution, expect, atol=1e-10)


def test_stacked_lstsq_negative_lam():
    for lam in (-0.1, 0.0, np.nan):
        with pytest.raises(ValueError, match="lam must be positive"):
            stacked_lstsq(np.eye(2), np.ones((2, 1)), np.eye(2), np.ones((2, 1)), lam)


def test_stacked_lstsq_column_mismatch():
    with pytest.raises(ValueError, match="column mismatch"):
        stacked_lstsq(np.zeros((3, 2)), np.zeros(3), np.zeros((3, 4)), np.zeros(3), 1.0)


def kkt_satisfied(a, b, x, rtol=KKT_RTOL):
    """Lawson-Hanson optimality: x >= 0, grad <= 0 on active set, ~0 on free."""
    grad = a.T @ (b - a @ x)
    scale = np.linalg.norm(a, axis=0).max(initial=0.0) * np.linalg.norm(b)
    tol = rtol * max(scale, 1e-300)
    if np.any(x < 0):
        return False
    active = x <= 0
    return np.all(grad[active] <= tol) and np.all(np.abs(grad[~active]) <= tol)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 12))
def test_nnls_kkt_conditions(seed, q, p):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, q))
    b = rng.standard_normal(p)
    out = nnls(a, b)
    assert not out.cap_exceeded
    assert np.all(out.solution >= 0)
    assert kkt_satisfied(a, b, out.solution)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_nnls_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((15, 6))
    b = rng.standard_normal(15)
    ours = nnls(a, b).solution
    theirs, _ = scipy.optimize.nnls(a, b)
    # both are exact KKT points of a strictly convex problem
    assert np.allclose(ours, theirs, atol=1e-8)


def test_nnls_unconstrained_optimum_inside_cone():
    # when the plain lstsq solution is positive nnls must return it
    rng = np.random.default_rng(6)
    a = rng.standard_normal((20, 4))
    x_true = rng.uniform(0.5, 2.0, 4)
    b = a @ x_true
    out = nnls(a, b)
    assert np.allclose(out.solution, x_true, atol=1e-10)


def test_nnls_all_negative_gradient_returns_zero():
    a = np.eye(3)
    b = -np.ones(3)
    out = nnls(a, b)
    assert np.array_equal(out.solution, np.zeros(3))
    assert out.iterations == 0


def test_nnls_zero_rhs():
    out = nnls(np.eye(4), np.zeros(4))
    assert np.array_equal(out.solution, np.zeros(4))


def test_nnls_cap_returns_best_feasible():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((30, 10))
    b = rng.standard_normal(30)
    out = nnls(a, b, max_iter=1)
    assert out.cap_exceeded
    assert np.all(out.solution >= 0)
    assert np.linalg.norm(b - a @ out.solution) <= np.linalg.norm(b) + 1e-12


def test_nnls_shape_errors():
    with pytest.raises(ValueError, match="row mismatch"):
        nnls(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError, match="matrix"):
        nnls(np.zeros(3), np.zeros(3))


def test_nnls_rejects_non_finite_inputs():
    with pytest.raises(ValueError, match="non-finite values encountered in lhs"):
        nnls([[np.nan, 1.0], [1.0, 2.0]], [1.0, 2.0])
    with pytest.raises(ValueError, match="non-finite values encountered in lhs"):
        nnls([[np.inf, 1.0], [1.0, 2.0]], [1.0, 2.0])
    with pytest.raises(ValueError, match="non-finite values encountered in rhs"):
        nnls(np.eye(2), [1.0, -np.inf])


def test_nnls_rejects_bad_x0():
    a, b = np.eye(3), np.ones(3)
    with pytest.raises(ValueError, match="x0 has 2 entries, lhs has 3 columns"):
        nnls(a, b, x0=np.ones(2))
    with pytest.raises(ValueError, match="non-finite values encountered in x0"):
        nnls(a, b, x0=[1.0, np.nan, 0.0])
    with pytest.raises(ValueError, match="nonnegative"):
        nnls(a, b, x0=[1.0, -1e-300, 0.0])


def random_x0(rng, q):
    """Nonnegative start with a random support, often the wrong one."""
    return rng.uniform(0.0, 2.0, q) * (rng.random(q) < 0.5)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 12))
def test_nnls_warm_start_kkt_conditions(seed, q, p):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, q))
    b = rng.standard_normal(p)
    x0 = random_x0(rng, q)
    out = nnls(a, b, x0=x0)
    assert not out.cap_exceeded
    assert np.all(out.solution >= 0)
    assert kkt_satisfied(a, b, out.solution)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_nnls_warm_start_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((15, 6))
    b = rng.standard_normal(15)
    ours = nnls(a, b, x0=random_x0(rng, 6)).solution
    theirs, _ = scipy.optimize.nnls(a, b)
    assert np.allclose(ours, theirs, atol=1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_nnls_warm_start_at_the_solution_is_one_solve(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((40, 12))
    b = rng.standard_normal(40)
    cold = nnls(a, b)
    assert 0 < np.count_nonzero(cold.solution) < 12
    warm = nnls(a, b, x0=cold.solution)
    assert warm.iterations == 1
    assert not warm.cap_exceeded
    assert np.array_equal(warm.solution, cold.solution)


def test_nnls_all_zero_x0_is_a_cold_start():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((30, 10))
    b = rng.standard_normal(30)
    cold = nnls(a, b)
    warm = nnls(a, b, x0=np.zeros(10))
    assert warm.iterations == cold.iterations
    assert np.array_equal(warm.solution, cold.solution)


def test_nnls_warm_cap_returns_feasible_iterate_no_worse_than_x0():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((30, 10))
    b = rng.standard_normal(30)
    cold = nnls(a, b).solution
    # a poor start: free exactly where the solution is zero, and far off
    x0 = np.where(cold > 0, 0.0, 5.0)
    out = nnls(a, b, max_iter=1, x0=x0)
    assert out.cap_exceeded
    assert out.iterations == 1
    assert np.all(out.solution >= 0)
    assert np.linalg.norm(b - a @ out.solution) <= np.linalg.norm(b - a @ x0)
    assert np.linalg.norm(b - a @ out.solution) <= np.linalg.norm(b) + 1e-12


def test_nnls_cap_keeps_x0_when_it_beats_every_iterate():
    # zero solves allowed: the best feasible point seen is x0 itself
    a = np.eye(3)
    b = np.array([1.0, 2.0, 3.0])
    x0 = np.array([0.9, 2.1, 0.0])
    out = nnls(a, b, max_iter=0, x0=x0)
    assert out.cap_exceeded
    assert np.array_equal(out.solution, x0)
