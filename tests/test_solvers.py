import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from decoupline import solvers
from decoupline.decoupling import CmtfConfig, decouple
from decoupline.solvers import KKT_RTOL, NORMAL_KAPPA_MAX, RANK_RCOND, lstsq, nnls, stacked_lstsq
from decoupline.sysgen import builtin_trig, jacobian_tensor, sample_for_system, zeroth_matrix


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
    for lam in (-0.1, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="lam must be positive"):
            stacked_lstsq(np.eye(2), np.ones((2, 1)), np.eye(2), np.ones((2, 1)), lam)


def test_stacked_lstsq_column_mismatch():
    with pytest.raises(ValueError, match="column mismatch"):
        stacked_lstsq(np.zeros((3, 2)), np.zeros(3), np.zeros((3, 4)), np.zeros(3), 1.0)


# systems past the Gram route's size bound (1024 rows or right-hand sides),
# each as (lhs1, rhs1) or (lhs1, rhs1, lhs2, rhs2) for stacked_lstsq
def _large_systems():
    rng = np.random.default_rng(11)
    return {
        "tall": (rng.standard_normal((4000, 3)), rng.standard_normal((4000, 2))),
        "many_rhs": (rng.standard_normal((4, 3)), rng.standard_normal((4, 2000))),
        "wide": (rng.standard_normal((2, 3)), rng.standard_normal((2, 2000))),
        "stacked": (rng.standard_normal((4000, 3)), rng.standard_normal((4000, 2)),
                    rng.standard_normal((2000, 3)), rng.standard_normal((2000, 2))),
        "vector_rhs": (rng.standard_normal((4000, 3)), rng.standard_normal(4000)),
    }


_LAM = 0.37


def _solve(system):
    return stacked_lstsq(*system, _LAM) if len(system) == 4 else lstsq(*system)


def _svd_reference(system):
    """np.linalg.lstsq on the explicit row stack: (solution, rank, rank_deficient)."""
    if len(system) == 4:
        a1, b1, a2, b2 = system
        root = np.sqrt(_LAM)
        system = np.vstack([a1, root * a2]), np.vstack([b1, root * b2])
    x, _, rank, _ = np.linalg.lstsq(*system, rcond=RANK_RCOND)
    return x, int(rank), int(rank) < system[0].shape[1]


@pytest.mark.parametrize("name", sorted(_large_systems()))
def test_gram_route_matches_the_svd_solve(name, lstsq_calls):
    system = _large_systems()[name]
    out = _solve(system)
    assert len(lstsq_calls) == 0
    x, rank, deficient = _svd_reference(system)
    assert out.solution.shape == x.shape
    assert np.abs(out.solution - x).max() <= 1e-10 * np.abs(x).max()
    assert (out.rank, out.rank_deficient) == (rank, deficient)
    if name == "wide":
        # the min-norm solution lies in the row space of lhs
        null = np.linalg.svd(system[0])[2][2:]
        assert np.abs(null @ out.solution).max() <= 1e-10 * np.abs(x).max()


@pytest.mark.parametrize("system", [
    (np.random.default_rng(12).standard_normal((1000, 3)), np.ones((1000, 2))),
    (np.random.default_rng(13).standard_normal((4, 3)), np.ones((4, 1000))),
    (np.random.default_rng(14).standard_normal((2, 3)), np.ones((2, 1000))),
    (np.random.default_rng(15).standard_normal((600, 3)), np.ones((600, 2)),
     np.random.default_rng(16).standard_normal((300, 3)), np.ones((300, 2))),
], ids=["tall", "many_rhs", "wide", "stacked"])
def test_below_the_size_bound_the_solve_is_the_svd_bit_for_bit(system):
    out = _solve(system)
    x, rank, deficient = _svd_reference(system)
    assert np.array_equal(out.solution, x)
    assert (out.rank, out.rank_deficient) == (rank, deficient)


def _with_kappa(kappa, rows=4000):
    """rows x 3 matrix with singular values 1, 0.5 and 1/kappa."""
    rng = np.random.default_rng(17)
    u = np.linalg.qr(rng.standard_normal((rows, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    return (u * [1.0, 0.5, 1.0 / kappa]) @ v.T


def _duplicated_column():
    a = np.random.default_rng(18).standard_normal((4000, 3))
    a[:, 2] = a[:, 0]
    return a


@pytest.mark.parametrize("lhs, calls", [
    (_duplicated_column(), 1),
    (_with_kappa(1.01 * NORMAL_KAPPA_MAX), 1),
    (_with_kappa(0.99 * NORMAL_KAPPA_MAX), 0),
], ids=["duplicated_column", "kappa_over", "kappa_under"])
def test_gate_sends_ill_conditioned_systems_to_the_svd_once(lhs, calls, lstsq_calls):
    rhs = np.random.default_rng(19).standard_normal((lhs.shape[0], 2))
    # the second block divided by sqrt(lam), so that the row stack is lhs
    root = np.sqrt(_LAM)
    for system in ((lhs, rhs), (lhs[:3000], rhs[:3000], lhs[3000:] / root, rhs[3000:] / root)):
        lstsq_calls.clear()
        out = _solve(system)
        assert len(lstsq_calls) == calls
        lstsq_calls.clear()
        x, rank, deficient = _svd_reference(system)
        assert (out.rank, out.rank_deficient) == (rank, deficient)
        if calls:
            assert np.array_equal(out.solution, x)


@pytest.mark.parametrize("name", ["tall", "wide", "stacked"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_lhs_on_the_gram_route_raises_as_the_svd_does(name, bad):
    system = list(_large_systems()[name])
    system[0] = system[0].copy()
    system[0][1, 1] = bad
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        _svd_reference(system)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        _solve(system)


def test_s2000_fit_on_the_gram_route_matches_the_svd_fit(monkeypatch, lstsq_calls):
    # the CLI's defaults on S = 2000 trig samples: every ALS solve is past
    # the size bound
    system = builtin_trig()
    samples = sample_for_system(system, 2000, -1.5, 1.5, 0)
    args = jacobian_tensor(system, samples), zeroth_matrix(system, samples), samples.X
    config = CmtfConfig(rank=3, degree=3, df=16, max_iter=20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, gram = decouple(*args, config)
        assert len(lstsq_calls) == 0
        monkeypatch.setattr(solvers, "_GRAM_MIN_SIZE", np.inf)
        _, svd = decouple(*args, config)
    assert len(lstsq_calls) == 4 * svd.iterations
    assert gram.iterations == svd.iterations == 20
    np.testing.assert_allclose(np.array(gram.history), np.array(svd.history), rtol=1e-9)


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
