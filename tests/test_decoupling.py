import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decoupline import decoupling
from decoupline.bspline import (
    Representation,
    augment,
    derivative_design_matrix,
    design_matrix,
    determine_knots,
    integral_design_matrix,
)
from decoupline.decoupling import (
    STALL_SWEEPS,
    Certification,
    CmtfConfig,
    Constraint,
    ProjectionResult,
    SplineFunction,
    _nonneg_stacked,
    bspline_projection,
    certify_monotone,
    decouple,
    leaky_relu_fallback,
    load_model,
    normalize_columns_w0t,
    objective,
    objective_terms,
    predict,
    save_model,
    write_diagnostics,
)
from decoupline.solvers import lstsq, nnls, stacked_lstsq
from decoupline.sysgen import (
    builtin_mono,
    builtin_trig,
    jacobian_tensor,
    sample_for_system,
    sample_uniform,
    zeroth_matrix,
)
from decoupline.tensor3 import Tensor3, frob_norm_sq


def quadratic_fixture(seed=0, n=2, m=2, r=2, s=30):
    """Ground truth whose branches live exactly in the spline space.

    Quadratic branches are inside every degree-2 spline space regardless of
    knots, so a (d=2, df=5) fit admits a zero-residual solution.
    """
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((n, r))
    w0 = rng.standard_normal((r, m))
    w0 /= np.linalg.norm(w0, axis=1, keepdims=True)
    abc = rng.standard_normal((r, 3))
    x = rng.uniform(-1.5, 1.5, (m, s))
    v = w0 @ x
    g = np.stack([a * v[j] ** 2 + b * v[j] + c for j, (a, b, c) in enumerate(abc)])
    dg = np.stack([2 * a * v[j] + b for j, (a, b, _) in enumerate(abc)])
    J = np.empty((n, m, s))
    for s_i in range(s):
        J[:, :, s_i] = w1 @ np.diag(dg[:, s_i]) @ w0
    F = w1 @ g
    return Tensor3(J), F, x


def small_random_problem(seed):
    rng = np.random.default_rng(seed)
    s = 25
    J = Tensor3(rng.standard_normal((3, 2, s)))
    F = rng.standard_normal((3, s))
    x = rng.uniform(-1, 1, (2, s))
    return J, F, x


# config


def test_config_validation_errors():
    good = dict(rank=2, degree=2, df=5)
    with pytest.raises(ValueError, match="rank"):
        CmtfConfig(**{**good, "rank": 0})
    with pytest.raises(ValueError, match="df must exceed degree"):
        CmtfConfig(rank=2, degree=3, df=3)
    with pytest.raises(ValueError, match="lam"):
        CmtfConfig(**good, lam=0.0)
    with pytest.raises(ValueError, match="rel_tol"):
        CmtfConfig(**good, rel_tol=0.0)
    with pytest.raises(ValueError, match="DERIVATIVE"):
        CmtfConfig(**good, constraint=Constraint.MONOTONE_INCREASING,
                   representation=Representation.FUNCTION)


# objective


def test_objective_brute_force():
    rng = np.random.default_rng(0)
    n, m, s, r = 2, 3, 4, 2
    J = Tensor3(rng.standard_normal((n, m, s)))
    F = rng.standard_normal((n, s))
    W1 = rng.standard_normal((n, r))
    W0 = rng.standard_normal((r, m))
    G = rng.standard_normal((s, r))
    R = rng.standard_normal((s, r))
    lam = 0.3
    total = 0.0
    for i in range(n):
        for j in range(m):
            for k in range(s):
                recon = sum(W1[i, q] * W0[q, j] * G[k, q] for q in range(r))
                total += (J.data[i, j, k] - recon) ** 2
    for i in range(n):
        for k in range(s):
            recon = sum(W1[i, q] * R[k, q] for q in range(r))
            total += lam * (F[i, k] - recon) ** 2
    assert objective(J, F, W1, W0, G, R, lam) == pytest.approx(total, rel=1e-12)


def test_objective_zero_w1():
    rng = np.random.default_rng(1)
    J = Tensor3(rng.standard_normal((2, 2, 3)))
    F = rng.standard_normal((2, 3))
    lam = 0.7
    val = objective(J, F, np.zeros((2, 2)), np.ones((2, 2)), np.ones((3, 2)),
                    np.ones((3, 2)), lam)
    assert val == pytest.approx(frob_norm_sq(J) + lam * frob_norm_sq(F), rel=1e-12)


# normalization


def test_normalize_three_four_five():
    w0 = np.array([[3.0, 4.0]])
    w1 = np.array([[1.0], [2.0]])
    w0n, w1n = normalize_columns_w0t(w0, w1)
    assert np.allclose(w0n, [[0.6, 0.8]])
    assert np.allclose(w1n, [[5.0], [10.0]])


def test_normalize_idempotent_on_unit_rows():
    rng = np.random.default_rng(2)
    w0 = rng.standard_normal((3, 4))
    w0 /= np.linalg.norm(w0, axis=1, keepdims=True)
    w1 = rng.standard_normal((2, 3))
    w0n, w1n = normalize_columns_w0t(w0, w1)
    assert np.allclose(w0n, w0, atol=1e-15)
    assert np.allclose(w1n, w1, atol=1e-15)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_normalize_preserves_reconstruction(seed):
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((3, 3))
    w0 = rng.standard_normal((3, 3))
    g = rng.standard_normal((6, 3))
    before = np.einsum("ir,jr,kr->ijk", w1, w0.T, g)
    w0n, w1n = normalize_columns_w0t(w0, w1)
    after = np.einsum("ir,jr,kr->ijk", w1n, w0n.T, g)
    assert np.allclose(before, after, atol=1e-12 * max(1.0, np.abs(before).max()))
    assert np.allclose(np.linalg.norm(w0n, axis=1), 1.0, atol=1e-12)


def test_normalize_warns_on_zero_row():
    w0 = np.array([[0.0, 0.0], [1.0, 2.0]])
    w1 = np.ones((2, 2))
    with pytest.warns(UserWarning, match="zero column"):
        w0n, w1n = normalize_columns_w0t(w0, w1)
    assert np.array_equal(w0n[0], [0.0, 0.0])
    assert np.array_equal(w1n[:, 0], [1.0, 1.0])


# projection


def test_projection_columns_live_in_spline_span():
    rng = np.random.default_rng(3)
    s, r = 40, 2
    G = rng.standard_normal((s, r))
    R = rng.standard_normal((s, r))
    x = rng.uniform(-2, 2, (r, s))
    out = bspline_projection(G, R, 6, 3, x, 0.1, Representation.FUNCTION,
                             Constraint.NONE)
    for j in range(r):
        c = out.coeffs[j]
        assert c.shape == (7,)
        basis = determine_knots(x[j], 6, 3)
        assert np.array_equal(out.bases[j].knots, basis.knots)
        assert np.allclose(out.R[:, j], c[0] + design_matrix(basis, x[j]) @ c[1:],
                           atol=1e-10)
    assert not any(out.fallback)


def test_projection_does_not_mutate_inputs():
    rng = np.random.default_rng(4)
    G = rng.standard_normal((30, 2))
    R = rng.standard_normal((30, 2))
    g_copy, r_copy = G.copy(), R.copy()
    x = rng.uniform(-1, 1, (2, 30))
    bspline_projection(G, R, 5, 2, x, 0.1, Representation.FUNCTION, Constraint.NONE)
    assert np.array_equal(G, g_copy)
    assert np.array_equal(R, r_copy)


def test_projection_is_optimal_for_the_stacked_objective():
    rng = np.random.default_rng(5)
    s = 50
    G = rng.standard_normal((s, 1))
    R = rng.standard_normal((s, 1))
    x = rng.uniform(-1, 1, (1, s))
    lam = 0.25
    out = bspline_projection(G, R, 6, 3, x, lam, Representation.FUNCTION,
                             Constraint.NONE)

    def stacked_cost(g_fit, r_fit):
        return np.sum((G[:, 0] - g_fit) ** 2) + lam * np.sum((R[:, 0] - r_fit) ** 2)

    base = stacked_cost(out.G[:, 0], out.R[:, 0])
    basis = out.bases[0]
    b_mat = augment(derivative_design_matrix(basis, x[0]), "zeros")
    btil = augment(design_matrix(basis, x[0]), "ones")
    for _ in range(200):
        c = out.coeffs[0] + rng.standard_normal(7) * 0.1
        assert stacked_cost(b_mat @ c, btil @ c) >= base - 1e-9


def test_projection_constrained_coeffs_nonnegative():
    rng = np.random.default_rng(6)
    s = 40
    G = np.abs(rng.standard_normal((s, 2)))
    R = rng.standard_normal((s, 2))
    x = rng.uniform(-1, 1, (2, s))
    out = bspline_projection(G, R, 6, 4, x, 0.1, Representation.DERIVATIVE,
                             Constraint.MONOTONE_INCREASING)
    for j in range(2):
        if not out.fallback[j]:
            assert np.all(out.coeffs[j][1:] >= 0)
            assert np.all(out.G[:, j] >= -1e-12)


def test_projection_fallback_on_hopeless_branch():
    # a strongly decreasing derivative target drives every NNLS coefficient
    # to zero, which must trigger the leaky ReLU replacement
    s = 60
    x = np.linspace(-1, 1, s)[None, :]
    G = -np.ones((s, 1)) - x.T ** 2
    R = -x.T
    out = bspline_projection(G, R, 6, 4, x, 1e-9, Representation.DERIVATIVE,
                             Constraint.MONOTONE_INCREASING)
    assert out.fallback[0]
    assert out.coeffs[0] is None
    g_expect, r_expect = leaky_relu_fallback(x[0])
    assert np.array_equal(out.G[:, 0], g_expect)
    assert np.array_equal(out.R[:, 0], r_expect)


def test_projection_handles_collapsed_input_row():
    # a dead rank-one component drives its W0 row to exact zero; the
    # projection must fit the best constant branch instead of crashing
    rng = np.random.default_rng(30)
    s = 40
    G = rng.standard_normal((s, 2))
    R = rng.standard_normal((s, 2))
    x = np.vstack([rng.uniform(-1, 1, s), np.zeros(s)])
    for constraint, rep in (
        (Constraint.MONOTONE_INCREASING, Representation.DERIVATIVE),
        (Constraint.NONE, Representation.FUNCTION),
    ):
        out = bspline_projection(G, R, 6, 4, x, 0.1, rep, constraint)
        assert not out.fallback[1]
        assert np.all(out.G[:, 1] == 0.0)
        assert np.allclose(out.R[:, 1], R[:, 1].mean(), atol=1e-15)
        c = out.coeffs[1]
        assert c[0] == pytest.approx(R[:, 1].mean())
        assert np.all(c[1:] == 0)
        # the stored basis spans the constant input, so branch evaluation
        # at the collapsed point reproduces the projected value
        fn = SplineFunction(out.bases[1], c, rep)
        assert fn.value(np.zeros(3)) == pytest.approx(R[:, 1].mean())
        # the healthy branch is untouched by the degenerate one
        basis = determine_knots(x[0], 6, 4 if rep is Representation.FUNCTION else 3)
        assert np.array_equal(out.bases[0].knots, basis.knots)


def test_leaky_relu_fallback_values():
    u = np.array([-2.0, 0.0, 3.0])
    g, r = leaky_relu_fallback(u)
    assert np.allclose(g, [1.0, 0.0, 3.0])
    assert np.allclose(r, [-1.0, 0.0, 4.5])
    assert np.all(g >= 0)
    # r is the antiderivative of g, so it must be nondecreasing in u
    order = np.argsort(u)
    assert np.all(np.diff(r[order]) >= 0)


# projection against a per-branch reference


def reference_projection(G, R, df, degree, x_samples, lam, representation, constraint,
                         warm=None):
    """bspline_projection one branch at a time from the public 1-D functions."""
    G = np.array(G, dtype=float)
    R = np.array(R, dtype=float)
    x_samples = np.asarray(x_samples, dtype=float)
    basis_degree = degree if representation is Representation.FUNCTION else degree - 1
    coeffs, knots, fallback = [], [], []
    for j in range(G.shape[1]):
        u = x_samples[j]
        width, peak = np.ptp(u), np.abs(u).max()
        if width == 0 or width <= 1e-13 * peak or peak < 1e-200:
            spread = np.linspace(u[0] - 1.0, u[0] + 1.0, df + basis_degree + 2)
            knots.append(determine_knots(spread, df, basis_degree).knots)
            c = np.zeros(df + 1)
            c[0] = float(R[:, j].mean())
            G[:, j] = 0.0
            R[:, j] = c[0]
            coeffs.append(c)
            fallback.append(False)
            continue
        basis = determine_knots(u, df, basis_degree)
        knots.append(basis.knots)
        if representation is Representation.FUNCTION:
            b_mat = augment(derivative_design_matrix(basis, u), "zeros")
            btil = augment(design_matrix(basis, u), "ones")
        else:
            b_mat = augment(design_matrix(basis, u), "zeros")
            btil = augment(integral_design_matrix(basis, u), "ones")
        if constraint is Constraint.NONE:
            c = stacked_lstsq(b_mat, G[:, [j]], btil, R[:, [j]], lam).solution.ravel()
        else:
            root = np.sqrt(lam)
            c = _nonneg_stacked(np.vstack([b_mat, root * btil]),
                                np.concatenate([G[:, j], root * R[:, j]]),
                                None if warm is None else warm[j])
            if np.all(c[1:] == 0):
                G[:, j], R[:, j] = leaky_relu_fallback(u)
                coeffs.append(None)
                fallback.append(True)
                continue
        G[:, j] = b_mat @ c
        R[:, j] = btil @ c
        coeffs.append(c)
        fallback.append(False)
    return ProjectionResult(
        G=G, R=R, coeffs=tuple(coeffs), knots=np.array(knots), degree=basis_degree,
        fallback=tuple(fallback),
    )


def assert_same_projection(got, want):
    assert np.array_equal(got.G, want.G)
    assert np.array_equal(got.R, want.R)
    assert np.array_equal(got.knots, want.knots)
    assert got.fallback == want.fallback
    assert len(got.coeffs) == len(want.coeffs)
    for a, b in zip(got.coeffs, want.coeffs):
        assert (a is None and b is None) or np.array_equal(a, b)


def _close(got, want, rtol=1e-10):
    return np.abs(got - want).max() <= rtol * np.abs(want).max()


def assert_same_function_projection(got, want, dense=()):
    """FUNCTION/NONE projections against the reference, whose min-norm SVD
    spreads the free constant over c0 and c[1:] where the normal-equation
    solve puts c0 = 0. Since the basis sums to one, c0 + c[1:] is the
    function either way: it, G and R are compared to 1e-10 relative, knots
    and fallback flags exactly. Branches listed in dense take the lstsq
    path in both and are compared exactly."""
    assert np.array_equal(got.knots, want.knots)
    assert got.fallback == want.fallback
    for j, (a, b) in enumerate(zip(got.coeffs, want.coeffs, strict=True)):
        if j in dense:
            assert np.array_equal(a, b)
            assert np.array_equal(got.G[:, j], want.G[:, j])
            assert np.array_equal(got.R[:, j], want.R[:, j])
        else:
            assert _close(a[1:] + a[0], b[1:] + b[0])
            assert _close(got.G[:, j], want.G[:, j])
            assert _close(got.R[:, j], want.R[:, j])


def assert_matches_reference(got, want, rep, constraint):
    if rep is Representation.FUNCTION and constraint is Constraint.NONE:
        assert_same_function_projection(got, want)
    else:
        assert_same_projection(got, want)


def both_projections(*args):
    """Run the projection and the reference; also compare their warnings."""
    runs = []
    for fn in (bspline_projection, reference_projection):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs.append((fn(*args), [str(w.message) for w in caught]))
    (got, got_warnings), (want, want_warnings) = runs
    assert sorted(got_warnings) == sorted(want_warnings)
    return got, want, got_warnings


REP_CONSTRAINT = [
    (Representation.FUNCTION, Constraint.NONE),
    (Representation.DERIVATIVE, Constraint.NONE),
    (Representation.DERIVATIVE, Constraint.MONOTONE_INCREASING),
]


@pytest.mark.parametrize("s", [40, 2000])
@pytest.mark.parametrize("rep,constraint", REP_CONSTRAINT)
def test_projection_equals_per_branch_reference(s, rep, constraint):
    rng = np.random.default_rng(s)
    G = rng.standard_normal((s, 3)) + 0.5
    R = rng.standard_normal((s, 3))
    x = rng.uniform(-2, 2, (3, s)) * [[1.0], [0.1], [3.0]]
    got, want, _ = both_projections(G, R, 10, 4, x, 0.1, rep, constraint)
    assert_matches_reference(got, want, rep, constraint)


@pytest.mark.parametrize("rep,constraint", REP_CONSTRAINT)
def test_projection_reference_collapsed_row(rep, constraint):
    rng = np.random.default_rng(31)
    s = 40
    G = rng.standard_normal((s, 3))
    R = rng.standard_normal((s, 3))
    x = np.vstack([rng.uniform(-1, 1, s), np.full(s, 0.7), np.zeros(s)])
    got, want, _ = both_projections(G, R, 6, 4, x, 0.1, rep, constraint)
    assert_matches_reference(got, want, rep, constraint)


@pytest.mark.parametrize("rep", [Representation.DERIVATIVE])
def test_projection_warm_start_is_bit_identical(rep):
    rng = np.random.default_rng(33)
    s = 40
    G = rng.standard_normal((s, 3)) + 0.5
    R = rng.standard_normal((s, 3))
    x = rng.uniform(-2, 2, (3, s))
    args = (G, R, 10, 4, x, 0.1, rep, Constraint.MONOTONE_INCREASING)
    cold = bspline_projection(*args)
    # a nearby sweep's coefficients, and entries that must start cold
    other = bspline_projection(G + 0.3 * rng.standard_normal((s, 3)), R, *args[2:])
    starts = [cold.coeffs, other.coeffs, (None, np.zeros(11), other.coeffs[2])]
    for warm in starts:
        assert_same_projection(bspline_projection(*args, warm=warm), cold)
        assert_same_projection(reference_projection(*args, warm=warm), cold)


def test_projection_reference_leaky_relu_fallback():
    s = 60
    u = np.linspace(-1, 1, s)
    x = np.vstack([u, u[::-1] * 0.5])
    G = np.column_stack([-np.ones(s) - u**2, np.ones(s)])
    R = np.column_stack([-u, u])
    got, want, _ = both_projections(G, R, 6, 4, x, 1e-9, Representation.DERIVATIVE,
                                    Constraint.MONOTONE_INCREASING)
    assert got.fallback == (True, False)
    assert_same_projection(got, want)


@pytest.mark.parametrize("constraint", [Constraint.NONE, Constraint.MONOTONE_INCREASING])
def test_projection_reference_derivative_degree_one(constraint):
    # basis degree 0: the derivative level is a step function
    rng = np.random.default_rng(32)
    s = 40
    G = np.abs(rng.standard_normal((s, 2)))
    R = rng.standard_normal((s, 2))
    x = rng.uniform(-1, 1, (2, s))
    got, want, _ = both_projections(G, R, 5, 1, x, 0.1, Representation.DERIVATIVE, constraint)
    assert got.bases[0].degree == 0
    assert_same_projection(got, want)


@pytest.mark.parametrize("rep,constraint", REP_CONSTRAINT)
def test_projection_reference_no_interior_knots(rep, constraint):
    rng = np.random.default_rng(33)
    s = 40
    G = rng.standard_normal((s, 2))
    R = rng.standard_normal((s, 2))
    x = rng.uniform(-1, 1, (2, s))
    df = 3 + 1 if rep is Representation.FUNCTION else 3
    got, want, _ = both_projections(G, R, df, 3, x, 0.1, rep, constraint)
    assert got.knots.shape[1] == 2 * (got.degree + 1)
    assert_matches_reference(got, want, rep, constraint)


def test_projection_reference_lam_edges():
    rng = np.random.default_rng(35)
    s = 40
    G = rng.standard_normal((s, 2))
    R = rng.standard_normal((s, 2))
    x = rng.uniform(-1, 1, (2, s))
    with pytest.raises(ValueError, match="lam must be positive"):
        bspline_projection(G, R, 6, 3, x, -0.1, Representation.FUNCTION, Constraint.NONE)


def test_projection_rejects_inputs_no_fit_sends():
    # CmtfConfig rejects lam <= 0 and MONOTONE_INCREASING under FUNCTION, so
    # no fit sends them; the projection rejects them with the same messages
    rng = np.random.default_rng(36)
    s = 40
    G = rng.standard_normal((s, 2))
    R = rng.standard_normal((s, 2))
    x = rng.uniform(-1, 1, (2, s))
    for rep, constraint in REP_CONSTRAINT:
        for lam in (0.0, np.nan):
            with pytest.raises(ValueError, match="lam must be positive"):
                bspline_projection(G, R, 6, 3, x, lam, rep, constraint)
    with pytest.raises(ValueError, match="requires the DERIVATIVE representation"):
        bspline_projection(G, R, 6, 3, x, 0.1, Representation.FUNCTION,
                           Constraint.MONOTONE_INCREASING)


def test_projection_warns_once_per_crowded_branch():
    rng = np.random.default_rng(34)
    s = 100
    crowded = np.concatenate([np.zeros(94), [0.1, 0.2, 0.3, 0.5, 0.9, 1.0]])
    x = np.vstack([crowded, rng.uniform(-1, 1, s), crowded[::-1] - 3.0])
    G = rng.standard_normal((s, 3))
    R = rng.standard_normal((s, 3))
    got, want, messages = both_projections(G, R, 6, 3, x, 0.1, Representation.FUNCTION,
                                           Constraint.NONE)
    knot_warnings = [m for m in messages if m.startswith("coincident interior knots")]
    assert len(knot_warnings) == 2
    # the crowded branches leave a basis function without samples, so their
    # normal matrices are singular and they take the dense lstsq path
    assert_same_function_projection(got, want, dense=(0, 2))


def _counting_lstsq(monkeypatch):
    calls = []
    dense = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(1)
        return dense(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


def test_function_projection_solves_well_conditioned_branches_without_lstsq(monkeypatch):
    # every projection of the first 30 sweeps of a trig fit (seed 1, df 16)
    trace = []
    system = builtin_trig()
    samples = sample_uniform(2, 100, -1.5, 1.5, 1)
    cfg = CmtfConfig(rank=3, degree=3, df=16, lam=0.01, seed=1, max_iter=30, rel_tol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        decouple(jacobian_tensor(system, samples.X), zeroth_matrix(system, samples.X),
                 samples.X, cfg, trace=trace)
    inputs = [(rec["proj_g_before"], rec["proj_r_before"], 16, 3, rec["x"], 0.01) for rec in trace]
    # and the S = 2000 reference case
    rng = np.random.default_rng(2000)
    G = rng.standard_normal((2000, 3)) + 0.5
    R = rng.standard_normal((2000, 3))
    x = rng.uniform(-2, 2, (3, 2000)) * [[1.0], [0.1], [3.0]]
    inputs.append((G, R, 10, 4, x, 0.1))
    calls = _counting_lstsq(monkeypatch)
    for args in inputs:
        out = bspline_projection(*args, Representation.FUNCTION, Constraint.NONE)
        assert all(c[0] == 0.0 for c in out.coeffs)
    assert len(inputs) == 31
    assert len(calls) == 0


def test_function_projection_falls_back_to_lstsq_per_ill_conditioned_branch(monkeypatch):
    rng = np.random.default_rng(34)
    s = 100
    crowded = np.concatenate([np.zeros(94), [0.1, 0.2, 0.3, 0.5, 0.9, 1.0]])
    x = np.vstack([crowded, rng.uniform(-1, 1, s), crowded[::-1] - 3.0])
    G = rng.standard_normal((s, 3))
    R = rng.standard_normal((s, 3))
    calls = _counting_lstsq(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bspline_projection(G, R, 6, 3, x, 0.1, Representation.FUNCTION, Constraint.NONE)
    assert len(calls) == 2
    # a tiny lam leaves B^T B + lam Btil^T Btil positive definite, but
    # nearly singular along the constant: kappa(A) near 1e6
    x = rng.uniform(-1, 1, (2, s))
    calls.clear()
    bspline_projection(G[:, 1:], R[:, 1:], 6, 3, x, 1e-12, Representation.FUNCTION, Constraint.NONE)
    assert len(calls) == 2
    # kappa(A) is 1.66e4 and 2.19e4 here, while the Cholesky pivots' ratio
    # reads 5.2e3 and 6.1e3: the eigenvalue gate sends both branches to lstsq
    calls.clear()
    bspline_projection(G[:, 1:], R[:, 1:], 6, 3, x, 4e-8, Representation.FUNCTION, Constraint.NONE)
    assert len(calls) == 2
    calls.clear()
    bspline_projection(G[:, 1:], R[:, 1:], 6, 3, x, 1e-2, Representation.FUNCTION, Constraint.NONE)
    assert len(calls) == 0
    # a first interior knot 1e-160 right of the boundary makes a derivative
    # weight of 3e160, whose square overflows the normal matrix to inf
    x[0] = np.concatenate([np.zeros(10), np.full(30, 1e-160), rng.uniform(0.5, 1, s - 40)])
    calls.clear()
    # the gate expects that overflow, so numpy's RuntimeWarning about it must
    # not reach the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = bspline_projection(G[:, 1:], R[:, 1:], 6, 3, x, 0.1, Representation.FUNCTION,
                                 Constraint.NONE)
    assert len(calls) == 1
    assert np.all(np.isfinite(out.G)) and np.all(np.isfinite(out.R))


# the ALS loop


def test_single_sweep_w1_matches_replayed_update():
    rng = np.random.default_rng(7)
    s = 10
    J = Tensor3(rng.standard_normal((2, 2, s)))
    F = rng.standard_normal((2, s))
    x = rng.uniform(-1, 1, (2, s))
    cfg = CmtfConfig(rank=2, degree=2, df=4, seed=123, max_iter=1, lam=0.1)
    trace = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        decouple(J, F, x, cfg, trace=trace)
    # replay the first W1 update from the recorded initial state
    from decoupline.tensor3 import khatri_rao, unfold

    rng2 = np.random.default_rng(123)
    W0 = rng2.standard_normal((2, 2))
    G = rng2.standard_normal((s, 2))
    R = rng2.standard_normal((s, 2))
    expect = stacked_lstsq(khatri_rao(G, W0.T), unfold(J, 1).T, R, F.T, 0.1).solution.T
    assert np.allclose(trace[0]["w1"], expect, atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_substeps_never_increase_their_objectives(seed):
    J, F, x = small_random_problem(seed)
    cfg = CmtfConfig(rank=2, degree=2, df=5, seed=seed, max_iter=3, lam=0.1)
    trace = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        decouple(J, F, x, cfg, trace=trace)
    for rec in trace:
        assert rec["w1_after"] <= rec["w1_before"] + 1e-9
        assert rec["w0_after"] <= rec["w0_before"] + 1e-9
        assert rec["g_after"] <= rec["g_before"] + 1e-9
        assert rec["r_after"] <= rec["r_before"] + 1e-9
        # projection: fitted coefficients beat the pre-projection columns
        # on the stacked objective by construction; spot-check via cost
        proj = rec["projection"]
        g_pre, r_pre = rec["proj_g_before"], rec["proj_r_before"]
        lam = rec["lam"]
        for j in range(2):
            if proj.fallback[j]:
                continue
            cost_after = (np.sum((g_pre[:, j] - proj.G[:, j]) ** 2)
                          + lam * np.sum((r_pre[:, j] - proj.R[:, j]) ** 2))
            # c = 0 reproduces the zero spline, so the optimum is bounded by it
            cost_zero = np.sum(g_pre[:, j] ** 2) + lam * np.sum(r_pre[:, j] ** 2)
            assert cost_after <= cost_zero + 1e-9


def test_exact_structure_reaches_zero_objective():
    J, F, x = quadratic_fixture(seed=11)
    cfg = CmtfConfig(rank=2, degree=2, df=5, seed=0, max_iter=50, rel_tol=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, state = decouple(J, F, x, cfg)
    assert state.history[-1][0] < 1e-10 * frob_norm_sq(J)
    assert state.iterations <= 50


def test_histories_are_bit_identical_across_runs():
    J, F, x = small_random_problem(42)
    cfg = CmtfConfig(rank=2, degree=2, df=5, seed=9, max_iter=6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, s1 = decouple(J, F, x, cfg)
        _, s2 = decouple(J, F, x, cfg)
    assert s1.history == s2.history


def test_scaling_equivariance():
    J, F, x = small_random_problem(5)
    cfg = CmtfConfig(rank=2, degree=2, df=5, seed=3, max_iter=5)
    alpha = 3.7
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, s1 = decouple(J, F, x, cfg)
        _, s2 = decouple(Tensor3(alpha * J.data), alpha * F, x, cfg)
    h1 = np.array(s1.history)
    h2 = np.array(s2.history)
    assert np.allclose(h2, alpha**2 * h1, rtol=1e-9)


def test_objective_history_finite_and_nonnegative():
    J, F, x = small_random_problem(8)
    cfg = CmtfConfig(rank=2, degree=2, df=5, seed=1, max_iter=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, state = decouple(J, F, x, cfg)
    h = np.array(state.history)
    assert np.all(np.isfinite(h))
    assert np.all(h >= 0)


def test_non_finite_input_aborts():
    J, F, x = small_random_problem(2)
    bad = J.data.copy()
    bad[0, 0, 0] = np.nan
    cfg = CmtfConfig(rank=2, degree=2, df=5, seed=0, max_iter=3)
    with pytest.raises(ValueError, match="non-finite"):
        decouple(Tensor3(bad), F, x, cfg)
    bad_f = F.copy()
    bad_f[1, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        decouple(J, bad_f, x, cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2e60, -2e60])
def test_divergence_check_raises(bad):
    arr = np.zeros((3, 2))
    arr[1, 1] = bad
    with pytest.raises(RuntimeError, match="fit diverged at iteration 4: W0 is non-finite or overflowing."):
        decoupling._check_diverged("W0", arr, 4)


@pytest.mark.parametrize("edge", [0.0, 1e60, -1e60])
def test_divergence_check_passes_up_to_the_cap(edge):
    arr = np.ones((3, 2))
    arr[2, 0] = edge
    decoupling._check_diverged("W0", arr, 4)


def test_dimension_mismatches_rejected():
    J, F, x = small_random_problem(3)
    cfg = CmtfConfig(rank=2, degree=2, df=5)
    with pytest.raises(ValueError, match="F must be"):
        decouple(J, F[:, :-1], x, cfg)
    with pytest.raises(ValueError, match="samples must be"):
        decouple(J, F, x[:, :-1], cfg)
    with pytest.raises(ValueError, match="samples"):
        decouple(Tensor3(J.data[:, :, :5]), F[:, :5], x[:, :5],
                 CmtfConfig(rank=2, degree=2, df=5))


def test_wide_w1_r_update_does_not_warn():
    # W1 is 2 x 3 here, so the min-norm R solve is underdetermined by design
    sys = builtin_trig()
    samples = sample_uniform(2, 100, -1.5, 1.5, 0)
    J = jacobian_tensor(sys, samples.X)
    F = zeroth_matrix(sys, samples.X)
    cfg = CmtfConfig(rank=3, degree=3, df=16, lam=0.01, seed=0, max_iter=5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, state = decouple(J, F, samples.X, cfg)
    assert not [w for w in caught if "R update" in str(w.message)]
    # the solver still reports the system as rank-deficient
    assert lstsq(state.W1, F).rank_deficient


def test_rank_deficient_square_w1_still_warns():
    # two identical outputs make both rows of the square W1 equal
    sys = builtin_trig()
    samples = sample_uniform(2, 60, -1.5, 1.5, 0)
    J = jacobian_tensor(sys, samples.X).data
    F = zeroth_matrix(sys, samples.X)
    cfg = CmtfConfig(rank=2, degree=3, df=6, seed=0, max_iter=3)
    with pytest.warns(UserWarning, match="rank-deficient system in R update"):
        _, state = decouple(Tensor3(J[[0, 0]]), F[[0, 0]], samples.X, cfg)
    assert state.W1.shape == (2, 2)
    assert lstsq(state.W1, F[[0, 0]]).rank == 1


# stopping rules


def _trig_fit(**overrides):
    sys = builtin_trig()
    samples = sample_uniform(2, 100, -1.5, 1.5, 1)
    J = jacobian_tensor(sys, samples.X)
    F = zeroth_matrix(sys, samples.X)
    settings = dict(rank=3, degree=3, df=16, lam=0.01, seed=1, max_iter=800, rel_tol=1e-12)
    cfg = CmtfConfig(**{**settings, **overrides})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, state = decouple(J, F, samples.X, cfg)
    return cfg, model, state


@pytest.fixture(scope="module")
def stalled_trig_fit():
    return _trig_fit()


def test_trig_fit_stops_when_best_objective_stalls(stalled_trig_fit):
    cfg, _, state = stalled_trig_fit
    n = state.iterations
    assert state.stop_reason == "stalled"
    assert STALL_SWEEPS < n < cfg.max_iter
    h = np.array(state.history)[:, 0]
    best = np.minimum.accumulate(h)
    # drops[i]: sweep i + 2 lowered the best by more than rel_tol * best
    drops = best[:-1] - best[1:] > cfg.rel_tol * best[:-1]
    assert not drops[-STALL_SWEEPS:].any()
    assert drops[-STALL_SWEEPS - 1]


def test_stalled_fit_equals_the_budget_run_of_the_same_length(stalled_trig_fit):
    _, model_a, state_a = stalled_trig_fit
    _, model_b, state_b = _trig_fit(max_iter=state_a.iterations)
    assert state_b.stop_reason == "budget"
    assert state_b.iterations == state_a.iterations
    assert np.array_equal(np.array(state_a.history), np.array(state_b.history))
    for name in ("W1", "W0", "G", "R"):
        assert np.array_equal(getattr(state_a, name), getattr(state_b, name))
    assert np.array_equal(model_a.W1, model_b.W1) and np.array_equal(model_a.W0, model_b.W0)
    for a, b in zip(model_a.branches, model_b.branches):
        assert np.array_equal(a.basis.knots, b.basis.knots)
        assert np.array_equal(a.coeffs, b.coeffs)


def test_one_step_test_still_stops_first(quadratic_system):
    J, F, x = quadratic_system
    cfg = CmtfConfig(rank=2, degree=2, df=5, lam=1.0, seed=2, rel_tol=0.03)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, state = decouple(J, F, x, cfg)
    # the stall rule neither pre-empts nor delays the one-step test: the fit
    # ends on the first sweep whose one-step change is within rel_tol
    assert (state.iterations, state.stop_reason) == (14, "converged")
    h = np.array(state.history)[:, 0]
    fired = np.abs(np.diff(h)) <= cfg.rel_tol * h[:-1]
    assert np.flatnonzero(fired)[0] + 2 == state.iterations


def _fits_with_both_projections(monkeypatch, representation):
    sys = builtin_trig()
    samples = sample_uniform(2, 100, -1.5, 1.5, 3)
    J = jacobian_tensor(sys, samples.X)
    F = zeroth_matrix(sys, samples.X)
    cfg = CmtfConfig(rank=3, degree=3, df=12, lam=0.01, seed=3, max_iter=40, rel_tol=1e-12,
                     representation=representation)
    fits = []
    for projection in (bspline_projection, reference_projection):
        monkeypatch.setattr(decoupling, "bspline_projection", projection)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fits.append(decouple(J, F, samples.X, cfg))
    return fits


def test_decouple_with_reference_projection_matches_under_function(monkeypatch):
    (model_a, state_a), (model_b, state_b) = _fits_with_both_projections(
        monkeypatch, Representation.FUNCTION
    )
    assert state_a.iterations == state_b.iterations == 40
    assert _close(np.array(state_a.history), np.array(state_b.history), rtol=1e-9)
    # the knots follow W0 @ samples, which moves with the rounding of each sweep
    for a, b in zip(model_a.branches, model_b.branches):
        assert _close(a.basis.knots, b.basis.knots, rtol=1e-9)


def test_decouple_with_reference_projection_is_bit_identical(monkeypatch):
    # the DERIVATIVE projection keeps its dense lstsq solve
    (model_a, state_a), (model_b, state_b) = _fits_with_both_projections(
        monkeypatch, Representation.DERIVATIVE
    )
    assert state_a.iterations == state_b.iterations == 40
    assert np.array_equal(np.array(state_a.history), np.array(state_b.history))
    for name in ("W1", "W0", "G", "R"):
        assert np.array_equal(getattr(state_a, name), getattr(state_b, name))
    for a, b in zip(model_a.branches, model_b.branches):
        assert np.array_equal(a.basis.knots, b.basis.knots)
        assert np.array_equal(a.coeffs, b.coeffs)


def _mono_fit_counting_nnls(monkeypatch, warm_start: bool):
    """Constrained mono fit (df 12, seed 3) and its summed NNLS iterations."""
    system = builtin_mono(3)
    samples = sample_for_system(system, 100, -1.5, 1.5, 3)
    J = jacobian_tensor(system, samples)
    F = zeroth_matrix(system, samples)
    cfg = CmtfConfig(rank=3, degree=4, df=12, lam=0.1, seed=3, max_iter=200, rel_tol=1e-8,
                     representation=Representation.DERIVATIVE,
                     constraint=Constraint.MONOTONE_INCREASING)
    iterations = []

    def counted(lhs, rhs, max_iter=None, x0=None):
        out = nnls(lhs, rhs, max_iter, x0 if warm_start else None)
        iterations.append(out.iterations)
        return out

    monkeypatch.setattr(decoupling, "nnls", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, state = decouple(J, F, samples.X, cfg)
    return model, state, iterations


def test_warm_started_nnls_leaves_the_fit_bit_identical(monkeypatch):
    cold_model, cold_state, cold_iters = _mono_fit_counting_nnls(monkeypatch, False)
    warm_model, warm_state, warm_iters = _mono_fit_counting_nnls(monkeypatch, True)
    assert warm_state.iterations == cold_state.iterations
    assert len(warm_iters) == len(cold_iters) > 0
    assert np.array_equal(np.array(warm_state.history), np.array(cold_state.history))
    for name in ("W1", "W0", "G", "R"):
        assert np.array_equal(getattr(warm_state, name), getattr(cold_state, name))
    for a, b in zip(warm_model.branches, cold_model.branches):
        assert np.array_equal(a.basis.knots, b.basis.knots)
        assert np.array_equal(a.coeffs, b.coeffs)
    assert sum(warm_iters) < sum(cold_iters) / 2


def test_predict_reproduces_final_coupling_product():
    sys = builtin_trig()
    samples = sample_uniform(2, 80, -1.5, 1.5, 1)
    J = jacobian_tensor(sys, samples.X)
    F = zeroth_matrix(sys, samples.X)
    cfg = CmtfConfig(rank=3, degree=3, df=8, seed=2, max_iter=25)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, state = decouple(J, F, samples.X, cfg)
    pred = predict(model, samples.X)
    assert pred.shape == F.shape
    assert np.allclose(pred, model.W1 @ state.R.T, atol=1e-10)


def test_fit_ending_on_the_fallback_refits_a_monotone_branch():
    # a rank-1 strictly decreasing branch under MONOTONE_INCREASING: seed 1's
    # random start makes the one sweep's NNLS return all zeros, so the fit
    # ends on the leaky-ReLU fallback and the end-of-fit refit stores a spline
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (2, 60))
    w0 = np.array([[0.6, 0.8]])
    w1 = np.array([[1.0], [-0.5]])
    u = (w0 @ x)[0]
    J = Tensor3(np.einsum("ir,k,rj->ijk", w1, -1 - 3 * u**2, w0))
    F = w1 @ (-u - u**3)[None, :]
    cfg = CmtfConfig(rank=1, degree=3, df=6, lam=0.1, max_iter=1, seed=1,
                     representation=Representation.DERIVATIVE,
                     constraint=Constraint.MONOTONE_INCREASING)
    trace = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, state = decouple(J, F, x, cfg, trace=trace)
    assert trace[-1]["projection"].fallback == (True,)
    coeffs = model.branches[0].coeffs
    assert np.all(coeffs[1:] >= 0)
    assert np.any(coeffs[1:] > 0)
    assert certify_monotone(model.branches[0]) is Certification.CERTIFIED_INCREASING
    # the refit overwrote the fallback columns, so the stored branch and the
    # final R agree on the training samples
    want = model.W1 @ state.R.T
    assert _close(predict(model, x), want, rtol=1e-12)
    assert not np.allclose(state.R[:, 0], leaky_relu_fallback(trace[-1]["x"][0])[1])


def test_predict_rejects_non_finite_inputs():
    J, F, x = quadratic_fixture(seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, _ = decouple(J, F, x, CmtfConfig(rank=2, degree=2, df=5, seed=0, max_iter=10))
    with pytest.raises(ValueError, match="non-finite values encountered in inputs, first in column 1"):
        predict(model, [[0.1, np.nan, np.inf], [0.2, 0.3, 0.0]])
    with pytest.raises(ValueError, match="column 2"):
        predict(model, [[0.1, 0.2, 0.3], [0.2, 0.3, -np.inf]])
    assert np.all(np.isfinite(predict(model, [[0.1, 0.2, 0.3], [0.2, 0.3, 0.0]])))


def test_constrained_fit_certifies_every_branch():
    rng = np.random.default_rng(13)
    s = 60
    w1 = rng.uniform(-2, 2, (3, 3))
    w0 = rng.uniform(-2, 2, (3, 3))
    x = rng.uniform(-1.5, 1.5, (3, s))
    v = w0 @ x
    g = np.stack([v[0] ** 3 / 3 + v[0], np.exp(v[1]), 2 * v[2]])
    dg = np.stack([v[0] ** 2 + 1, np.exp(v[1]), np.full(s, 2.0)])
    J = np.empty((3, 3, s))
    for k in range(s):
        J[:, :, k] = w1 @ np.diag(dg[:, k]) @ w0
    F = w1 @ g
    cfg = CmtfConfig(rank=3, degree=4, df=8, seed=4, max_iter=30,
                     representation=Representation.DERIVATIVE,
                     constraint=Constraint.MONOTONE_INCREASING)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, _ = decouple(Tensor3(J), F, x, cfg)
    for branch in model.branches:
        assert certify_monotone(branch) is Certification.CERTIFIED_INCREASING


# certification


def certify_case(coeffs, rep, degree=3, df=4):
    basis = determine_knots(np.linspace(0, 1, 30), df, degree)
    return certify_monotone(SplineFunction(basis, np.asarray(coeffs, float), rep))


def test_certify_derivative_rep_sign_test():
    assert certify_case([-1.0, 0.0, 0.5, 1.0, 2.0],
                        Representation.DERIVATIVE) is Certification.CERTIFIED_INCREASING
    assert certify_case([0.0, 0.1, -1e-6, 0.2, 0.3],
                        Representation.DERIVATIVE) is Certification.NOT_CERTIFIED


def test_certify_function_rep_increasing_coeffs():
    # increasing spline coefficients give nonnegative derivative coefficients
    assert certify_case([5.0, 0.0, 1.0, 2.0, 3.0],
                        Representation.FUNCTION) is Certification.CERTIFIED_INCREASING
    assert certify_case([5.0, 0.0, 2.0, 1.0, 3.0],
                        Representation.FUNCTION) is Certification.NOT_CERTIFIED


def test_certified_function_rep_really_is_increasing():
    basis = determine_knots(np.linspace(-1, 1, 40), 5, 3)
    c = np.array([0.3, 0.0, 0.5, 0.6, 2.0, 2.5])
    fn = SplineFunction(basis, c, Representation.FUNCTION)
    assert certify_monotone(fn) is Certification.CERTIFIED_INCREASING
    u = np.linspace(-1, 1, 500)
    assert np.all(np.diff(fn.value(u)) >= -1e-12)


# persistence


def test_model_round_trip(tmp_path):
    J, F, x = quadratic_fixture(seed=21)
    cfg = CmtfConfig(rank=2, degree=2, df=5, seed=0, max_iter=10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, _ = decouple(J, F, x, cfg)
    p = tmp_path / "model.json"
    save_model(model, p)
    back = load_model(p)
    assert np.allclose(back.W1, model.W1, atol=0)
    assert np.allclose(back.W0, model.W0, atol=0)
    assert len(back.branches) == 2
    u = np.linspace(-1, 1, 17)
    for b_old, b_new in zip(model.branches, back.branches):
        assert np.allclose(b_new.value(u), b_old.value(u), atol=0)
        assert b_new.representation is b_old.representation


@pytest.mark.parametrize(
    "representation, constraint",
    [
        (Representation.FUNCTION, Constraint.NONE),
        (Representation.DERIVATIVE, Constraint.MONOTONE_INCREASING),
    ],
    ids=["function", "derivative-increasing"],
)
def test_saved_model_file_round_trips_byte_for_byte(tmp_path, representation, constraint):
    J, F, x = quadratic_fixture(seed=24)
    cfg = CmtfConfig(rank=2, degree=2, df=5, lam=0.3, representation=representation,
                     constraint=constraint, max_iter=5, rel_tol=1e-9, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, _ = decouple(J, F, x, cfg)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(model, first)
    back = load_model(first)
    assert back.config == cfg
    save_model(back, second)
    assert second.read_bytes() == first.read_bytes()
    payload = json.loads(first.read_text())
    assert list(payload["config"]) == ["rank", "degree", "df", "lam", "representation",
                                       "constraint", "max_iter", "rel_tol", "seed"]
    for key in payload["config"]:
        cut = json.loads(first.read_text())
        del cut["config"][key]
        second.write_text(json.dumps(cut))
        with pytest.raises(ValueError, match=f"missing field '{key}'"):
            load_model(second)


def test_saved_model_keys_are_the_documented_ones(tmp_path):
    J, F, x = quadratic_fixture(seed=22)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, _ = decouple(J, F, x, CmtfConfig(rank=2, degree=2, df=5, max_iter=5))
    p = tmp_path / "model.json"
    save_model(model, p)
    payload = json.loads(p.read_text())
    assert set(payload) == {"dims", "w1", "w0", "branches", "config"}
    assert set(payload["dims"]) == {"outputs", "inputs", "rank"}
    branch_keys = {"degree", "df", "knots", "coeffs", "representation"}
    assert all(set(b) == branch_keys for b in payload["branches"])
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    formats = readme.split("## File formats")[1].split("\n## ")[0]
    for key in [*payload, *payload["dims"], *branch_keys]:
        assert f"`{key}`" in formats, key
    assert "No certificate is stored" in formats

def test_load_model_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("not json at all {")
    with pytest.raises(ValueError, match="malformed model file"):
        load_model(p)
    p.write_text(json.dumps({"W1": [[1.0]]}))
    with pytest.raises(ValueError, match="malformed model file"):
        load_model(p)



@pytest.fixture
def saved_model(tmp_path):
    J, F, x = quadratic_fixture(seed=23)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, _ = decouple(J, F, x, CmtfConfig(rank=2, degree=2, df=5, max_iter=5))
    p = tmp_path / "model.json"
    save_model(model, p)
    return model, p


def test_model_file_with_the_removed_config_keys_still_loads(saved_model):
    # files written before the geometric lambda schedule and init_scale were
    # removed carry their keys in config; the reader ignores them
    model, p = saved_model
    payload = json.loads(p.read_text())
    payload["config"].update(
        lambda_schedule="fixed", lambda_factor=1.0, lambda_cap=None, init_scale=1.0
    )
    p.write_text(json.dumps(payload))
    X = np.random.default_rng(0).uniform(-1.5, 1.5, (2, 40))
    assert np.array_equal(predict(load_model(p), X), predict(model, X))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "where, field",
    [
        (lambda d: d["w1"][1], "w1"),
        (lambda d: d["w0"][0], "w0"),
        (lambda d: d["branches"][1]["knots"], "branch 2 knots"),
        (lambda d: d["branches"][0]["coeffs"], "branch 1 coeffs"),
    ],
    ids=["w1", "w0", "knots", "coeffs"],
)
def test_load_model_rejects_non_finite_entries(saved_model, where, field, bad):
    _, p = saved_model
    payload = json.loads(p.read_text())
    where(payload)[-1] = bad
    p.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"non-finite value in {field}"):
        load_model(p)


@pytest.mark.parametrize(
    "cut",
    [
        lambda d: d["branches"].pop(),
        lambda d: d["w0"].pop(),
        lambda d: [row.append(0.5) for row in d["w1"]],
    ],
    ids=["branch dropped", "w0 row dropped", "w1 column added"],
)
def test_load_model_rejects_mismatched_rank(saved_model, cut):
    _, p = saved_model
    payload = json.loads(p.read_text())
    cut(payload)
    p.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="all three must agree"):
        load_model(p)


def test_write_diagnostics_format(tmp_path):
    J, F, x = small_random_problem(17)
    cfg = CmtfConfig(rank=2, degree=2, df=5, seed=0, max_iter=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, state = decouple(J, F, x, cfg)
    p = tmp_path / "diag.csv"
    write_diagnostics(state, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "iter,objective,tensor_term,coupling_term"
    assert len(lines) == 1 + len(state.history)
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(state.history[0][0])
