import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.interpolate import BSpline

from decoupline import bspline
from decoupline.bspline import (
    Representation,
    SplineBasis,
    SplineFunction,
    _derivative_weights,
    _find_spans,
    _local_basis,
    _sorted_knots,
    _window_gram,
    _window_rhs,
    _window_values,
    augment,
    derivative_design_matrix,
    design_matrix,
    determine_knots,
    integral_design_matrix,
)


def quantile_basis(seed=0, df=8, degree=3, n=60, lo=-2.0, hi=2.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, n)
    return determine_knots(x, df, degree), x


# knot construction


def test_knots_single_interior_quantile():
    x = np.arange(11) / 10
    basis = determine_knots(x, df=5, degree=3)
    assert np.array_equal(basis.knots, [0, 0, 0, 0, 0.5, 1, 1, 1, 1])


def test_knots_bezier_case_no_interior():
    x = np.linspace(-1, 2, 9)
    basis = determine_knots(x, df=4, degree=3)
    assert np.array_equal(basis.knots, [-1, -1, -1, -1, 2, 2, 2, 2])


def test_knots_linear_degree_quantiles():
    x = np.arange(11) / 10
    basis = determine_knots(x, df=6, degree=1)
    assert np.allclose(basis.knots, [0, 0, 0.2, 0.4, 0.6, 0.8, 1, 1])


def test_knots_df_must_exceed_degree():
    with pytest.raises(ValueError, match="df must exceed degree"):
        determine_knots(np.linspace(0, 1, 20), df=3, degree=3)


def test_knots_need_distinct_samples():
    with pytest.raises(ValueError, match="all equal"):
        determine_knots(np.ones(30), df=4, degree=2)
    with pytest.raises(ValueError, match="distinct"):
        determine_knots(np.array([0.0, 1.0, 0.0, 1.0]), df=4, degree=2)


@pytest.mark.parametrize("seed", range(60))
def test_sorted_knots_equal_numpy_quantile(seed):
    # the interior knots interpolate the sorted rows by numpy's own linear
    # rule; ties (draws from a small grid) and crowded rows included
    rng = np.random.default_rng(seed)
    degree = int(rng.integers(1, 5))
    df = degree + 1 + int(rng.integers(1, 12))
    n = int(rng.integers(df + 1, 400))
    if seed % 2:
        rows = rng.integers(0, df + 3, (3, n)) / 7.0
        rows[:, : df + 1] = np.arange(df + 1) / 7.0  # enough distinct values
    else:
        rows = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-3, 4)
    xs = np.sort(rows, axis=1)
    qs = np.arange(1, df - degree) / (df - degree)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        knots = _sorted_knots(xs, df, degree)
    assert np.array_equal(knots[:, degree + 1 : df], np.quantile(xs, qs, axis=1).T)


def test_knots_warn_on_squashed_quantiles():
    # nearly all mass on one value drags several quantiles onto one knot,
    # while enough distinct stragglers keep the basis itself legal
    x = np.concatenate([np.zeros(94), [0.1, 0.2, 0.3, 0.5, 0.9, 1.0]])
    with pytest.warns(UserWarning, match="coincident interior knots"):
        determine_knots(x, df=6, degree=3)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_knots_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3, 3, 50)
    a = determine_knots(x, df=7, degree=2)
    b = determine_knots(rng.permutation(x), df=7, degree=2)
    assert np.array_equal(a.knots, b.knots)


def test_basis_validation():
    with pytest.raises(ValueError, match="nondecreasing"):
        SplineBasis(degree=1, df=3, knots=[0, 0, 1, 0.5, 1])
    with pytest.raises(ValueError, match="boundary knots"):
        SplineBasis(degree=2, df=4, knots=[0, 0, 0.5, 1, 2, 2, 2])
    with pytest.raises(ValueError, match="entries"):
        SplineBasis(degree=2, df=4, knots=[0, 0, 0, 1, 1, 1])
    # NaN defeats every ordering check; infinite boundary knots pass them
    for knots in ([0, 0, np.nan, 1, 1], [0, 0, 0.5, np.inf, np.inf],
                  [-np.inf, -np.inf, 0, 1, 1]):
        with pytest.raises(ValueError, match="finite"):
            SplineBasis(degree=1, df=3, knots=knots)


# design matrix values


def test_design_row_hand_case():
    basis = SplineBasis(degree=2, df=4, knots=[0, 0, 0, 0.5, 1, 1, 1])
    row = design_matrix(basis, [0.25])[0]
    assert np.allclose(row, [0.25, 0.625, 0.125, 0.0], atol=1e-14)


def test_design_matches_scipy_bspline():
    for degree in range(6):
        basis, x = quantile_basis(seed=5, df=9, degree=degree)
        ours = design_matrix(basis, x)
        theirs = BSpline.design_matrix(x, basis.knots, degree).toarray()
        assert np.allclose(ours, theirs, atol=1e-12), degree


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 10), st.integers(1, 4), st.integers(0, 10_000))
def test_partition_of_unity(df, degree, seed):
    if df <= degree:
        df = degree + 1
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, max(40, df + 1))
    basis = determine_knots(x, df, degree)
    rows = design_matrix(basis, x)
    assert np.all(rows >= -1e-14)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def test_design_right_boundary_closed():
    basis, x = quantile_basis(seed=1)
    top = design_matrix(basis, [x.max()])[0]
    assert top[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(top[:-1], 0.0, atol=1e-12)


def test_design_extrapolates_boundary_piece():
    # outside the data the boundary polynomial continues smoothly: value at
    # hi + eps follows the Taylor step of the last in-domain piece
    basis, x = quantile_basis(seed=2, df=6, degree=3)
    hi = x.max()
    rng = np.random.default_rng(0)
    c = rng.standard_normal(6)
    v_in = design_matrix(basis, [hi]) @ c
    d_in = derivative_design_matrix(basis, [hi]) @ c
    eps = 1e-7
    v_out = design_matrix(basis, [hi + eps]) @ c
    assert v_out[0] == pytest.approx(v_in[0] + eps * d_in[0], abs=1e-10)


# derivative design matrix


def test_derivative_hat_slopes():
    basis = SplineBasis(degree=1, df=2, knots=[0, 0, 1, 1])
    rows = derivative_design_matrix(basis, [0.3, 0.7])
    assert np.allclose(rows, [[-1, 1], [-1, 1]], atol=1e-14)


def test_derivative_rows_sum_to_zero():
    basis, x = quantile_basis(seed=3, df=10, degree=3)
    rows = derivative_design_matrix(basis, x)
    assert np.allclose(rows.sum(axis=1), 0.0, atol=1e-12)


def test_derivative_matches_finite_differences():
    basis, x = quantile_basis(seed=4, df=9, degree=3)
    lo, hi = basis.domain
    u = np.linspace(lo + 0.05, hi - 0.05, 40)
    # keep clear of the knots so the FD stencil stays on one polynomial piece
    u = u[np.abs(u[:, None] - basis.knots[None, :]).min(axis=1) > 1e-3]
    h = 1e-6
    fd = (design_matrix(basis, u + h) - design_matrix(basis, u - h)) / (2 * h)
    assert np.allclose(derivative_design_matrix(basis, u), fd, atol=1e-5)


def test_derivative_needs_degree_one():
    basis = SplineBasis(degree=0, df=2, knots=[0, 0.5, 1])
    with pytest.raises(ValueError, match="degree >= 1"):
        derivative_design_matrix(basis, [0.3])


def test_derivative_matches_scipy():
    rng = np.random.default_rng(1)
    c = rng.standard_normal(8)
    for degree in range(1, 6):
        basis, x = quantile_basis(seed=6, df=8, degree=degree)
        ours = derivative_design_matrix(basis, x) @ c
        theirs = BSpline(basis.knots, c, degree, extrapolate=True).derivative()(x)
        assert np.allclose(ours, theirs, atol=1e-10), degree


# integral design matrix


def test_integral_matches_quadrature():
    basis, x = quantile_basis(seed=7, df=7, degree=3, n=50)
    lo, _ = basis.domain
    u = np.sort(x)[::7]
    mat = integral_design_matrix(basis, u)
    breaks = np.unique(basis.knots)
    for j in range(basis.df):
        col = np.zeros(basis.df)
        col[j] = 1.0
        for i, ui in enumerate(u):
            # hand quad the knot breakpoints, otherwise its adaptive error
            # (default epsabs 1.5e-8) swamps the tolerance we are checking
            pts = breaks[(breaks > lo) & (breaks < ui)]
            ref, _ = quad(
                lambda s: design_matrix(basis, [s])[0] @ col,
                lo,
                ui,
                points=pts,
                limit=200,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert mat[i, j] == pytest.approx(ref, abs=1e-9)


def test_integral_is_zero_at_left_boundary():
    basis, x = quantile_basis(seed=8, df=6, degree=2)
    lo, _ = basis.domain
    assert np.allclose(integral_design_matrix(basis, [lo]), 0.0, atol=1e-14)


def test_integral_derivative_round_trip():
    basis, x = quantile_basis(seed=9, df=8, degree=3)
    lo, hi = basis.domain
    u = np.linspace(lo + 0.1, hi - 0.1, 30)
    h = 1e-6
    fd = (integral_design_matrix(basis, u + h) - integral_design_matrix(basis, u - h)) / (2 * h)
    assert np.allclose(fd, design_matrix(basis, u), atol=1e-5)


def test_integral_full_span_equals_knot_average():
    # int over the whole domain of B_j is (t_{j+d+1} - t_j)/(d+1)
    basis, _ = quantile_basis(seed=10, df=7, degree=3)
    lo, hi = basis.domain
    t, d = basis.knots, basis.degree
    expect = (t[d + 1:] - t[: basis.df]) / (d + 1)
    assert np.allclose(integral_design_matrix(basis, [hi])[0], expect, atol=1e-12)


# augment and SplineFunction


def test_augment_expansion():
    rng = np.random.default_rng(2)
    basis, x = quantile_basis(seed=11, df=6, degree=2)
    mat = design_matrix(basis, x)
    c = rng.standard_normal(7)
    ones = augment(mat, "ones") @ c
    zeros = augment(mat, "zeros") @ c
    spline = mat @ c[1:]
    assert np.allclose(ones, c[0] + spline, atol=1e-13)
    assert np.allclose(zeros, spline, atol=1e-13)


def test_augment_bad_kind():
    with pytest.raises(ValueError, match="zeros"):
        augment(np.zeros((2, 2)), "twos")


def test_spline_function_coeff_count():
    basis, _ = quantile_basis(seed=12, df=5, degree=2)
    with pytest.raises(ValueError, match="coefficients"):
        SplineFunction(basis, np.zeros(5), Representation.FUNCTION)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rep", [Representation.FUNCTION, Representation.DERIVATIVE])
def test_spline_function_rejects_non_finite_coefficients(bad, rep):
    # a NaN coefficient would otherwise evaluate to NaN wherever it is read
    basis = SplineBasis(degree=1, df=3, knots=[0, 0, 0.5, 1, 1])
    with pytest.raises(ValueError, match="coefficients must be finite"):
        SplineFunction(basis, [0.0, bad, 1.0, 2.0], rep)
    with pytest.raises(ValueError, match="coefficients must be finite"):
        SplineFunction(basis, [bad, 0.0, 1.0, 2.0], rep)


def test_spline_function_levels_are_consistent():
    basis, x = quantile_basis(seed=13, df=7, degree=3)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(8)
    f = SplineFunction(basis, c, Representation.FUNCTION)
    assert np.allclose(f.value(x), c[0] + design_matrix(basis, x) @ c[1:], atol=1e-13)
    assert np.allclose(f.derivative(x), derivative_design_matrix(basis, x) @ c[1:], atol=1e-13)

    g = SplineFunction(basis, c, Representation.DERIVATIVE)
    assert np.allclose(g.derivative(x), design_matrix(basis, x) @ c[1:], atol=1e-13)
    assert np.allclose(g.value(x), c[0] + integral_design_matrix(basis, x) @ c[1:], atol=1e-13)


def test_derivative_representation_value_fd():
    # value() under DERIVATIVE integrates the spline: check by differencing
    basis, x = quantile_basis(seed=14, df=6, degree=3)
    rng = np.random.default_rng(4)
    c = rng.standard_normal(7)
    g = SplineFunction(basis, c, Representation.DERIVATIVE)
    lo, hi = basis.domain
    u = np.linspace(lo + 0.05, hi - 0.05, 25)
    h = 1e-6
    fd = (g.value(u + h) - g.value(u - h)) / (2 * h)
    assert np.allclose(fd, g.derivative(u), atol=1e-5)


# span-local evaluation (SplineFunction.value / derivative)


def old_find_spans(t, degree, u):
    """The owner-span rule as two searches: raw span, then nearest nonempty."""
    lo, hi = degree, t.size - degree - 2
    nonempty = np.flatnonzero(np.diff(t) > 0)
    nonempty = nonempty[(nonempty >= lo) & (nonempty <= hi)]
    spans = np.clip(np.searchsorted(t, u, side="right") - 1, lo, hi)
    idx = np.searchsorted(nonempty, spans, side="right") - 1
    return nonempty[np.clip(idx, 0, nonempty.size - 1)]


CROWDED = {
    1: [0, 0, 0.3, 0.3, 0.6, 1, 1],
    2: [0, 0, 0, 0.25, 0.5, 0.5, 0.5, 1, 1, 1],
    3: [0, 0, 0, 0, 0.2, 0.2, 0.7, 0.7, 0.7, 1, 1, 1, 1],
    4: [0, 0, 0, 0, 0, 0.4, 0.4, 0.4, 0.4, 1, 1, 1, 1, 1],
}


def crowded_basis(degree):
    knots = np.array(CROWDED[degree], dtype=float) * 3.0 - 1.0
    return SplineBasis(degree=degree, df=knots.size - degree - 1, knots=knots)


def test_find_spans_single_search_equals_two_search_rule():
    rng = np.random.default_rng(21)
    for degree in range(0, 5):
        for basis in (quantile_basis(seed=degree, df=degree + 6, degree=degree)[0],
                      crowded_basis(max(degree, 1))):
            t, d = basis.knots, basis.degree
            u = np.concatenate([rng.uniform(t[0] - 1, t[-1] + 1, 500), t, [-np.inf, np.inf]])
            assert np.array_equal(_find_spans(t, d, u), old_find_spans(t, d, u))


def evaluation_points(basis, rng):
    lo, hi = basis.domain
    width = hi - lo
    inside = rng.uniform(lo, hi, 200)
    outside = np.concatenate([rng.uniform(lo - width, lo, 20), rng.uniform(hi, hi + width, 20)])
    return np.concatenate([inside, outside, basis.knots])


def dense_level(basis, u, rep, derivative):
    """The dense design matrix that SplineFunction reads for one level."""
    if rep is Representation.FUNCTION:
        return derivative_design_matrix(basis, u) if derivative else design_matrix(basis, u)
    return design_matrix(basis, u) if derivative else integral_design_matrix(basis, u)


def assert_matches_dense(fn, u, derivative):
    """fn.value / fn.derivative within 64 eps (|c0| + sum_j |c_j M_j(u)|) of the dense product."""
    c0, cs = fn.coeffs[0], fn.coeffs[1:]
    m = dense_level(fn.basis, u, fn.representation, derivative)
    if derivative:
        got, want, scale = fn.derivative(u), m @ cs, np.abs(m * cs).sum(axis=1)
    else:
        got, want, scale = fn.value(u), c0 + m @ cs, abs(c0) + np.abs(m * cs).sum(axis=1)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 64 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("rep", list(Representation))
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_span_local_evaluation_matches_dense_reference(rep, degree):
    rng = np.random.default_rng(100 + degree)
    for basis in (quantile_basis(seed=degree, df=degree + 8, degree=degree)[0], crowded_basis(degree)):
        u = evaluation_points(basis, rng)
        for scale in (1.0, 1e8):
            # large alternating coefficients cancel, as in poorly conditioned fits
            c = rng.standard_normal(basis.df + 1) * scale * (-1.0) ** np.arange(basis.df + 1)
            fn = SplineFunction(basis, c, rep)
            assert_matches_dense(fn, u, derivative=False)
            assert_matches_dense(fn, u, derivative=True)


@pytest.mark.parametrize("rep", list(Representation))
def test_span_local_evaluation_single_point_and_empty(rep):
    basis, _ = quantile_basis(seed=31, df=7, degree=3)
    c = np.random.default_rng(31).standard_normal(8)
    fn = SplineFunction(basis, c, rep)
    assert fn.value(0.3).shape == fn.derivative(0.3).shape == (1,)
    assert_matches_dense(fn, 0.3, derivative=False)
    assert_matches_dense(fn, 0.3, derivative=True)
    assert fn.value([]).shape == fn.derivative(np.array([])).shape == (0,)


@pytest.mark.parametrize("rep", list(Representation))
def test_span_local_evaluation_is_the_same_in_blocks(rep, monkeypatch):
    basis, _ = quantile_basis(seed=41, df=9, degree=3)
    rng = np.random.default_rng(41)
    fn = SplineFunction(basis, rng.standard_normal(10), rep)
    u = rng.uniform(-3.0, 3.0, 1000)
    whole = fn.value(u), fn.derivative(u)
    monkeypatch.setattr(bspline, "_BLOCK", 7)
    assert np.array_equal(fn.value(u), whole[0])
    assert np.array_equal(fn.derivative(u), whole[1])
    assert_matches_dense(fn, u, derivative=False)
    assert_matches_dense(fn, u, derivative=True)


@pytest.mark.parametrize("rep", list(Representation))
def test_span_local_evaluation_collapsed_constant_branch(rep):
    # the projection's stand-in for a collapsed input row: a basis around
    # the single input value and only the constant set
    x0, df, degree = 0.7, 8, 3
    basis = determine_knots(np.linspace(x0 - 1.0, x0 + 1.0, df + degree + 2), df, degree)
    coeffs = np.zeros(df + 1)
    coeffs[0] = -2.5
    fn = SplineFunction(basis, coeffs, rep)
    u = np.full(50, x0)
    assert np.array_equal(fn.value(u), np.full(50, -2.5))
    assert np.array_equal(fn.derivative(u), np.zeros(50))


def test_span_local_function_derivative_needs_degree_one():
    basis = SplineBasis(degree=0, df=3, knots=[0.0, 0.5, 0.7, 1.0])
    fn = SplineFunction(basis, np.ones(4), Representation.FUNCTION)
    with pytest.raises(ValueError, match="degree >= 1"):
        fn.derivative([0.3])
    assert np.array_equal(
        SplineFunction(basis, np.ones(4), Representation.DERIVATIVE).derivative([0.3]), [1.0]
    )


def _window_case(bases, rng):
    """Knot rows, points, spans and both window levels for same-df bases."""
    degree = bases[0].degree
    t = np.stack([b.knots for b in bases])
    u = np.stack([evaluation_points(b, rng)[:240] for b in bases])
    spans = np.stack([_find_spans(k, degree, p) for k, p in zip(t, u)])
    lower, vals = _local_basis(t, degree, spans, u, below=True)
    return t, u, spans, lower, vals


def _lower_design(spans, lower, degree, n):
    """Dense degree d-1 design matrix of one row from its windows."""
    out = np.zeros((spans.size, n))
    for q in range(degree):
        out[np.arange(spans.size), spans - degree + 1 + q] = lower[q]
    return out


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_window_products_match_the_dense_design_matrices(degree):
    rng = np.random.default_rng(200 + degree)
    df = degree + 5
    # two rows in one call, so that each row's products land in its own block
    quantile = [quantile_basis(seed=s, df=df, degree=degree)[0] for s in (degree, degree + 10)]
    for bases in (quantile, [crowded_basis(degree)]):
        df = bases[0].df
        t, u, spans, lower, vals = _window_case(bases, rng)
        y = rng.standard_normal(u.shape)
        c = rng.standard_normal((len(bases), df))
        w = _derivative_weights(t, degree)
        first = spans - degree
        got = (_window_gram(vals, first, df), _window_rhs(vals, first, y, df),
               _window_values(vals, first, c), _window_gram(lower, first + 1, df + 1),
               _window_rhs(lower, first + 1, y, df + 1))
        for i, basis in enumerate(bases):
            x = design_matrix(basis, u[i])
            low = _lower_design(spans[i], lower[:, i], degree, df + 1)
            want = (x.T @ x, x.T @ y[i], x @ c[i], low.T @ low, low.T @ y[i])
            for g, v in zip(got, want):
                assert np.allclose(g[i], v, rtol=1e-13, atol=1e-13)
            # B = D W: the derivative design matrix from the degree d-1 one
            diff = np.zeros((df + 1, df))
            diff[np.arange(df), np.arange(df)] = w[i, :df]
            diff[np.arange(df) + 1, np.arange(df)] = -w[i, 1:]
            dx = derivative_design_matrix(basis, u[i])
            assert np.allclose(low @ diff, dx, rtol=0, atol=1e-12 * np.abs(dx).max())
