import warnings
from fractions import Fraction

import numpy as np
import pytest
from exact_spline import exact_value
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.interpolate import BSpline

from decoupline.bspline import (
    Constraint,
    Representation,
    SplineBasis,
    SplineFunction,
    _derivative_map,
    _find_spans,
    _grid_owners,
    _integral_steps,
    _local_basis,
    _nonempty_spans,
    _owners,
    _span_grid,
    _sorted_knots,
    _window_gram,
    _window_rhs,
    _window_values,
    augment,
    bspline_projection,
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
    5: [0, 0, 0, 0, 0, 0, 0.1, 0.5, 0.5, 0.5, 0.5, 0.5, 1, 1, 1, 1, 1, 1],
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


def grid_cases():
    """(starts, end): the sorted left knots of the nonempty spans and the domain's right end.

    The quantile and crowded bases of every degree, one span, starts
    clustered tighter than the grid's finest cell (so that one cell holds
    several), knots at scales 1e-300 and 1e300, a domain too wide for its
    width to be finite and one a few subnormals wide.
    """
    for degree in range(1, 6):
        for basis in (quantile_basis(seed=degree, df=degree + 8, degree=degree)[0], crowded_basis(degree)):
            t = basis.knots
            yield t[_nonempty_spans(t, degree)], t[-1]
    yield np.array([0.3]), 0.7
    clustered = np.array([-1.0, -1.0 + 1e-12, -1.0 + 2e-12, 0.25, 0.25 + 3e-9, 0.5])
    yield clustered, 1.0
    for scale in (1e-300, 1e300):
        yield clustered * scale, scale
        yield np.linspace(-1.0, 0.5, 7) * scale, scale
    yield np.array([-1e308, 0.0, 1e308]), 1.7e308
    yield np.array([0.0, 5e-324]), 1e-323


def grid_points(starts, end, rng):
    """Every start and end with their float neighbours, random points in and
    around the domain, and the extremes."""
    edges = np.append(starts, end)
    with np.errstate(over="ignore", invalid="ignore"):
        spread = starts[0] + (end - starts[0]) * rng.uniform(-1.0, 2.0, 400)
    return np.concatenate([
        edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf), spread[np.isfinite(spread)],
        [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf],
    ])


def test_grid_lookup_equals_the_binary_search():
    rng = np.random.default_rng(91)
    windows = []
    for starts, end in grid_cases():
        grid = _span_grid(starts, end)
        windows.append(grid[5])
        u = grid_points(starts, end, rng)
        assert np.array_equal(_grid_owners(grid, u), _owners(starts, u))
    # the clustered starts share a cell; the quantile bases' starts do not
    assert max(windows) > 1 and min(windows) == 1


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=20, unique=True),
    st.lists(st.floats(allow_nan=False), min_size=1, max_size=50),
)
def test_grid_lookup_equals_the_binary_search_on_any_knots(knots, points):
    knots = np.unique(knots)
    if knots.size < 2:
        return
    starts, end = knots[:-1], knots[-1]
    u = np.concatenate([np.array(points), knots])
    assert np.array_equal(_grid_owners(_span_grid(starts, end), u), _owners(starts, u))


@pytest.mark.parametrize("rep", list(Representation))
def test_nan_points_evaluate_to_nan_without_warnings(rep):
    basis, _ = quantile_basis(seed=51, df=9, degree=3)
    fn = SplineFunction(basis, np.random.default_rng(51).standard_normal(10), rep)
    u = np.array([np.nan, 0.3, np.nan, -5.0, 7.0, 1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value, slope = fn.value(u), fn.derivative(u)
        rest = np.delete(u, [0, 2])
        want = fn.value(rest), fn.derivative(rest)
    assert np.all(np.isnan(value[[0, 2]])) and np.all(np.isnan(slope[[0, 2]]))
    # and they leave the other points' values alone
    assert np.array_equal(np.delete(value, [0, 2]), want[0])
    assert np.array_equal(np.delete(slope, [0, 2]), want[1])


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


def assert_exact_outside(fn, u, got, scale, derivative):
    """Outside the domain, got within 64 eps * scale of exact_value.

    The dense reference and the window evaluator both lose digits out
    there (up to 69 and 81 eps * scale on test_span_local_evaluation_
    matches_dense_reference's degree-4 integral), so far points are
    checked against exact rational arithmetic instead.
    """
    lo, hi = fn.basis.domain
    bound = 64 * np.finfo(float).eps * scale
    for x, g, b in zip(u, got, bound):
        if not lo <= x <= hi:
            assert abs(Fraction(g) - exact_value(fn, x, derivative)) <= Fraction(b)


def assert_matches_dense(fn, u, derivative):
    """fn.value / fn.derivative within 64 eps (|c0| + sum_j |c_j M_j(u)|) of
    the dense product in the domain, and of the exact value outside it."""
    c0, cs = fn.coeffs[0], fn.coeffs[1:]
    m = dense_level(fn.basis, u, fn.representation, derivative)
    if derivative:
        got, want, scale = fn.derivative(u), m @ cs, np.abs(m * cs).sum(axis=1)
    else:
        got, want, scale = fn.value(u), c0 + m @ cs, abs(c0) + np.abs(m * cs).sum(axis=1)
    assert got.shape == want.shape
    u = np.atleast_1d(u)
    lo, hi = fn.basis.domain
    inside = (u >= lo) & (u <= hi)
    assert np.all((np.abs(got - want) <= 64 * np.finfo(float).eps * scale)[inside])
    assert_exact_outside(fn, u, got, scale, derivative)


@pytest.mark.parametrize("rep", list(Representation))
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
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


def spline_cases(degree, rng):
    """(basis, points, coefficients) over a quantile and a crowded basis, at
    two coefficient scales; the points lie inside, outside and on every knot."""
    for basis in (quantile_basis(seed=degree, df=degree + 8, degree=degree)[0], crowded_basis(degree)):
        u = evaluation_points(basis, rng)
        for scale in (1.0, 1e8):
            yield basis, u, rng.standard_normal(basis.df + 1) * scale * (-1.0) ** np.arange(basis.df + 1)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_function_spline_matches_scipy_bspline(degree):
    # .derivative and derivative_design_matrix share _derivative_map, so the
    # dense reference above does not check g' on its own: scipy's BSpline
    # does. nu=1 evaluates its derivative directly; BSpline.derivative()
    # refuses the repeated interior knots of the crowded basis. The
    # DERIVATIVE value is checked against antiderivative(), the integral
    # spline on the padded knots, which is 0 at the left end of the domain.
    # scipy reads the B-form at each point, with no per-span table
    rng = np.random.default_rng(300 + degree)
    for basis, u, c in spline_cases(degree, rng):
        spline = BSpline(basis.knots, c[1:], degree, extrapolate=True)
        fn = SplineFunction(basis, c, Representation.FUNCTION)
        pairs = [(fn.value(u), c[0] + spline(u)), (fn.derivative(u), spline(u, nu=1))]
        fn = SplineFunction(basis, c, Representation.DERIVATIVE)
        pairs += [(fn.value(u), c[0] + spline.antiderivative()(u)), (fn.derivative(u), spline(u))]
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def window_level(t, degree, cs, spans, u, order):
    """sum_j cs[j] * (B_j, B_j' or int B_j)(u), order 0, 1 or -1, from one window of basis values per point.

    The reference for the span table, a per-point evaluation: each point
    reads its own window of _local_basis, one level down for the
    derivative (weights _derivative_map times cs) and one up for the
    running integral (weights the prefix sums of cs[j] * (t_{j+d+1} -
    t_j)/(d+1)). Its knot differences cancel far outside the domain.
    """
    weights = cs
    if order == 1:
        weights = _derivative_map(t[None, :], degree)[0] @ cs
    elif order == -1:
        weights = np.concatenate([[0.0], np.cumsum(cs * _integral_steps(t, degree, cs.size))])
    # the degree d-1 window of a span starts one basis function later
    _, window = _local_basis(t[None, :], degree - order, spans[None, :], u[None, :])
    return _window_values(window, spans[None, :] - (degree - max(order, 0)), weights[None, :])[0]


@pytest.mark.parametrize("rep", list(Representation))
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_span_table_evaluation_matches_the_window_evaluator(rep, degree):
    # in the domain the table and the per-point window agree to 64 eps of
    # the terms they sum; outside it the table extends the boundary piece,
    # which the window evaluator reads with lost digits, so there the exact
    # value is the reference
    rng = np.random.default_rng(600 + degree)
    for basis, u, c in spline_cases(degree, rng):
        fn = SplineFunction(basis, c, rep)
        lo, hi = basis.domain
        inside = (u >= lo) & (u <= hi)
        spans = _find_spans(basis.knots, degree, u)
        for derivative in (False, True):
            order = (1 if derivative else 0) - (rep is Representation.DERIVATIVE)
            window = window_level(basis.knots, degree, c[1:], spans, u, order)
            scale = np.abs(dense_level(basis, u, rep, derivative) * c[1:]).sum(axis=1)
            if not derivative:
                window += c[0]
                scale += abs(c[0])
            got = fn.derivative(u) if derivative else fn.value(u)
            assert np.all(np.abs(got - window)[inside] <= 64 * np.finfo(float).eps * scale[inside])
            assert_exact_outside(fn, u, got, scale, derivative)


def test_certified_derivative_branch_is_nondecreasing_on_a_dense_grid():
    # a DERIVATIVE branch with nonnegative coefficients is certified
    # increasing; its values on a dense grid through every knot must not
    # fall by more than the rounding of one value
    rng = np.random.default_rng(71)
    x = np.sort(rng.uniform(-2.0, 2.0, 200))
    g = np.exp(x) * (x > -0.5)
    r = np.cumsum(g) * (x[1] - x[0])
    proj = bspline_projection(g[:, None], r[:, None], 12, 4, x[None, :], 0.1,
                              Representation.DERIVATIVE, Constraint.MONOTONE_INCREASING)
    branches = [SplineFunction(proj.bases[0], proj.coeffs[0], Representation.DERIVATIVE)]
    # and flat stretches (zero coefficients) on the crowded knots at 1e8
    for basis in map(crowded_basis, range(1, 6)):
        c = np.abs(rng.standard_normal(basis.df + 1)) * 1e8 * (rng.uniform(size=basis.df + 1) < 0.5)
        branches.append(SplineFunction(basis, c, Representation.DERIVATIVE))
    for fn in branches:
        assert np.all(fn.coeffs[1:] >= 0)
        lo, hi = fn.basis.domain
        u = np.sort(np.concatenate([np.linspace(lo, hi, 20001), fn.basis.knots]))
        v = fn.value(u)
        assert -np.diff(v).min() <= 4 * np.finfo(float).eps * np.abs(v).max()


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
def test_span_local_evaluation_is_the_same_in_blocks(rep):
    # decoupling.predict reads a block of points at a time into slices of
    # one buffer; each point's value must not depend on its block
    basis, _ = quantile_basis(seed=41, df=9, degree=3)
    rng = np.random.default_rng(41)
    fn = SplineFunction(basis, rng.standard_normal(10), rep)
    u = rng.uniform(-3.0, 3.0, 1000)
    read, value = fn.value_reader(), np.empty(u.size)
    for start in range(0, u.size, 7):
        read(u[start : start + 7], value[start : start + 7])
    assert np.array_equal(value, fn.value(u))
    slope = np.concatenate([fn.derivative(u[start : start + 7]) for start in range(0, u.size, 7)])
    assert np.array_equal(slope, fn.derivative(u))
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


def test_far_points_match_the_exact_extension_of_the_boundary_piece():
    # a degree-3, df-8 branch over [0, 1]: the per-point Cox-de Boor
    # recursion lost digits out here (relative error 1.3e-11 at 1e4, 0.58
    # at 1e15, NaN from 1e16), Horner's rule on the boundary span's table
    # row does not
    knots = np.concatenate([np.zeros(4), np.arange(1, 5) / 5, np.ones(4)])
    fn = SplineFunction(SplineBasis(degree=3, df=8, knots=knots),
                        np.random.default_rng(0).standard_normal(9), Representation.FUNCTION)
    u = np.array([1e4, 1e8, 1e12, 1e15, 1e16])
    for x, got in zip(u, fn.value(u)):
        want = exact_value(fn, x)
        assert abs(Fraction(got) - want) <= 4 * np.finfo(float).eps * abs(want)


def test_exact_oracle_matches_scipy_bspline():
    # the exact far-point reference above is de Boor's algorithm in
    # rationals; scipy's BSpline, which extrapolates its boundary pieces
    # too, checks it at every level, inside the domain and out
    rng = np.random.default_rng(800)
    for degree in (1, 2, 3, 4):
        basis, u, c = next(spline_cases(degree, rng))
        u = u[::5]
        spline = BSpline(basis.knots, c[1:], degree, extrapolate=True)
        cases = [
            (Representation.FUNCTION, False, c[0] + spline(u)),
            (Representation.FUNCTION, True, spline(u, nu=1)),
            (Representation.DERIVATIVE, False, c[0] + spline.antiderivative()(u)),
            (Representation.DERIVATIVE, True, spline(u)),
        ]
        for rep, derivative, want in cases:
            fn = SplineFunction(basis, c, rep)
            got = np.array([float(exact_value(fn, x, derivative)) for x in u])
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("rep", list(Representation))
def test_evaluation_writes_into_out(rep):
    # value_reader's reader writes 1-D points into the caller's buffer;
    # value and derivative return an array shaped like the points, n-d
    # and transposed ones included, with the flat evaluation's bits
    basis, _ = quantile_basis(seed=62, df=7, degree=3)
    fn = SplineFunction(basis, np.random.default_rng(62).standard_normal(8), rep)
    u = np.random.default_rng(63).uniform(-3.0, 3.0, (4, 25))
    read = fn.value_reader()
    for out in (np.empty(100), np.empty(200)[::2]):
        assert read(u.ravel(), out) is out
        assert np.array_equal(out, fn.value(u.ravel()))
    with pytest.raises(ValueError):
        read(u.ravel(), np.empty(99))
    for evaluate in (fn.value, fn.derivative):
        for points in (u, np.ascontiguousarray(u.T).T):
            got = evaluate(points)
            assert got.shape == (4, 25)
            assert np.array_equal(got.ravel(), evaluate(points.ravel()))


def test_span_local_function_derivative_needs_degree_one():
    basis = SplineBasis(degree=0, df=3, knots=[0.0, 0.5, 0.7, 1.0])
    fn = SplineFunction(basis, np.ones(4), Representation.FUNCTION)
    with pytest.raises(ValueError, match="degree >= 1"):
        fn.derivative([0.3])
    assert np.array_equal(
        SplineFunction(basis, np.ones(4), Representation.DERIVATIVE).derivative([0.3]), [1.0]
    )


def loop_local_basis(t, degree, spans, u):
    """_local_basis as the plain inner loop over the window, one function at a time."""
    rows = np.arange(t.shape[0])[:, None] * t.shape[1]
    vals = np.zeros((degree + 1,) + u.shape)
    vals[0] = 1.0
    left = np.empty((degree,) + u.shape)
    right = np.empty((degree,) + u.shape)
    lower = None
    for j in range(1, degree + 1):
        if j == degree:
            lower = vals[:degree].copy()
        left[j - 1] = u - np.take(t, spans + (rows - j + 1))
        right[j - 1] = np.take(t, spans + (rows + j)) - u
        saved = np.zeros(u.shape)
        for r in range(j):
            temp = vals[r] / (right[r] + left[j - r - 1])
            vals[r] = saved + right[r] * temp
            saved = left[j - r - 1] * temp
        vals[j] = saved
    return lower, vals


def test_local_basis_equals_the_loop_recursion():
    # the stacked levels run the loop's operations elementwise, so the
    # bits are the same; tied interior knots leave empty spans
    rng = np.random.default_rng(81)
    for _ in range(300):
        degree = int(rng.integers(1, 6))
        df = degree + int(rng.integers(1, 8))
        rows = int(rng.integers(1, 4))
        grid = np.linspace(0.0, 1.0, int(rng.integers(2, 6)))
        t = np.stack([
            np.concatenate([np.zeros(degree + 1), np.sort(rng.choice(grid, df - degree - 1)), np.ones(degree + 1)])
            for _ in range(rows)
        ]) * 4.0 - 2.0
        u = rng.uniform(-3.0, 3.0, (rows, 50))
        spans = np.stack([_find_spans(k, degree, p) for k, p in zip(t, u)])
        # an unused draw, kept so that the cases drawn after it stay the same
        rng.integers(2)
        (lower, vals), (want_lower, want_vals) = (
            f(t, degree, spans, u) for f in (_local_basis, loop_local_basis)
        )
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(lower, want_lower)


def _window_case(bases, rng):
    """Knot rows, points, spans and both window levels for same-df bases."""
    degree = bases[0].degree
    t = np.stack([b.knots for b in bases])
    u = np.stack([evaluation_points(b, rng)[:240] for b in bases])
    spans = np.stack([_find_spans(k, degree, p) for k, p in zip(t, u)])
    lower, vals = _local_basis(t, degree, spans, u)
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
        diff = _derivative_map(t, degree)
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
            # B = D M: the derivative design matrix from the degree d-1 one
            dx = derivative_design_matrix(basis, u[i])
            assert np.allclose(low @ diff[i], dx, rtol=0, atol=1e-12 * np.abs(dx).max())
