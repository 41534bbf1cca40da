"""Clamped B-spline bases on data-driven knots.

Everything is built on open (clamped) knot vectors: boundary knots repeated
degree+1 times, interior knots at sample quantiles. A basis with `df` degrees
of freedom and degree d carries df + d + 1 knots. Design matrices evaluate
the df basis functions at given points; companion matrices evaluate their
derivatives and running integrals in the same coefficient space, so a single
coefficient vector can be read at the function level and at the derivative
level consistently. All three are blocks of one dense builder, _dense_pair,
which also writes the spline projection's stacked systems. SplineFunction
evaluates without them: each point reads only the few basis functions alive
on its knot span.

Conventions that matter downstream:
  * right boundary is closed, the last basis function equals 1 at the domain
    maximum (evaluation there uses the last nonempty span);
  * outside the knot range the boundary polynomial piece is extended, i.e.
    evaluation clamps to the first/last nonempty span instead of zeroing out.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Representation",
    "SplineBasis",
    "SplineFunction",
    "determine_knots",
    "design_matrix",
    "derivative_design_matrix",
    "integral_design_matrix",
    "augment",
]


class Representation(Enum):
    """What the spline coefficients parameterize for a branch function g.

    FUNCTION: the spline is g itself (degree d); g' comes from the
    derivative design matrix.
    DERIVATIVE: the spline is g' (degree d-1); g comes from the integral
    design matrix plus a free constant.
    """

    FUNCTION = "function"
    DERIVATIVE = "derivative"


@dataclass(frozen=True)
class SplineBasis:
    """A clamped B-spline basis: degree, degrees of freedom, knot vector."""

    degree: int
    df: int
    knots: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.knots, dtype=float)
        d, df = self.degree, self.df
        if d < 0:
            raise ValueError(f"degree must be >= 0, got {d}.")
        if df < 1:
            raise ValueError(f"df must be >= 1, got {df}.")
        if t.ndim != 1 or t.size != df + d + 1:
            raise ValueError(
                f"knot vector needs df + degree + 1 = {df + d + 1} entries, got {t.size}."
            )
        # every comparison with NaN is false, so a NaN knot would pass the
        # ordering checks below and only fail later, in span lookup
        if not np.all(np.isfinite(t)):
            raise ValueError("knots must be finite.")
        if np.any(np.diff(t) < 0):
            raise ValueError("knots must be nondecreasing.")
        if t[0] >= t[-1]:
            raise ValueError("degenerate knot vector: no interior span.")
        if not (np.all(t[: d + 1] == t[0]) and np.all(t[-(d + 1):] == t[-1])):
            raise ValueError(
                f"clamped basis needs boundary knots repeated {d + 1} times."
            )
        object.__setattr__(self, "knots", t)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])


@dataclass(frozen=True)
class SplineFunction:
    """One branch function: basis, coefficients, and which level they live at.

    coeffs has df + 1 entries; coeffs[0] is the free constant, coeffs[1:]
    weight the basis functions. Under FUNCTION the constant shifts g, under
    DERIVATIVE it is the integration constant of g (g' ignores it).
    """

    basis: SplineBasis
    coeffs: np.ndarray
    representation: Representation

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).ravel()
        if c.size != self.basis.df + 1:
            raise ValueError(
                f"need df + 1 = {self.basis.df + 1} coefficients, got {c.size}."
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite.")
        if not isinstance(self.representation, Representation):
            raise ValueError(f"bad representation {self.representation!r}.")
        object.__setattr__(self, "coeffs", c)

    def value(self, u) -> np.ndarray:
        c0, cs = self.coeffs[0], self.coeffs[1:]
        order = 0 if self.representation is Representation.FUNCTION else -1
        return _span_local(self.basis, cs, u, order) + c0

    def derivative(self, u) -> np.ndarray:
        order = 1 if self.representation is Representation.FUNCTION else 0
        return _span_local(self.basis, self.coeffs[1:], u, order)


def determine_knots(x, df: int, degree: int) -> SplineBasis:
    """Clamped knot vector from samples: quantile interior knots.

    df - degree - 1 interior knots are placed at the i/(K+1) quantiles of x
    (linear interpolation between order statistics), boundary knots at
    min(x)/max(x) with multiplicity degree + 1.
    """
    xs = np.sort(np.asarray(x, dtype=float).ravel())[None, :]
    knots = _sorted_knots(xs, df, degree, stacklevel=3)
    return SplineBasis(degree=degree, df=df, knots=knots[0])


def _sorted_knots(xs: np.ndarray, df: int, degree: int, stacklevel: int = 2) -> np.ndarray:
    """determine_knots for every row of the row-sorted samples xs at once.

    Returns one knot vector per row, shape (r, df + degree + 1). The rows
    are checked in order and each crowded row warns once, as r separate
    determine_knots calls would. The rows are already sorted, so each
    interior knot interpolates its two neighbouring order statistics by
    numpy's default ("linear") quantile rule, bit for bit, without the
    partition np.quantile would run again.
    """
    if df <= degree:
        raise ValueError(f"df must exceed degree, got df={df}, degree={degree}.")
    for distinct in 1 + np.count_nonzero(xs[:, 1:] != xs[:, :-1], axis=1):
        if distinct < 2:
            raise ValueError("samples are all equal, no spline domain.")
        if distinct < df + 1:
            raise ValueError(
                f"need at least df + 1 = {df + 1} distinct samples, got {distinct}."
            )
    lo, hi = xs[:, :1], xs[:, -1:]
    n_interior = df - degree - 1
    interior = np.empty((xs.shape[0], 0))
    if n_interior > 0:
        qs = np.arange(1, n_interior + 1) / (n_interior + 1)
        at = (xs.shape[1] - 1) * qs
        prev = np.floor(at)
        gamma = at - prev
        prev = prev.astype(np.intp)
        a = xs[:, prev]
        b = xs[:, np.minimum(prev + 1, xs.shape[1] - 1)]
        # numpy's lerp: interpolate from the nearer neighbour
        interior = np.where(gamma >= 0.5, b - (b - a) * (1 - gamma), a + (b - a) * gamma)
        ordered = np.sort(interior, axis=1)
        squashed = np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)
        touching = (interior[:, 0] <= lo[:, 0]) | (interior[:, -1] >= hi[:, 0])
        for _ in range(np.count_nonzero(squashed | touching)):
            warnings.warn(
                "coincident interior knots: sample distribution is too "
                "concentrated for the requested df",
                stacklevel=stacklevel,
            )
    ends = degree + 1
    return np.concatenate(
        [np.repeat(lo, ends, axis=1), interior, np.repeat(hi, ends, axis=1)], axis=1
    )


def _find_spans(t: np.ndarray, degree: int, u: np.ndarray) -> np.ndarray:
    """Index of the nonempty knot span owning each point.

    One search over the left knots of the nonempty spans: a point belongs
    to the last nonempty span starting at or before it, a point left of the
    domain to the first. Points at or beyond the right boundary (and inside
    empty spans created by coincident knots) thus snap to the nearest
    nonempty span on their left, which is what closes the right boundary
    and extends the boundary polynomial pieces outside the domain.
    """
    lo, hi = degree, t.size - degree - 2
    nonempty = np.flatnonzero(np.diff(t) > 0)
    nonempty = nonempty[(nonempty >= lo) & (nonempty <= hi)]
    idx = np.searchsorted(t[nonempty], u, side="right") - 1
    return nonempty[np.clip(idx, 0, nonempty.size - 1)]


def _local_basis(t: np.ndarray, degree: int, spans: np.ndarray, u: np.ndarray, below: bool = False):
    """Values of the degree+1 basis functions alive on each point's span.

    Returns (lower, vals), level-major: vals[r] holds B_{span - degree + r,
    degree}(u), shaped like u, so each basis function of the window is one
    contiguous block. With below=True, lower holds the degree-1 level of the
    same recursion (the functions alive on the same span one degree down),
    else None. Standard knot-difference recursion, row i of u on knot
    vector t[i]; denominators are knot spans around a nonempty interval and
    cannot vanish.
    """
    # flat index of row i's knot k is k + i * t.shape[1]
    rows = np.arange(t.shape[0])[:, None] * t.shape[1]
    vals = np.zeros((degree + 1,) + u.shape)
    vals[0] = 1.0
    left = np.empty((degree,) + u.shape)
    right = np.empty((degree,) + u.shape)
    lower = None
    for j in range(1, degree + 1):
        if below and j == degree:
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


def _derivative_window(t: np.ndarray, degree: int, spans: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """First derivatives of the degree+1 basis functions alive on each span.

    Uses the lower-degree recurrence B'_l = w_l B_{l,d-1} - w_{l+1} B_{l+1,d-1}
    with w_l = d / (t_{l+d} - t_l), zero where the knot span is empty; lower
    is the degree d-1 level from _local_basis, and the result is level-major
    like it.
    """
    w = _derivative_weights(t, degree)
    cols = spans - degree + np.arange(degree + 2).reshape((-1,) + (1,) * spans.ndim)
    w = w[np.arange(t.shape[0])[:, None], cols]
    padded = np.zeros((degree + 2,) + lower.shape[1:])
    padded[1:-1] = lower
    return padded[:-1] * w[:-1] - padded[1:] * w[1:]


def _derivative_weights(t: np.ndarray, degree: int) -> np.ndarray:
    """w_l = d / (t_{l+d} - t_l) for l = 0..df on each knot row, 0 on an empty span.

    B'_l = w_l B_{l,d-1} - w_{l+1} B_{l+1,d-1}, so these weights map the
    coefficients of a degree-d spline to those of its derivative.
    """
    gaps = t[:, degree:] - t[:, : t.shape[1] - degree]
    return np.where(gaps > 0, degree / np.where(gaps > 0, gaps, 1.0), 0.0)


def _window_gram(win: np.ndarray, first: np.ndarray, n: int) -> np.ndarray:
    """Gram matrices X^T X of row-wise S x n design matrices X held as windows.

    win is level-major span-local values, (width, rows, S), and first the
    basis index of each point's first window function, (rows, S); row i's
    X has win[a, i, k] in column first[i, k] + a of its row k. Returns
    (rows, n, n). Each window pair (a, b >= a) adds its products into the
    upper triangle with one bincount, so no S-sized temporary is larger
    than one product of two window levels.
    """
    rows, width = win.shape[1], win.shape[0]
    # flat index of entry (i, l, l + k) of the (rows, n, n) result
    base = np.arange(rows)[:, None] * (n * n) + first * (n + 1)
    upper = np.zeros(rows * n * n)
    for a in range(width):
        at = (base + a * (n + 1)).ravel()
        for b in range(a, width):
            upper += np.bincount(at + (b - a), weights=(win[a] * win[b]).ravel(), minlength=rows * n * n)
    upper = upper.reshape(rows, n, n)
    gram = upper + np.swapaxes(upper, 1, 2)
    diag = np.arange(n)
    gram[:, diag, diag] = upper[:, diag, diag]
    return gram


def _window_rhs(win: np.ndarray, first: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """X^T y for the windowed design matrices of _window_gram; y is (rows, S)."""
    rows = win.shape[1]
    at = (np.arange(rows)[:, None] * n + first).ravel()
    out = np.zeros(rows * n)
    for a in range(win.shape[0]):
        out += np.bincount(at + a, weights=(win[a] * y).ravel(), minlength=rows * n)
    return out.reshape(rows, n)


def _window_values(win: np.ndarray, first: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """X c for the windowed design matrices of _window_gram; coef is (rows, n)."""
    rows, n = coef.shape
    at = np.arange(rows)[:, None] * n + first
    flat = coef.ravel()
    out = win[0] * np.take(flat, at)
    for a in range(1, win.shape[0]):
        out += win[a] * np.take(flat, at + a)
    return out


def _scatter(out: np.ndarray, window: np.ndarray, spans: np.ndarray, degree: int) -> np.ndarray:
    """Write each point's level-major span-local values into its row of out, from column span - degree on.

    spans holds one span per point, in any shape; out has that shape plus a
    trailing column axis, and window the window width plus that shape.
    """
    cols = spans - degree + np.arange(window.shape[0]).reshape((-1,) + (1,) * spans.ndim)
    out[(*np.indices(spans.shape, sparse=True), cols)] = window
    return out


def _integral_steps(t: np.ndarray, degree: int, df: int) -> np.ndarray:
    """(t_{j+d+1} - t_j)/(d+1): the integral of B_j over the whole domain, per knot row."""
    return (t[..., degree + 1 :] - t[..., :df]) / (degree + 1)


def _integral_into(out: np.ndarray, higher: np.ndarray, spans: np.ndarray, t: np.ndarray, degree: int) -> np.ndarray:
    """Running integrals int_{t_min}^{u} B_j of a degree-d basis, written into out.

    The antiderivative of a degree-d basis expansion is a degree-(d+1)
    spline on the knot vector padded with one extra boundary knot on each
    side. Its spans are the plain spans shifted by one, so higher, the
    degree d+1 level of _local_basis on the plain knots t, holds its values.
    Column j collects the tail sum of the higher-degree functions scaled by
    (t_{j+d+1} - t_j)/(d+1). spans and out are laid out as in _scatter;
    with several rows of spans, t holds one knot vector per row.
    """
    df = out.shape[-1]
    higher = _scatter(np.zeros(spans.shape + (df + 1,)), higher, spans, degree)
    # integral of B_j is dt[j] * sum of higher-degree functions with index > j
    tails = np.cumsum(higher[..., ::-1], axis=-1)[..., ::-1]
    np.multiply(tails[..., 1:], _integral_steps(t, degree, df)[..., None, :], out=out)
    return out


def _row_spans(t: np.ndarray, degree: int, u: np.ndarray) -> np.ndarray:
    """_find_spans of every row: the points u[i] on the knot vector t[i]."""
    return np.stack([_find_spans(k, degree, p) for k, p in zip(t, u)])


def _dense_pair(t: np.ndarray, degree: int, u: np.ndarray, representation: Representation):
    """Augmented design pair [0 | B] and [1 | Btil] of every row, each (rows, S, df + 1).

    Row i is one branch: the points u[i] on the knot vector t[i]. B is the
    derivative level and Btil the function level of a branch whose spline
    has the given degree under the representation, so both read the one
    coefficient vector [c0, c1..df]; the leading column carries the free
    constant. One recursion gives both levels. FUNCTION: Btil is the
    degree-d level and B comes from its degree d-1 level. DERIVATIVE: B is
    the degree-d level and Btil, the integral, needs the degree d+1 level.
    """
    rows, df = t.shape[0], t.shape[1] - degree - 1
    spans = _row_spans(t, degree, u)
    b_mat = np.zeros((rows, u.shape[1], df + 1))
    btil = np.zeros_like(b_mat)
    btil[..., 0] = 1.0
    if representation is Representation.FUNCTION:
        lower, vals = _local_basis(t, degree, spans, u, below=True)
        _scatter(b_mat[..., 1:], _derivative_window(t, degree, spans, lower), spans, degree)
        _scatter(btil[..., 1:], vals, spans, degree)
    else:
        vals, higher = _local_basis(t, degree + 1, spans, u, below=True)
        _scatter(b_mat[..., 1:], vals, spans, degree)
        _integral_into(btil[..., 1:], higher, spans, t, degree)
    return b_mat, btil


# Largest kappa(A) a FUNCTION branch may have and still be solved from its
# normal equations: those square kappa, so at this bound they keep about
# eight of the sixteen digits. A branch above it (coincident knots leaving a
# basis function with no samples, say) is solved densely by lstsq instead.
_NORMAL_KAPPA_MAX = 1e4


def _normal_fit(t: np.ndarray, degree: int, u: np.ndarray, g: np.ndarray, r: np.ndarray, lam: float):
    """FUNCTION-representation fit of rows of (g, r) with c0 = 0, from normal equations.

    Row i is one branch: samples g[i] of g' and r[i] of g at the points
    u[i] on the knot vector t[i]. With A = [B; sqrt(lam) Btil] the stacked
    design of B = derivative design matrix and Btil = design matrix, the
    normal matrix is B^T B + lam Btil^T Btil. Btil^T Btil is the banded
    Gram of the degree-d windows; B = D W, with D the degree d-1 design
    matrix and W the (df+1) x df knot-difference map of
    _derivative_weights, so B^T B = W^T (D^T D) W. Neither B nor Btil is
    formed.

    A row is solved when the eigenvalues of its normal matrix put kappa(A)
    at or below _NORMAL_KAPPA_MAX, i.e. lambda_min > lambda_max /
    _NORMAL_KAPPA_MAX**2 (one batched eigvalsh; a NaN fails the test). One
    batched Cholesky factors those rows only.

    Returns (solved, c, g_fit, r_fit): c[i] the df spline coefficients,
    g_fit[i] and r_fit[i] the fitted samples. Rows with solved[i] False
    get zeros in c and their other outputs are meaningless.
    """
    rows, df = t.shape[0], t.shape[1] - degree - 1
    spans = _row_spans(t, degree, u)
    lower, vals = _local_basis(t, degree, spans, u, below=True)
    first = spans - degree
    # the degree d-1 window of the same span starts one basis function later
    first_lower = first + 1
    w = _derivative_weights(t, degree)
    diff = np.zeros((rows, df + 1, df))
    col = np.arange(df)
    diff[:, col, col] = w[:, :df]
    diff[:, col + 1, col] = -w[:, 1:]
    diff_t = np.swapaxes(diff, 1, 2)
    # a knot gap so narrow that its derivative weight squares past the float
    # range overflows its row's normal matrix; the gate below sends that row
    # to lstsq, so the overflow is expected and not reported
    with np.errstate(over="ignore", invalid="ignore"):
        normal = diff_t @ _window_gram(lower, first_lower, df + 1) @ diff
        normal += lam * _window_gram(vals, first, df)
        rhs = diff_t @ _window_rhs(lower, first_lower, g, df + 1)[..., None]
        rhs += lam * _window_rhs(vals, first, r, df)[..., None]
    # eigvalsh rejects a non-finite matrix; a zero matrix stands in and fails
    # the gate
    finite = np.isfinite(normal).all(axis=(1, 2))
    eig = np.linalg.eigvalsh(np.where(finite[:, None, None], normal, 0.0))
    solved = eig[:, 0] > eig[:, -1] / _NORMAL_KAPPA_MAX**2
    c = np.zeros((rows, df, 1))
    if solved.any():
        lo = np.linalg.cholesky(normal[solved])
        c[solved] = np.linalg.solve(np.swapaxes(lo, 1, 2), np.linalg.solve(lo, rhs[solved]))
    c = c[..., 0]
    g_fit = _window_values(lower, first_lower, (diff @ c[..., None])[..., 0])
    r_fit = _window_values(vals, first, c)
    return solved, c, g_fit, r_fit


# Points per block of span-local evaluation: each of a block's work arrays
# is then 64 KiB, so the recursion runs in cache and reuses heap memory
# instead of mapping and page-faulting fresh T-sized arrays on every call.
_BLOCK = 8192


def _span_local(basis: SplineBasis, cs: np.ndarray, u, order: int) -> np.ndarray:
    """sum_j cs[j] * (B_j, B_j' or int B_j)(u) without a design matrix.

    order 0 reads the basis functions, 1 their first derivatives and -1
    their running integrals from the left end of the domain; the dense
    design_matrix, derivative_design_matrix and integral_design_matrix
    products are the reference. Each point touches only the window of
    basis functions alive on its span: degree+1 of them, or degree+2 of
    the degree-(d+1) level for the integral, whose weights are the prefix
    sums of cs[j] * (t_{j+d+1} - t_j)/(d+1) (the integral of B_j is that
    step times the sum of the higher-level functions past j). The points
    are taken _BLOCK at a time.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    t, d = basis.knots, basis.degree
    if order == 1 and d < 1:
        raise ValueError("derivative needs degree >= 1.")
    weights = cs
    if order == -1:
        weights = np.concatenate([[0.0], np.cumsum(cs * _integral_steps(t, d, basis.df))])
    points = u.reshape(-1)
    out = np.empty(points.size)
    for start in range(0, points.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        out[block] = _window_dot(t, d, weights, points[block], order)
    return out.reshape(u.shape)


def _window_dot(t: np.ndarray, d: int, weights: np.ndarray, u: np.ndarray, order: int) -> np.ndarray:
    """One block of _span_local: the window values at the 1-D points u dotted with weights."""
    spans = _find_spans(t, d, u)
    # a derivative reads the level one degree down, an integral one up
    _, window = _local_basis(t[None, :], d - order, spans[None, :], u[None, :])
    if order == 1:
        window = _derivative_window(t[None, :], d, spans[None, :], window)
    first = spans - d
    # even and odd window positions are summed apart and then added: the
    # order in which a dense dot product with 4 or 8 SIMD lanes adds the
    # same nonzero products when the window is at most 4 wide, so such
    # products with the design matrices agree with this one bit for bit
    sums = np.zeros((2,) + u.shape)
    for r in range(window.shape[0]):
        sums[r % 2] += window[r, 0] * weights[first + r]
    return sums[0] + sums[1]


def _points(u) -> np.ndarray:
    """The points u as the single row of points that _dense_pair reads."""
    return np.asarray(u, dtype=float).reshape(1, -1)


def design_matrix(basis: SplineBasis, u) -> np.ndarray:
    """S x df matrix of basis function values at the points u.

    The B block of the DERIVATIVE pair of _dense_pair without its constant
    column; that pair also exists at degree 0.
    """
    b_mat, _ = _dense_pair(basis.knots[None, :], basis.degree, _points(u), Representation.DERIVATIVE)
    return b_mat[0, :, 1:]


def derivative_design_matrix(basis: SplineBasis, u) -> np.ndarray:
    """S x df matrix of first-derivative values of the basis functions.

    Needs degree >= 1. The B block of the FUNCTION pair of _dense_pair
    without its constant column; see _derivative_window for the recurrence.
    """
    if basis.degree < 1:
        raise ValueError("derivative needs degree >= 1.")
    b_mat, _ = _dense_pair(basis.knots[None, :], basis.degree, _points(u), Representation.FUNCTION)
    return b_mat[0, :, 1:]


def integral_design_matrix(basis: SplineBasis, u) -> np.ndarray:
    """S x df matrix of running integrals int_{t_min}^{u} B_j.

    The Btil block of the DERIVATIVE pair of _dense_pair without its
    constant column.
    """
    _, btil = _dense_pair(basis.knots[None, :], basis.degree, _points(u), Representation.DERIVATIVE)
    return btil[0, :, 1:]


def augment(mat: np.ndarray, kind: str) -> np.ndarray:
    """Prepend a constant column ("zeros" or "ones") for the free constant."""
    mat = np.asarray(mat, dtype=float)
    if kind == "zeros":
        col = np.zeros((mat.shape[0], 1))
    elif kind == "ones":
        col = np.ones((mat.shape[0], 1))
    else:
        raise ValueError(f"kind must be 'zeros' or 'ones', got {kind!r}.")
    return np.hstack([col, mat])
