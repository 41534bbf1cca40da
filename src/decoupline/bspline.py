"""Clamped B-spline bases on data-driven knots.

Everything is built on open (clamped) knot vectors: boundary knots repeated
degree+1 times, interior knots at sample quantiles. A basis with `df` degrees
of freedom and degree d carries df + d + 1 knots. Design matrices evaluate
the df basis functions at given points; companion matrices evaluate their
derivatives and running integrals in the same coefficient space, so a single
coefficient vector can be read at the function level and at the derivative
level consistently. SplineFunction evaluates without them: each point reads
only the few basis functions alive on its knot span.

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
    gaps = t[:, degree:] - t[:, : t.shape[1] - degree]  # t_{l+d} - t_l for l = 0..df
    w = np.where(gaps > 0, degree / np.where(gaps > 0, gaps, 1.0), 0.0)
    cols = spans - degree + np.arange(degree + 2).reshape((-1,) + (1,) * spans.ndim)
    w = w[np.arange(t.shape[0])[:, None], cols]
    padded = np.zeros((degree + 2,) + lower.shape[1:])
    padded[1:-1] = lower
    return padded[:-1] * w[:-1] - padded[1:] * w[1:]


def _scatter(out: np.ndarray, window: np.ndarray, spans: np.ndarray, degree: int) -> np.ndarray:
    """Write each point's level-major span-local values into its row of out, from column span - degree on."""
    cols = spans - degree + np.arange(window.shape[0])[:, None]
    out[np.arange(spans.size), cols] = window
    return out


def _integral_steps(t: np.ndarray, degree: int, df: int) -> np.ndarray:
    """(t_{j+d+1} - t_j)/(d+1): the integral of B_j over the whole domain."""
    return (t[degree + 1 :] - t[:df]) / (degree + 1)


def _integral_into(out: np.ndarray, higher: np.ndarray, spans: np.ndarray, t: np.ndarray, degree: int) -> np.ndarray:
    """Running integrals int_{t_min}^{u} B_j of a degree-d basis, written into out.

    The antiderivative of a degree-d basis expansion is a degree-(d+1)
    spline on the knot vector padded with one extra boundary knot on each
    side. Its spans are the plain spans shifted by one, so higher, the
    degree d+1 level of _local_basis on the plain knots t, holds its values.
    Column j collects the tail sum of the higher-degree functions scaled by
    (t_{j+d+1} - t_j)/(d+1).
    """
    df = out.shape[1]
    higher = _scatter(np.zeros((spans.size, df + 1)), higher, spans, degree)
    # integral of B_j is dt[j] * sum of higher-degree functions with index > j
    tails = np.cumsum(higher[:, ::-1], axis=1)[:, ::-1]
    np.multiply(tails[:, 1:], _integral_steps(t, degree, df), out=out)
    return out


def _pair_windows(t: np.ndarray, degree: int, spans: np.ndarray, u: np.ndarray, representation: Representation):
    """Span-local values of the design pair (B, Btil) for every row at once.

    B is the derivative level and Btil the function level of a branch whose
    spline has the given degree under the representation. One recursion
    gives both, level-major. FUNCTION: Btil is the degree-d level and B
    comes from its degree d-1 level. DERIVATIVE: B is the degree-d level
    and Btil, the integral, needs the degree d+1 level.
    """
    if representation is Representation.FUNCTION:
        lower, vals = _local_basis(t, degree, spans, u, below=True)
        return _derivative_window(t, degree, spans, lower), vals
    return _local_basis(t, degree + 1, spans, u, below=True)


def _fill_pair(b_mat, btil, b_win, btil_win, spans, t, degree, representation) -> None:
    """Write one row's augmented pair [0 | B] and [1 | Btil] into b_mat and btil.

    b_win, btil_win, spans and t are that row's entries of _pair_windows,
    _find_spans and the knot rows; both outputs are S x (df + 1).
    """
    b_mat.fill(0.0)
    _scatter(b_mat[:, 1:], b_win, spans, degree)
    btil[:, 0] = 1.0
    if representation is Representation.FUNCTION:
        btil[:, 1:] = 0.0
        _scatter(btil[:, 1:], btil_win, spans, degree)
    else:
        _integral_into(btil[:, 1:], btil_win, spans, t, degree)


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


def design_matrix(basis: SplineBasis, u) -> np.ndarray:
    """S x df matrix of basis function values at the points u."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    t, d = basis.knots, basis.degree
    spans = _find_spans(t, d, u)
    _, local = _local_basis(t[None, :], d, spans[None, :], u[None, :])
    return _scatter(np.zeros((u.size, basis.df)), local[:, 0], spans, d)


def derivative_design_matrix(basis: SplineBasis, u) -> np.ndarray:
    """S x df matrix of first-derivative values of the basis functions.

    Needs degree >= 1; see _derivative_window for the recurrence.
    """
    t, d = basis.knots, basis.degree
    if d < 1:
        raise ValueError("derivative needs degree >= 1.")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    spans = _find_spans(t, d, u)
    _, lower = _local_basis(t[None, :], d - 1, spans[None, :], u[None, :])
    window = _derivative_window(t[None, :], d, spans[None, :], lower)
    return _scatter(np.zeros((u.size, basis.df)), window[:, 0], spans, d)


def integral_design_matrix(basis: SplineBasis, u) -> np.ndarray:
    """S x df matrix of running integrals int_{t_min}^{u} B_j."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    t, d = basis.knots, basis.degree
    spans = _find_spans(t, d, u)
    _, higher = _local_basis(t[None, :], d + 1, spans[None, :], u[None, :])
    return _integral_into(np.empty((u.size, basis.df)), higher[:, 0], spans, t, d)


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
