"""Clamped B-spline bases on data-driven knots, and the spline projection.

Everything is built on open (clamped) knot vectors: boundary knots repeated
degree+1 times, interior knots at sample quantiles. A basis with `df` degrees
of freedom and degree d carries df + d + 1 knots. Design matrices evaluate
the df basis functions at given points; companion matrices evaluate their
derivatives and running integrals in the same coefficient space, so a single
coefficient vector can be read at the function level and at the derivative
level consistently. A derivative has one formula: the degree d-1 basis of
the same knots times the knot-difference map of _derivative_map.
SplineFunction evaluates without design matrices. Once per call it
converts the spline to a table of its polynomial piece on each nonempty
span (Taylor coefficients about the span midpoint: each level of
_local_basis at the midpoints, dotted with repeated _derivative_map
levels of the coefficients); a point then costs one span lookup, one
gather of a table row and Horner's rule, and a point outside the domain
reads its boundary span's row, which extends that piece. The lookup reads
a uniform grid over the domain (_span_grid), whose cells name the few
spans that can own a point, and gives the owner of _find_spans' binary
search. The fit keeps that search: it looks each branch's points up once
per sweep, too few to repay building the grid. Evaluation takes the
points it is given in one pass; decoupling.predict is the one caller that
splits its points into blocks.

bspline_projection places every branch's knots and builds and solves its
system: _normal_fit from span windows (function representation), or
_dense_pair and _dense_solve (derivative representation; lstsq, or NNLS
under the monotone Constraint).

Conventions that matter downstream:
  * right boundary is closed, the last basis function equals 1 at the domain
    maximum (evaluation there uses the last nonempty span);
  * outside the knot range the boundary polynomial piece is extended, i.e.
    evaluation clamps to the first/last nonempty span instead of zeroing out.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .solvers import NORMAL_KAPPA_MAX, RANK_RCOND, nnls

__all__ = [
    "Representation",
    "Constraint",
    "SplineBasis",
    "SplineFunction",
    "determine_knots",
    "design_matrix",
    "derivative_design_matrix",
    "integral_design_matrix",
    "augment",
    "ProjectionResult",
    "bspline_projection",
    "leaky_relu_fallback",
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


class Constraint(Enum):
    NONE = "none"
    MONOTONE_INCREASING = "increasing"


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

    value and derivative build the level's span table (_span_table) on
    each call and return an array shaped like u; value_reader builds it
    once for a caller that reads many blocks of points into its own
    buffers.
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

    def value_reader(self):
        """value as a function read(u, out) that writes into out, shaped like u, and reuses one span table."""
        order = 0 if self.representation is Representation.FUNCTION else -1
        table = _span_table(self.basis, self.coeffs[1:], order)
        c0 = self.coeffs[0]

        def read(u, out) -> np.ndarray:
            _span_local(table, u, out)
            out += c0
            return out

        return read

    def value(self, u) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return self.value_reader()(u, np.empty(u.shape))

    def derivative(self, u) -> np.ndarray:
        order = 1 if self.representation is Representation.FUNCTION else 0
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return _span_local(_span_table(self.basis, self.coeffs[1:], order), u, np.empty(u.shape))


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


def _nonempty_spans(t: np.ndarray, degree: int) -> np.ndarray:
    """Indices of the nonempty knot spans inside the domain, in order."""
    lo, hi = degree, t.size - degree - 2
    nonempty = np.flatnonzero(np.diff(t) > 0)
    return nonempty[(nonempty >= lo) & (nonempty <= hi)]


def _owners(starts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Position in starts, the sorted left knots of the nonempty spans, of each point's span."""
    return np.clip(np.searchsorted(starts, u, side="right") - 1, 0, starts.size - 1)


def _find_spans(t: np.ndarray, degree: int, u: np.ndarray) -> np.ndarray:
    """Index of the nonempty knot span owning each point.

    One search over the left knots of the nonempty spans: a point belongs
    to the last nonempty span starting at or before it, a point left of the
    domain to the first. Points at or beyond the right boundary (and inside
    empty spans created by coincident knots) thus snap to the nearest
    nonempty span on their left, which is what closes the right boundary
    and extends the boundary polynomial pieces outside the domain.
    """
    nonempty = _nonempty_spans(t, degree)
    return nonempty[_owners(t[nonempty], u)]


def _local_basis(t: np.ndarray, degree: int, spans: np.ndarray, u: np.ndarray):
    """Values of the degree+1 basis functions alive on each point's span.

    Returns (lower, vals), level-major: vals[r] holds B_{span - degree + r,
    degree}(u), shaped like u, so each basis function of the window is one
    contiguous block. lower holds the degree-1 level of the same recursion
    (the functions alive on the same span one degree down), None at degree
    0. Standard knot-difference recursion, row i of u on knot vector t[i];
    denominators are knot spans around a nonempty interval and cannot
    vanish. Each level runs one sum, one division and two products
    over the stacked (j, rows, S) window; one gather reads every knot the
    levels use.
    """
    # flat index of row i's knot k is k + i * t.shape[1]
    at = spans + np.arange(t.shape[0])[:, None] * t.shape[1]
    step = np.arange(1, degree + 1).reshape((-1,) + (1,) * u.ndim)
    knots = np.take(t, np.concatenate([1 - step, step]) + at)
    # left[j - 1] = u - t[span - j + 1], right[j - 1] = t[span + j] - u,
    # both in place: at large S a fresh (degree, rows, S) array per
    # operation costs more than the operation
    left, right = knots[:degree], knots[degree:]
    np.subtract(u, left, out=left)
    right -= u
    vals = np.empty((degree + 1,) + u.shape)
    vals[0] = 1.0
    temp = np.empty((degree,) + u.shape)
    down = np.empty((degree,) + u.shape)
    lower = None
    for j in range(1, degree + 1):
        if j == degree:
            lower = vals[:degree].copy()
        # vals[r] becomes right[r] temp[r] + left[j - r] temp[r - 1]: its
        # own share plus what its left neighbour hands on
        np.add(right[:j], left[j - 1 :: -1], out=temp[:j])
        np.divide(vals[:j], temp[:j], out=temp[:j])
        np.multiply(left[j - 1 :: -1], temp[:j], out=down[:j])
        np.multiply(right[:j], temp[:j], out=vals[:j])
        vals[1:j] += down[: j - 1]
        vals[j] = down[j - 1]
    return lower, vals


def _derivative_map(t: np.ndarray, degree: int) -> np.ndarray:
    """(rows, df + 1, df) map from a degree-d spline's coefficients to its derivative's.

    B'_l = w_l B_{l,d-1} - w_{l+1} B_{l+1,d-1} with w_l = d / (t_{l+d} - t_l)
    for l = 0..df, 0 on an empty span (de Boor), so column l holds w_l in row
    l and -w_{l+1} in row l + 1. The derivative design matrix of knot row i
    is the degree d-1 design matrix of the same knots (df + 1 functions,
    the first and last identically zero on clamped knots) times map[i].
    """
    rows, df = t.shape[0], t.shape[1] - degree - 1
    gaps = t[:, degree:] - t[:, : t.shape[1] - degree]
    w = np.where(gaps > 0, degree / np.where(gaps > 0, gaps, 1.0), 0.0)
    out = np.zeros((rows, df + 1, df))
    col = np.arange(df)
    out[:, col, col] = w[:, :df]
    out[:, col + 1, col] = -w[:, 1:]
    return out


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


def _dense_pair(t: np.ndarray, degree: int, u: np.ndarray):
    """Derivative-representation design pair [0 | B] and [1 | Btil] of every row, each (rows, S, df + 1).

    Row i is one branch: the points u[i] on the knot vector t[i]. B holds
    the degree-d basis values (the spline is g') and Btil their running
    integrals (g), so both read the one coefficient vector [c0, c1..df];
    the leading column carries g's integration constant. One recursion
    gives both levels: the integral needs the degree d+1 level.
    """
    rows, df = t.shape[0], t.shape[1] - degree - 1
    spans = _row_spans(t, degree, u)
    b_mat = np.zeros((rows, u.shape[1], df + 1))
    btil = np.zeros_like(b_mat)
    btil[..., 0] = 1.0
    vals, higher = _local_basis(t, degree + 1, spans, u)
    _scatter(b_mat[..., 1:], vals, spans, degree)
    _integral_into(btil[..., 1:], higher, spans, t, degree)
    return b_mat, btil


def _normal_fit(t: np.ndarray, degree: int, u: np.ndarray, g: np.ndarray, r: np.ndarray, lam: float):
    """FUNCTION-representation fit of rows of (g, r) with c0 = 0.

    Row i is one branch: samples g[i] of g' and r[i] of g at the points
    u[i] on the knot vector t[i]. With A = [B; sqrt(lam) Btil] the stacked
    design of B = derivative design matrix and Btil = design matrix, the
    normal matrix is B^T B + lam Btil^T Btil. Btil^T Btil is the banded
    Gram of the degree-d windows; B = D M, with D the degree d-1 design
    matrix and M the map of _derivative_map, so B^T B = M^T (D^T D) M.

    A row is solved from its normal equations when their eigenvalues put
    kappa(A) at or below NORMAL_KAPPA_MAX, i.e. lambda_min > lambda_max /
    NORMAL_KAPPA_MAX**2 (one batched eigvalsh; a NaN fails the test); one
    batched Cholesky factors those rows, and neither B nor Btil is formed.
    Each other row scatters its windows into B and Btil and takes the
    min-norm lstsq solution of _dense_solve.

    Returns (c, g_fit, r_fit): c[i] the df spline coefficients, g_fit[i]
    and r_fit[i] the fitted samples.
    """
    rows, df = t.shape[0], t.shape[1] - degree - 1
    spans = _row_spans(t, degree, u)
    lower, vals = _local_basis(t, degree, spans, u)
    first = spans - degree
    # the degree d-1 window of the same span starts one basis function later
    first_lower = first + 1
    diff = _derivative_map(t, degree)
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
    solved = eig[:, 0] > eig[:, -1] / NORMAL_KAPPA_MAX**2
    c = np.zeros((rows, df, 1))
    if solved.any():
        lo = np.linalg.cholesky(normal[solved])
        c[solved] = np.linalg.solve(np.swapaxes(lo, 1, 2), np.linalg.solve(lo, rhs[solved]))
    c = c[..., 0]
    for i in np.flatnonzero(~solved):
        b_mat = _scatter(np.zeros((u.shape[1], df + 1)), lower[:, i], spans[i], degree - 1) @ diff[i]
        btil = _scatter(np.zeros((u.shape[1], df)), vals[:, i], spans[i], degree)
        c[i] = _dense_solve(b_mat, btil, g[i], r[i], lam, Constraint.NONE)
    g_fit = _window_values(lower, first_lower, (diff @ c[..., None])[..., 0])
    r_fit = _window_values(vals, first, c)
    return c, g_fit, r_fit


def _check_projection_args(lam, representation, constraint) -> None:
    """Reject a coupling weight that is not positive and finite, and a
    constraint the representation cannot express."""
    if not 0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}.")
    if (
        constraint is Constraint.MONOTONE_INCREASING
        and representation is not Representation.DERIVATIVE
    ):
        # nonnegative coefficients on g itself would force g >= 0,
        # not monotonicity, so reject instead of silently reinterpreting
        raise ValueError(
            "MONOTONE_INCREASING requires the DERIVATIVE representation."
        )


@dataclass(frozen=True)
class ProjectionResult:
    """Spline-projected G and R plus what produced them.

    coeffs[j] is the df+1 coefficient vector [c0, c1..df] of branch j, or
    None when the fallback replaced that branch this sweep. A collapsed
    branch has only c0; every other FUNCTION branch has c0 = 0 (the spline
    block carries the constant).
    knots[j] is its knot vector and bases[j] its SplineBasis, built from
    knots and degree (the basis degree, one less than the branch degree
    under DERIVATIVE) when first read.
    """

    G: np.ndarray
    R: np.ndarray
    coeffs: tuple
    knots: np.ndarray
    degree: int
    fallback: tuple

    @cached_property
    def bases(self) -> tuple:
        df = self.knots.shape[1] - self.degree - 1
        return tuple(SplineBasis(degree=self.degree, df=df, knots=k) for k in self.knots)


# slope of the fallback's derivative below zero; negative, so that
# slope * u >= 0 there and the fallback branch is increasing everywhere
FALLBACK_SLOPE = -0.5


def leaky_relu_fallback(u) -> tuple[np.ndarray, np.ndarray]:
    """Replacement branch samples when the constrained fit collapses to zero.

    Derivative column gets L(u) = u for u >= 0 and FALLBACK_SLOPE * u below
    (nonnegative everywhere); function column gets the antiderivative of L
    anchored at 0.
    """
    u = np.asarray(u, dtype=float)
    g_col = np.where(u >= 0, u, FALLBACK_SLOPE * u)
    r_col = np.where(u >= 0, 0.5 * u * u, FALLBACK_SLOPE * 0.5 * u * u)
    return g_col, r_col


def _nonneg_stacked(a, y, warm=None) -> np.ndarray:
    """min ||a c - y|| over c with c[1:] >= 0, for the stacked [B; sqrt(lam) Btil].

    The free constant is eliminated by projecting the stacked system onto
    the orthogonal complement of its column, running NNLS there, and
    recovering c[0] from its closed-form optimum afterwards. The split is
    exact because the objective separates along that column. A warm
    coefficient vector (the branch's last fit, or None) seeds the NNLS
    with its c[1:].
    """
    a0 = a[:, 0]
    rest = a[:, 1:]
    nrm2 = float(a0 @ a0)  # the ones column makes this lam * S > 0
    mix = (a0 @ rest) / nrm2
    x0 = None if warm is None else warm[1:]
    res = nnls(rest - np.outer(a0, mix), y - a0 * float(a0 @ y / nrm2), x0=x0)
    if res.cap_exceeded:
        warnings.warn("nnls hit its iteration cap during projection", stacklevel=2)
    c_plus = res.solution
    c0 = float(a0 @ (y - rest @ c_plus) / nrm2)
    return np.concatenate([[c0], c_plus])


def _dense_solve(b_mat, btil, g, r, lam: float, constraint: Constraint, warm=None) -> np.ndarray:
    """Coefficients of one branch from its stacked system [B; sqrt(lam) Btil] c ~ [g; sqrt(lam) r].

    b_mat and btil are one branch's pair, g and r its samples of g' and g.
    Without a constraint the solve is lstsq (the min-norm solution where
    the system is rank-deficient), under MONOTONE_INCREASING
    _nonneg_stacked, seeded with warm.
    """
    root = np.sqrt(lam)
    a = np.vstack([b_mat, root * btil])
    y = np.concatenate([g, root * r])
    if constraint is Constraint.NONE:
        return np.linalg.lstsq(a, y, rcond=RANK_RCOND)[0]
    return _nonneg_stacked(a, y, warm)


def bspline_projection(
    G,
    R,
    df: int,
    degree: int,
    x_samples,
    lam: float,
    representation: Representation,
    constraint: Constraint,
    warm=None,
) -> ProjectionResult:
    """Project each (G, R) column pair onto one spline coefficient vector.

    Branch j gets knots from the quantiles of row j of x_samples. Its
    derivative column G[:, j] and function column R[:, j] are fitted
    jointly (function block weighted by lam > 0) and overwritten by the
    fitted spline values. The branches share one sort of x_samples and one
    knot pass; each branch then takes one of these routes:

    * a collapsed input row (zero or float-coincident spread) gets the best
      constant, in c0;
    * under FUNCTION, every branch is solved by _normal_fit with the free
      constant dropped (c0 = 0; the basis sums to one, so that column only
      repeated the spline block's constant): from its banded normal
      equations, or by _dense_solve's lstsq when its kappa(A) is above
      NORMAL_KAPPA_MAX;
    * under DERIVATIVE, every branch is written into the stacked system
      [B; sqrt(lam) Btil] of _dense_pair, with the constant column (g's
      integration constant), and solved alone by _dense_solve: by lstsq
      (the min-norm solution where it is rank-deficient), or under
      MONOTONE_INCREASING by NNLS on the spline block. If NNLS returns all
      zeros the branch is replaced by leaky ReLU samples for this sweep
      instead (coeffs entry None).

    warm, when given, is the coeffs of the previous projection: each
    constrained branch starts its NNLS from its own previous coefficients
    (a None or all-zero entry starts cold). The NNLS result does not depend
    on its start beyond the free set it ends on (see solvers.nnls), so
    this only saves solves; the unconstrained arm ignores warm.

    A lam that is not positive and finite, and MONOTONE_INCREASING under
    FUNCTION, are rejected with CmtfConfig's messages: no fit sends them.
    """
    _check_projection_args(lam, representation, constraint)
    G = np.array(G, dtype=float)
    R = np.array(R, dtype=float)
    x = np.asarray(x_samples, dtype=float)
    r = G.shape[1]
    basis_degree = degree if representation is Representation.FUNCTION else degree - 1
    knots = np.empty((r, df + basis_degree + 1))
    coeffs = [None] * r
    fallback = [False] * r
    xs = np.sort(x, axis=1)
    width = xs[:, -1] - xs[:, 0]
    peak = np.abs(xs[:, [0, -1]]).max(axis=1)
    # a collapsed input row (dead rank-one component, W0 row driven to zero
    # or to float-coincident values) admits only constant branches; fit the
    # best constant instead of handing the basis a domain narrower than its
    # own rounding error
    collapsed = (width == 0) | (width <= 1e-13 * peak) | (peak < 1e-200)
    for j in np.flatnonzero(collapsed):
        const = float(R[:, j].mean())
        spread = np.linspace(x[j, 0] - 1.0, x[j, 0] + 1.0, df + basis_degree + 2)
        knots[j] = _sorted_knots(spread[None, :], df, basis_degree)[0]
        coeffs[j] = np.zeros(df + 1)
        coeffs[j][0] = const
        G[:, j] = 0.0
        R[:, j] = const
    live = np.flatnonzero(~collapsed)
    if live.size:
        t = _sorted_knots(xs[live], df, basis_degree)
        knots[live] = t
        u = x[live]
        if representation is Representation.FUNCTION:
            c, g_fit, r_fit = _normal_fit(t, basis_degree, u, G[:, live].T, R[:, live].T, lam)
            G[:, live] = g_fit.T
            R[:, live] = r_fit.T
            for j, cj in zip(live, c):
                coeffs[j] = np.concatenate([[0.0], cj])
        else:
            b_mats, btils = _dense_pair(t, basis_degree, u)
            for j, b_mat, btil in zip(live, b_mats, btils):
                c = _dense_solve(b_mat, btil, G[:, j], R[:, j], lam, constraint,
                                 None if warm is None else warm[j])
                if constraint is not Constraint.NONE and np.all(c[1:] == 0):
                    G[:, j], R[:, j] = leaky_relu_fallback(x[j])
                    fallback[j] = True
                    continue
                G[:, j] = b_mat @ c
                R[:, j] = btil @ c
                coeffs[j] = c
    return ProjectionResult(
        G=G, R=R, coeffs=tuple(coeffs), knots=knots, degree=basis_degree, fallback=tuple(fallback)
    )


def _assemble_branches(proj: ProjectionResult, x, lam, representation: Representation, constraint: Constraint):
    """Turn the projection proj, made at the branch inputs x, into SplineFunctions.

    Returns (branches, G, R), G and R copies of proj's. A branch that ended
    on the fallback has no coefficients yet; refit the constrained spline to
    its fallback columns and overwrite them so the stored branch and the
    final G, R agree (predict must reproduce W1 R^T on the training samples).
    """
    G = np.array(proj.G, dtype=float)
    R = np.array(proj.R, dtype=float)
    branches = []
    for j, (c, basis, fb) in enumerate(zip(proj.coeffs, proj.bases, proj.fallback)):
        if fb:
            (b_mat,), (btil,) = _dense_pair(proj.knots[j : j + 1], proj.degree, x[j : j + 1])
            c = _dense_solve(b_mat, btil, G[:, j], R[:, j], lam, constraint)
            G[:, j] = b_mat @ c
            R[:, j] = btil @ c
        branches.append(SplineFunction(basis=basis, coeffs=c, representation=representation))
    return tuple(branches), G, R


def _span_table(basis: SplineBasis, cs: np.ndarray, order: int):
    """Per-span polynomial pieces of sum_j cs[j] * (B_j, B_j' or int B_j), for _span_local.

    order 0 reads the basis functions, 1 their first derivatives (degree
    >= 1) and -1 their running integrals from the left end of the domain.
    Returns (grid, mids, table): the _span_grid index of the nonempty
    spans' left knots, the midpoint c_s of each nonempty span, and
    table[k, s] = f^(k)(c_s) / k!, the Taylor coefficients of that span's
    piece f about c_s (de Boor's B-form to pp-form). The m-th derivative of
    the spline is the degree d-m spline of the same knots whose
    coefficients are m applications of _derivative_map to cs; its value at
    c_s is the degree d-m level of _local_basis there, dotted by
    _window_values with those coefficients. The integral level's constant
    term is the running integral at c_s: the degree d+1 level, weighted by
    the prefix sums of cs[j] * (t_{j+d+1} - t_j)/(d+1) (the integral of B_j
    is that step times the sum of the higher-level functions past j). Its
    k-th term is the spline's (k-1)-th derivative there divided by k!: the
    termwise integral of the spline's own pieces.
    """
    t, d = basis.knots, basis.degree
    if order == 1 and d < 1:
        raise ValueError("derivative needs degree >= 1.")
    spans = _nonempty_spans(t, d)
    mids = 0.5 * (t[spans] + t[spans + 1])

    def at_mids(degree, first, weights):
        # weights[first[s] + a] weighs the a-th function alive on span s
        _, window = _local_basis(t[None, :], degree, spans[None, :], mids[None, :])
        return _window_values(window, first[None, :], weights[None, :])[0]

    levels = []
    if order == -1:
        steps = _integral_steps(t, d, cs.size)
        levels.append(at_mids(d + 1, spans - d, np.concatenate([[0.0], np.cumsum(cs * steps)])))
    coef = cs
    for m in range(d + 1):
        if m >= order:
            levels.append(at_mids(d - m, spans - (d - m), coef))
        if m < d:
            coef = _derivative_map(t[None, :], d - m)[0] @ coef
    table = np.stack([level / math.factorial(k) for k, level in enumerate(levels)])
    return _span_grid(t[spans], t[-1]), mids, table


# Most cells of the span grid per span start: the grid is made fine enough
# for the narrowest span to cover a cell, but no finer than this.
_GRID_CELLS_PER_SPAN = 64


def _span_grid(starts: np.ndarray, end: float):
    """Uniform-grid index of the sorted span starts over [starts[0], end], for _grid_owners.

    A point v in [starts[0], end] falls in cell int(v * inv_h - shift),
    with inv_h = m / (end - starts[0]) and shift = starts[0] * inv_h; the
    cells are numbered 0 up to end's. Each rounding step is monotone in v,
    so every start in a cell below v's lies at or before v and every start
    in a cell above it after v, whatever the rounding: only the starts
    sharing v's cell need comparing. m is the smallest count that makes a
    cell no wider than the narrowest span, capped at _GRID_CELLS_PER_SPAN
    per start, so a cell usually holds one start at most. Crowded knots
    put more into one cell, which costs comparisons, not correctness; a
    domain too wide or too narrow for inv_h to be finite and nonzero gets
    one cell.

    Returns (lo, end, inv_h, shift, last, window, padded): last[c], the
    position of the last start in cells 0..c; window, the most starts in
    one cell; padded, the starts after window - 1 copies of -inf, so that
    padded[last[c] + k], k < window, are the window starts ending at
    last[c].
    """
    lo, end = float(starts[0]), float(end)
    width = end - lo
    cap = _GRID_CELLS_PER_SPAN * starts.size
    # a gap or the width may overflow to inf (and inf / inf is NaN): such a
    # domain gets one cell, so the overflow needs no warning
    with np.errstate(over="ignore"):
        ratio = width / float(np.min(np.diff(starts, append=end)))
    inv_h = (math.ceil(ratio) if ratio < cap else cap) / width
    if not 0.0 < inv_h < math.inf:
        inv_h = 0.0
    shift = lo * inv_h
    cells = (starts * inv_h - shift).astype(np.intp)
    counts = np.bincount(cells, minlength=int(end * inv_h - shift) + 1)
    window = int(counts.max())
    padded = np.concatenate([np.full(window - 1, -np.inf), starts])
    return lo, end, inv_h, shift, np.cumsum(counts) - 1, window, padded


def _grid_owners(grid, u: np.ndarray) -> np.ndarray:
    """_owners(starts, u) through the _span_grid index of starts; a NaN point gets 0.

    A point is first clamped into [starts[0], end] (a NaN to starts[0]),
    which moves no point to another owner. Its owner is last[c] of its
    cell c less the window starts ending there that lie right of it; that
    needs no clip, as starts[0] lies at or before every clamped point.
    """
    lo, end, inv_h, shift, last, window, padded = grid
    v = np.fmin(np.fmax(u, lo), end)
    cell = v * inv_h
    cell -= shift
    at = np.take(last, cell.astype(np.intp))
    own = at
    for k in range(window):
        own = own - (np.take(padded[k:], at) > v)
    return own


def _span_local(table, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A spline level at the points u from its _span_table, written into out (shaped like u) and returned.

    Each point takes one lookup of its span, one gather of that span's
    Taylor coefficients and Horner's rule in u - c_s. The dense
    design_matrix, derivative_design_matrix and integral_design_matrix
    products are the reference. The lookup is _grid_owners on the table's
    uniform grid over the domain: one cell index, one gather and, on the
    usual knots, one comparison per point. It gives every point the owner
    that _find_spans' binary search gives, at about a third of the
    search's cost. The fit keeps the search: there each branch's points
    are looked up once per sweep, too few to repay the grid's build.

    A point outside the domain is clamped to the boundary span for the
    lookup only, so Horner's rule extends that span's piece. Unlike a
    per-point Cox-de Boor recursion, whose knot differences cancel out
    there, it keeps its digits until a power of u - c_s overflows (within
    4.2e-16 relative of the exact value from u = 1e4 to 1e16 on a degree-3
    branch over [0, 1]). The points are read in one pass, so every work
    array is the size of u; decoupling.predict hands over one block at a
    time.
    """
    grid, mids, coef = table
    own = _grid_owners(grid, u)
    x = u - np.take(mids, own)
    np.take(coef[-1], own, out=out)
    for row in coef[-2::-1]:
        out *= x
        out += np.take(row, own)
    return out


def _points(u) -> np.ndarray:
    """The points u as the single row of points that _dense_pair reads."""
    return np.asarray(u, dtype=float).reshape(1, -1)


def design_matrix(basis: SplineBasis, u) -> np.ndarray:
    """S x df matrix of basis function values at the points u.

    The B block of _dense_pair without its constant column; that pair also
    exists at degree 0.
    """
    b_mat, _ = _dense_pair(basis.knots[None, :], basis.degree, _points(u))
    return b_mat[0, :, 1:]


def derivative_design_matrix(basis: SplineBasis, u) -> np.ndarray:
    """S x df matrix of first-derivative values of the basis functions.

    Needs degree >= 1. The degree d-1 design matrix of the same knots
    times _derivative_map.
    """
    if basis.degree < 1:
        raise ValueError("derivative needs degree >= 1.")
    t = basis.knots[None, :]
    lower, _ = _dense_pair(t, basis.degree - 1, _points(u))
    return lower[0, :, 1:] @ _derivative_map(t, basis.degree)[0]


def integral_design_matrix(basis: SplineBasis, u) -> np.ndarray:
    """S x df matrix of running integrals int_{t_min}^{u} B_j.

    The Btil block of _dense_pair without its constant column.
    """
    _, btil = _dense_pair(basis.knots[None, :], basis.degree, _points(u))
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
