"""Alternating factorization that splits f(x) into W1 g(W0 x).

The Jacobian tensor J (slice k = W1 diag(g'(u_k)) W0) is factored jointly
with the zeroth-order matrix F ~ W1 R^T. Alternating least squares cycles
through W1, W0, G (derivative samples) and R (function samples); after each
sweep every (G, R) column pair is projected onto a single B-spline
coefficient vector, so column j of G and R stay consistent samples of g'_j
and g_j for one branch function g_j. Optionally the projection runs under a
nonnegativity constraint on the spline block, which certifies each branch
as monotone increasing.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .bspline import (
    Representation,
    SplineBasis,
    SplineFunction,
    _fill_pair,
    _find_spans,
    _pair_windows,
    _sorted_knots,
)
from .solvers import RANK_RCOND, lstsq, nnls, stacked_lstsq
from .tensor3 import Tensor3, frob_norm_sq, khatri_rao, unfold

__all__ = [
    "Constraint",
    "Certification",
    "CmtfConfig",
    "FitState",
    "DecoupledModel",
    "ProjectionResult",
    "decouple",
    "normalize_columns_w0t",
    "bspline_projection",
    "leaky_relu_fallback",
    "objective",
    "objective_terms",
    "predict",
    "certify_monotone",
    "save_model",
    "load_model",
    "write_diagnostics",
    "CERT_COEFF_TOL",
]

# slack on the coefficient sign test used for monotonicity certificates
CERT_COEFF_TOL = -1e-12


class Constraint(Enum):
    NONE = "none"
    MONOTONE_INCREASING = "increasing"


class Certification(Enum):
    CERTIFIED_INCREASING = "certified_increasing"
    NOT_CERTIFIED = "not_certified"


@dataclass(frozen=True)
class CmtfConfig:
    """Settings for one decoupling run.

    rank: number of branch functions r.
    degree: polynomial degree d of the branch functions.
    df: degrees of freedom (basis functions) per branch.
    lam: coupling weight on the zeroth-order term.
    lambda_schedule: "fixed", or "geometric" to grow lam by lambda_factor
        each iteration (clipped at lambda_cap when set).
    representation: FUNCTION fits the spline to g, DERIVATIVE to g'.
    constraint: MONOTONE_INCREASING forces nonnegative spline coefficients
        (derivative representation only, where that means g' >= 0).
    max_iter / rel_tol: stop after max_iter sweeps or when the relative
        objective change over one sweep drops below rel_tol.
    seed / init_scale: reproducible random init; W0 entries are standard
        normal times init_scale, G and R standard normal. W1 needs no init
        because the first sweep produces it.
    """

    rank: int
    degree: int
    df: int
    lam: float = 0.1
    lambda_schedule: str = "fixed"
    lambda_factor: float = 1.0
    lambda_cap: float | None = None
    representation: Representation = Representation.FUNCTION
    constraint: Constraint = Constraint.NONE
    max_iter: int = 200
    rel_tol: float = 1e-8
    seed: int = 0
    init_scale: float = 1.0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}.")
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}.")
        if self.df <= self.degree:
            raise ValueError(
                f"df must exceed degree, got df={self.df}, degree={self.degree}."
            )
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}.")
        if self.lambda_schedule not in ("fixed", "geometric"):
            raise ValueError(
                f"lambda_schedule must be 'fixed' or 'geometric', got {self.lambda_schedule!r}."
            )
        if self.lambda_schedule == "geometric" and not self.lambda_factor > 0:
            raise ValueError(f"lambda_factor must be positive, got {self.lambda_factor}.")
        if self.lambda_cap is not None and not self.lambda_cap > 0:
            raise ValueError(f"lambda_cap must be positive, got {self.lambda_cap}.")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}.")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}.")
        if not self.init_scale > 0:
            raise ValueError(f"init_scale must be positive, got {self.init_scale}.")
        if not isinstance(self.representation, Representation):
            raise ValueError(f"bad representation {self.representation!r}.")
        if not isinstance(self.constraint, Constraint):
            raise ValueError(f"bad constraint {self.constraint!r}.")
        if (
            self.constraint is Constraint.MONOTONE_INCREASING
            and self.representation is not Representation.DERIVATIVE
        ):
            # nonnegative coefficients on g itself would force g >= 0,
            # not monotonicity, so reject instead of silently reinterpreting
            raise ValueError(
                "MONOTONE_INCREASING requires the DERIVATIVE representation."
            )

    def lam_at(self, iteration: int) -> float:
        """Coupling weight in effect at a given sweep (0-based)."""
        if self.lambda_schedule == "fixed":
            return self.lam
        lam = self.lam * self.lambda_factor**iteration
        if self.lambda_cap is not None:
            lam = min(lam, self.lambda_cap)
        return lam


@dataclass
class FitState:
    """Mutable state of one run: factors, sweep counter, objective history.

    history rows are (objective, tensor_term, coupling_term) per sweep.
    """

    W1: np.ndarray
    W0: np.ndarray
    G: np.ndarray
    R: np.ndarray
    iterations: int = 0
    history: list = field(default_factory=list)


@dataclass(frozen=True)
class DecoupledModel:
    """Fitted model f(x) = W1 g(W0 x) with spline branches g."""

    W1: np.ndarray
    W0: np.ndarray
    branches: tuple
    config: CmtfConfig


@dataclass(frozen=True)
class ProjectionResult:
    """Spline-projected G and R plus what produced them.

    coeffs[j] is the df+1 coefficient vector of branch j, or None when the
    fallback replaced that branch this sweep; knots[j] is its knot vector
    and bases[j] its SplineBasis, built from knots and degree (the basis
    degree, one less than the branch degree under DERIVATIVE) when first
    read.
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


def objective_terms(J: Tensor3, F, W1, W0, G, R) -> tuple[float, float]:
    """Squared tensor residual and squared coupling residual, unweighted."""
    recon = np.einsum("ir,jr,kr->ijk", W1, W0.T, G)
    tensor_term = frob_norm_sq(J.data - recon)
    coupling_term = frob_norm_sq(np.asarray(F, dtype=float) - W1 @ R.T)
    return tensor_term, coupling_term


def objective(J: Tensor3, F, W1, W0, G, R, lam: float) -> float:
    """Coupled objective: tensor residual plus lam times coupling residual."""
    tensor_term, coupling_term = objective_terms(J, F, W1, W0, G, R)
    return tensor_term + lam * coupling_term


def normalize_columns_w0t(W0: np.ndarray, W1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale so every column of W0^T (row of W0) has unit norm.

    The norm moves into the matching column of W1, which leaves the tensor
    reconstruction unchanged. Zero rows are skipped with a warning.
    """
    W0 = np.array(W0, dtype=float)
    W1 = np.array(W1, dtype=float)
    # scale rows before squaring: a subnormal row must yield its tiny norm,
    # not underflow to an exact zero and dodge normalization entirely
    peak = np.abs(W0).max(axis=1)
    denom = np.where(peak == 0, 1.0, peak)
    beta = peak * np.linalg.norm(W0 / denom[:, None], axis=1)
    zero = beta == 0
    if zero.any():
        warnings.warn("zero column of W0^T skipped during normalization", stacklevel=2)
    scale = np.where(zero, 1.0, beta)
    return W0 / scale[:, None], W1 * scale[None, :]


def leaky_relu_fallback(u, slope: float = -0.5) -> tuple[np.ndarray, np.ndarray]:
    """Replacement branch samples when the constrained fit collapses to zero.

    Derivative column gets L(u) = u for u >= 0 and slope*u below (with
    slope = -0.5 that is nonnegative everywhere); function column gets the
    antiderivative of L anchored at 0.
    """
    u = np.asarray(u, dtype=float)
    g_col = np.where(u >= 0, u, slope * u)
    r_col = np.where(u >= 0, 0.5 * u * u, slope * 0.5 * u * u)
    return g_col, r_col


def _branch_matrices(basis: SplineBasis, u, representation: Representation):
    """Augmented design pair (B for the derivative column, Btil for the
    function column) sharing one coefficient vector [c0, c1..df]."""
    t, d = basis.knots, basis.degree
    u = np.asarray(u, dtype=float)
    spans = _find_spans(t, d, u)
    b_win, btil_win = _pair_windows(t[None, :], d, spans[None, :], u[None, :], representation)
    b_mat = np.empty((u.size, basis.df + 1))
    btil = np.empty_like(b_mat)
    _fill_pair(b_mat, btil, b_win[:, 0], btil_win[:, 0], spans, t, d, representation)
    return b_mat, btil


def _nonneg_coeffs(b_mat, btil, g_col, r_col, lam) -> np.ndarray:
    """Stacked fit of one branch with c[1:] >= 0 and c[0] free."""
    root = np.sqrt(lam)
    return _nonneg_stacked(
        np.vstack([b_mat, root * btil]), np.concatenate([g_col, root * r_col])
    )


def _nonneg_stacked(a, y) -> np.ndarray:
    """min ||a c - y|| over c with c[1:] >= 0, for the stacked [B; sqrt(lam) Btil].

    The free constant is eliminated by projecting the stacked system onto
    the orthogonal complement of its column, running NNLS there, and
    recovering c[0] from its closed-form optimum afterwards. The split is
    exact because the objective separates along that column.
    """
    a0 = a[:, 0]
    rest = a[:, 1:]
    nrm2 = float(a0 @ a0)  # the ones column makes this lam * S > 0
    mix = (a0 @ rest) / nrm2
    res = nnls(rest - np.outer(a0, mix), y - a0 * float(a0 @ y / nrm2))
    if res.cap_exceeded:
        warnings.warn("nnls hit its iteration cap during projection", stacklevel=2)
    c_plus = res.solution
    c0 = float(a0 @ (y - rest @ c_plus) / nrm2)
    return np.concatenate([[c0], c_plus])


def bspline_projection(
    G,
    R,
    df: int,
    degree: int,
    x_samples,
    lam: float,
    representation: Representation,
    constraint: Constraint,
) -> ProjectionResult:
    """Project each (G, R) column pair onto one spline coefficient vector.

    Branch j gets knots from the quantiles of row j of x_samples. Its
    derivative column G[:, j] and function column R[:, j] are fitted
    jointly (function block weighted by lam) and overwritten by the fitted
    spline values. Under MONOTONE_INCREASING the spline block is solved by
    NNLS; if that returns all zeros the branch is replaced by leaky ReLU
    samples for this sweep instead (coeffs entry None).

    The branches share one sort of x_samples, one quantile call, one span
    search per row and one basis recursion; each branch's blocks are then
    written into one stacked system [B; sqrt(lam) Btil] and solved alone.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}.")
    G = np.array(G, dtype=float)
    R = np.array(R, dtype=float)
    x = np.asarray(x_samples, dtype=float)
    s, r = G.shape
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
        spans = np.stack([_find_spans(k, basis_degree, p) for k, p in zip(t, u)])
        b_win, btil_win = _pair_windows(t, basis_degree, spans, u, representation)
        root = np.sqrt(lam)
        # lam = 0 drops the function block, as stacked_lstsq does
        rows = s if lam == 0 else 2 * s
        a = np.empty((2 * s, df + 1))
        y = np.empty(2 * s)
        btil = np.empty((s, df + 1))
        for i, j in enumerate(live):
            _fill_pair(a[:s], btil, b_win[:, i], btil_win[:, i], spans[i], t[i], basis_degree, representation)
            np.multiply(root, btil, out=a[s:])
            y[:s] = G[:, j]
            np.multiply(root, R[:, j], out=y[s:])
            if constraint is Constraint.NONE:
                c = np.linalg.lstsq(a[:rows], y[:rows], rcond=RANK_RCOND)[0]
            else:
                c = _nonneg_stacked(a, y)
                if np.all(c[1:] == 0):
                    G[:, j], R[:, j] = leaky_relu_fallback(u[i])
                    fallback[j] = True
                    continue
            G[:, j] = a[:s] @ c
            R[:, j] = btil @ c
            coeffs[j] = c
    return ProjectionResult(
        G=G, R=R, coeffs=tuple(coeffs), knots=knots, degree=basis_degree, fallback=tuple(fallback)
    )


def _warn_rank(result, step: str, warned: set) -> None:
    if result.rank_deficient and step not in warned:
        warned.add(step)
        warnings.warn(f"rank-deficient system in {step}", stacklevel=3)


# factor entries beyond this would overflow the squared norms formed from
# next sweep's Khatri-Rao products; abort as divergence instead of letting
# the least-squares backend blow up on non-finite input
_DIVERGENCE_CAP = 1e60


def _check_diverged(name: str, arr, it: int) -> None:
    if not np.all(np.isfinite(arr)) or np.abs(arr).max() > _DIVERGENCE_CAP:
        raise RuntimeError(
            f"fit diverged at iteration {it}: {name} is non-finite or overflowing."
        )


def decouple(J, F, samples, config: CmtfConfig, trace: list | None = None):
    """Fit W1 g(W0 x) to a Jacobian tensor and zeroth-order matrix.

    J: n x m x S Jacobian tensor (Tensor3 or 3-d array), slice k holding
       the Jacobian of f at sample k.
    F: n x S matrix of function values at the samples.
    samples: m x S matrix of sample points.

    One sweep updates W1 (coupled fit of the mode-1 unfolding and lam*F),
    W0 (mode-2 unfolding), normalizes W0^T columns into W1, updates G
    (mode-3 unfolding) and R (fit of F against W1), then projects (G, R)
    onto spline structure at the current branch inputs W0 @ samples. Stops
    on max_iter or when the relative objective change falls below rel_tol.

    Returns (DecoupledModel, FitState). When a list is passed as trace, a
    per-sweep dict of before/after subproblem values and intermediate
    snapshots is appended to it (testing hook).
    """
    if not isinstance(J, Tensor3):
        J = Tensor3(np.asarray(J, dtype=float))
    F = np.asarray(F, dtype=float)
    samples = np.asarray(samples, dtype=float)
    n, m, s = J.dims
    if F.shape != (n, s):
        raise ValueError(f"F must be {n} x {s}, got {F.shape}.")
    if samples.shape != (m, s):
        raise ValueError(f"samples must be {m} x {s}, got {samples.shape}.")
    if s < config.df + config.degree + 2:
        raise ValueError(
            f"need at least df + degree + 2 = {config.df + config.degree + 2} samples, got {s}."
        )
    for name, arr in (("J", J.data), ("F", F), ("samples", samples)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite values encountered in {name}.")

    rng = np.random.default_rng(config.seed)
    r = config.rank
    W0 = rng.standard_normal((r, m)) * config.init_scale
    G = rng.standard_normal((s, r))
    R = rng.standard_normal((s, r))
    W1 = np.zeros((n, r))

    u1 = unfold(J, 1)
    u2 = unfold(J, 2)
    u3 = unfold(J, 3)
    warned: set = set()
    state = FitState(W1=W1, W0=W0, G=G, R=R)
    prev_obj = None
    proj = None
    x = None
    lam = config.lam

    for it in range(config.max_iter):
        lam = config.lam_at(it)
        rec = None if trace is None else {"iteration": it, "lam": lam}

        if rec is not None:
            rec["w1_before"] = objective(J, F, W1, W0, G, R, lam)
        out = stacked_lstsq(khatri_rao(G, W0.T), u1.T, R, F.T, lam)
        _warn_rank(out, "W1 update", warned)
        W1 = out.solution.T
        _check_diverged("W1", W1, it)
        if rec is not None:
            rec["w1_after"] = objective(J, F, W1, W0, G, R, lam)
            rec["w1"] = W1.copy()

        k2 = khatri_rao(G, W1)
        if rec is not None:
            rec["w0_before"] = frob_norm_sq(u2.T - k2 @ W0)
        out = lstsq(k2, u2.T)
        _warn_rank(out, "W0 update", warned)
        W0 = out.solution
        _check_diverged("W0", W0, it)
        if rec is not None:
            rec["w0_after"] = frob_norm_sq(u2.T - k2 @ W0)

        W0, W1 = normalize_columns_w0t(W0, W1)

        k3 = khatri_rao(W0.T, W1)
        if rec is not None:
            rec["g_before"] = frob_norm_sq(u3.T - k3 @ G.T)
        out = lstsq(k3, u3.T)
        _warn_rank(out, "G update", warned)
        G = out.solution.T
        _check_diverged("G", G, it)
        if rec is not None:
            rec["g_after"] = frob_norm_sq(u3.T - k3 @ G.T)

        if rec is not None:
            rec["r_before"] = frob_norm_sq(F - W1 @ R.T)
        out = lstsq(W1, F)
        _warn_rank(out, "R update", warned)
        R = out.solution.T
        _check_diverged("R", R, it)
        if rec is not None:
            rec["r_after"] = frob_norm_sq(F - W1 @ R.T)

        x = W0 @ samples
        if rec is not None:
            rec["proj_g_before"] = G.copy()
            rec["proj_r_before"] = R.copy()
            rec["x"] = x.copy()
        proj = bspline_projection(
            G, R, config.df, config.degree, x, lam, config.representation, config.constraint
        )
        G, R = proj.G, proj.R
        _check_diverged("projected G", G, it)
        _check_diverged("projected R", R, it)
        if rec is not None:
            rec["projection"] = proj

        tensor_term, coupling_term = objective_terms(J, F, W1, W0, G, R)
        obj = tensor_term + lam * coupling_term
        if not np.isfinite(obj):
            raise RuntimeError(
                f"non-finite objective at iteration {it}: "
                f"tensor_term={tensor_term}, coupling_term={coupling_term}."
            )
        state.history.append((obj, tensor_term, coupling_term))
        state.iterations = it + 1
        if rec is not None:
            rec["objective"] = obj
            trace.append(rec)

        if prev_obj is not None and (
            prev_obj == 0 or abs(prev_obj - obj) <= config.rel_tol * prev_obj
        ):
            break
        prev_obj = obj

    branches, G, R = _assemble_branches(proj, G, R, x, lam, config)
    state.W1, state.W0, state.G, state.R = W1, W0, G, R
    model = DecoupledModel(W1=W1.copy(), W0=W0.copy(), branches=branches, config=config)
    return model, state


def _assemble_branches(proj: ProjectionResult, G, R, x, lam, config: CmtfConfig):
    """Turn the last projection into SplineFunctions.

    A branch that ended on the fallback has no coefficients yet; refit the
    constrained spline to its fallback columns and overwrite them so the
    stored branch and the final G, R agree (predict must reproduce W1 R^T
    on the training samples).
    """
    G = np.array(G, dtype=float)
    R = np.array(R, dtype=float)
    branches = []
    for j, (c, basis, fb) in enumerate(zip(proj.coeffs, proj.bases, proj.fallback)):
        if fb:
            b_mat, btil = _branch_matrices(basis, x[j], config.representation)
            c = _nonneg_coeffs(b_mat, btil, G[:, j], R[:, j], lam)
            G[:, j] = b_mat @ c
            R[:, j] = btil @ c
        branches.append(SplineFunction(basis=basis, coeffs=c, representation=config.representation))
    return tuple(branches), G, R


def predict(model: DecoupledModel, X) -> np.ndarray:
    """Evaluate the fitted f(x) = W1 g(W0 x) columnwise on an m x T matrix.

    Each branch is evaluated on the window of basis functions alive at each
    point, so memory per branch is O(T * (degree + 2)), not O(T * df).
    Columns with a NaN or an infinite entry are rejected.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] != model.W0.shape[1]:
        raise ValueError(
            f"inputs must have {model.W0.shape[1]} rows, got {X.shape[0]}."
        )
    if not np.all(np.isfinite(X)):
        col = int(np.flatnonzero(~np.all(np.isfinite(X), axis=0))[0])
        raise ValueError(f"non-finite values encountered in inputs, first in column {col}.")
    u = model.W0 @ X
    g = np.stack([branch.value(u[i]) for i, branch in enumerate(model.branches)])
    return model.W1 @ g


def certify_monotone(fn: SplineFunction) -> Certification:
    """Sufficient sign test: nonnegative derivative coefficients.

    DERIVATIVE representation: the spline IS g', so its coefficients must
    all clear -CERT_COEFF_TOL. FUNCTION representation: the derivative
    spline's coefficients are knot-difference ratios of consecutive
    coefficients; empty knot spans contribute vanishing basis functions and
    are skipped. The test is sufficient, not necessary.
    """
    c = fn.coeffs[1:]
    if fn.representation is Representation.DERIVATIVE:
        ok = bool(np.all(c >= CERT_COEFF_TOL))
        return Certification.CERTIFIED_INCREASING if ok else Certification.NOT_CERTIFIED
    t = fn.basis.knots
    d = fn.basis.degree
    diffs = np.diff(c)
    if d == 0:
        # step-function branch: monotone iff the steps never go down
        ok = bool(np.all(diffs >= CERT_COEFF_TOL))
        return Certification.CERTIFIED_INCREASING if ok else Certification.NOT_CERTIFIED
    gaps = t[d + 1 : d + len(c)] - t[1 : len(c)]
    live = gaps > 0
    rates = np.zeros(diffs.size)
    rates[live] = d * diffs[live] / gaps[live]
    ok = bool(np.all(rates >= CERT_COEFF_TOL))
    return Certification.CERTIFIED_INCREASING if ok else Certification.NOT_CERTIFIED


def save_model(model: DecoupledModel, path) -> None:
    """Write the model as JSON: dims, W1 and W0 row-major, branch splines."""
    cfg = model.config
    payload = {
        "dims": {
            "outputs": int(model.W1.shape[0]),
            "inputs": int(model.W0.shape[1]),
            "rank": int(model.W1.shape[1]),
        },
        "w1": [[float(v) for v in row] for row in model.W1],
        "w0": [[float(v) for v in row] for row in model.W0],
        "branches": [
            {
                "degree": int(b.basis.degree),
                "df": int(b.basis.df),
                "knots": [float(v) for v in b.basis.knots],
                "coeffs": [float(v) for v in b.coeffs],
                "representation": b.representation.value,
            }
            for b in model.branches
        ],
        "config": {
            "rank": cfg.rank,
            "degree": cfg.degree,
            "df": cfg.df,
            "lam": cfg.lam,
            "lambda_schedule": cfg.lambda_schedule,
            "lambda_factor": cfg.lambda_factor,
            "lambda_cap": cfg.lambda_cap,
            "representation": cfg.representation.value,
            "constraint": cfg.constraint.value,
            "max_iter": cfg.max_iter,
            "rel_tol": cfg.rel_tol,
            "seed": cfg.seed,
            "init_scale": cfg.init_scale,
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_model(path) -> DecoupledModel:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed model file {path}: {exc}.") from exc
    try:
        cfg_raw = payload["config"]
        config = CmtfConfig(
            rank=cfg_raw["rank"],
            degree=cfg_raw["degree"],
            df=cfg_raw["df"],
            lam=cfg_raw["lam"],
            lambda_schedule=cfg_raw["lambda_schedule"],
            lambda_factor=cfg_raw["lambda_factor"],
            lambda_cap=cfg_raw["lambda_cap"],
            representation=Representation(cfg_raw["representation"]),
            constraint=Constraint(cfg_raw["constraint"]),
            max_iter=cfg_raw["max_iter"],
            rel_tol=cfg_raw["rel_tol"],
            seed=cfg_raw["seed"],
            init_scale=cfg_raw["init_scale"],
        )
        branches = tuple(
            SplineFunction(
                basis=SplineBasis(
                    degree=b["degree"], df=b["df"], knots=np.array(b["knots"])
                ),
                coeffs=np.array(b["coeffs"]),
                representation=Representation(b["representation"]),
            )
            for b in payload["branches"]
        )
        model = DecoupledModel(
            W1=np.array(payload["w1"], dtype=float),
            W0=np.array(payload["w0"], dtype=float),
            branches=branches,
            config=config,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model file {path}: missing field {exc}.") from exc
    return model


def write_diagnostics(state: FitState, path) -> None:
    """Per-sweep CSV: iter,objective,tensor_term,coupling_term."""
    with open(path, "w") as fh:
        fh.write("iter,objective,tensor_term,coupling_term\n")
        for i, (obj, tensor_term, coupling_term) in enumerate(state.history, start=1):
            fh.write(f"{i},{obj!r},{tensor_term!r},{coupling_term!r}\n")
