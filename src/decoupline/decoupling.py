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
import typing
import warnings
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property

import numpy as np

from .bspline import (
    Representation,
    SplineBasis,
    SplineFunction,
    _dense_pair,
    _normal_fit,
    _sorted_knots,
)
from .solvers import RANK_RCOND, lstsq, nnls, stacked_lstsq
from .tensor3 import Tensor3, frob_norm_sq, khatri_rao, reconstruct, unfold

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
    "STALL_SWEEPS",
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
    lam: coupling weight on the zeroth-order term, fixed for the whole fit.
    representation: FUNCTION fits the spline to g, DERIVATIVE to g'.
    constraint: MONOTONE_INCREASING forces nonnegative spline coefficients
        (derivative representation only, where that means g' >= 0).
    max_iter / rel_tol: stop when one sweep changes the objective by at
        most rel_tol times the previous objective ("converged"), when
        STALL_SWEEPS sweeps in a row fail to lower the best objective so far
        by more than rel_tol times that best ("stalled"), or after max_iter
        sweeps ("budget").
    seed: reproducible random init; W0, G and R entries are standard
        normal. W1 needs no init because the first sweep produces it.
    """

    rank: int
    degree: int
    df: int
    lam: float = 0.1
    representation: Representation = Representation.FUNCTION
    constraint: Constraint = Constraint.NONE
    max_iter: int = 200
    rel_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}.")
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}.")
        if self.df <= self.degree:
            raise ValueError(
                f"df must exceed degree, got df={self.df}, degree={self.degree}."
            )
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}.")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}.")
        if not isinstance(self.representation, Representation):
            raise ValueError(f"bad representation {self.representation!r}.")
        if not isinstance(self.constraint, Constraint):
            raise ValueError(f"bad constraint {self.constraint!r}.")
        _check_projection_args(self.lam, self.representation, self.constraint)


def _check_projection_args(lam, representation, constraint) -> None:
    """Reject a coupling weight that is not positive, and a constraint the
    representation cannot express."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}.")
    if (
        constraint is Constraint.MONOTONE_INCREASING
        and representation is not Representation.DERIVATIVE
    ):
        # nonnegative coefficients on g itself would force g >= 0,
        # not monotonicity, so reject instead of silently reinterpreting
        raise ValueError(
            "MONOTONE_INCREASING requires the DERIVATIVE representation."
        )


@dataclass
class FitState:
    """Mutable state of one run: factors, sweep counter, objective history.

    history rows are (objective, tensor_term, coupling_term) per sweep.
    stop_reason is "converged", "stalled" or "budget" once the fit has
    returned (see CmtfConfig.max_iter / rel_tol).
    """

    W1: np.ndarray
    W0: np.ndarray
    G: np.ndarray
    R: np.ndarray
    iterations: int = 0
    history: list = field(default_factory=list)
    stop_reason: str | None = None


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

    coeffs[j] is the df+1 coefficient vector [c0, c1..df] of branch j, or
    None when the fallback replaced that branch this sweep. A collapsed
    branch has only c0. A FUNCTION branch solved from its normal equations
    has c0 = 0 (the spline block carries the constant); one whose kappa(A)
    failed the eigenvalue gate of bspline._normal_fit took the dense lstsq
    path instead and may carry part of its constant in c0.
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


def objective_terms(J: Tensor3, F, W1, W0, G, R) -> tuple[float, float]:
    """Squared tensor residual and squared coupling residual, unweighted."""
    tensor_term = frob_norm_sq(J.data - reconstruct(W1, W0.T, G).data)
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

    b_mat and btil are one branch's pair from bspline._dense_pair, g and r
    its samples of g' and g. Without a constraint the solve is lstsq (the
    min-norm solution where the system is rank-deficient), under
    MONOTONE_INCREASING _nonneg_stacked, seeded with warm.
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
    * under FUNCTION, every branch is solved at once from its banded normal
      equations with the free constant dropped (c0 = 0; the basis sums to
      one, so that column only repeated the spline block's constant); see
      bspline._normal_fit;
    * every other branch, and each FUNCTION branch whose normal matrix has
      kappa(A) above bspline._NORMAL_KAPPA_MAX, is written into the stacked
      system [B; sqrt(lam) Btil] of bspline._dense_pair, with the constant
      column, and solved alone by _dense_solve: by lstsq (the min-norm
      solution where it is rank-deficient), or under MONOTONE_INCREASING by
      NNLS on the spline block. If NNLS returns all zeros the branch is replaced by leaky ReLU
      samples for this sweep instead (coeffs entry None).

    warm, when given, is the coeffs of the previous projection: each
    constrained branch starts its NNLS from its own previous coefficients
    (a None or all-zero entry starts cold). The NNLS result does not depend
    on its start beyond the free set it ends on (see solvers.nnls), so
    this only saves solves; the unconstrained arm ignores warm.

    lam <= 0 and MONOTONE_INCREASING under FUNCTION are rejected with
    CmtfConfig's messages: no fit sends them.
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
        dense = np.arange(live.size)
        if representation is Representation.FUNCTION:
            solved, c, g_fit, r_fit = _normal_fit(t, basis_degree, u, G[:, live].T, R[:, live].T, lam)
            G[:, live[solved]] = g_fit[solved].T
            R[:, live[solved]] = r_fit[solved].T
            for i in np.flatnonzero(solved):
                coeffs[live[i]] = np.concatenate([[0.0], c[i]])
            dense = np.flatnonzero(~solved)
        if dense.size:
            b_mats, btils = _dense_pair(t[dense], basis_degree, u[dense], representation)
            for j, b_mat, btil in zip(live[dense], b_mats, btils):
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


def _warn_rank(result, shape: tuple, step: str, warned: set) -> None:
    """Warn once per step when its rank falls below min(shape) of its
    left-hand side. A wide left-hand side (the R update when there are
    fewer outputs than branches) is underdetermined by construction and
    its min-norm solve is intended, so that alone does not warn."""
    if result.rank < min(shape) and step not in warned:
        warned.add(step)
        warnings.warn(f"rank-deficient system in {step}", stacklevel=3)


# factor entries beyond this would overflow the squared norms formed from
# next sweep's Khatri-Rao products; abort as divergence instead of letting
# the least-squares backend blow up on non-finite input
_DIVERGENCE_CAP = 1e60

# the composite sweep is not a descent method, so the one-step rel_tol test
# rarely fires; stop once this many sweeps in a row fail to lower the best
# objective so far by more than rel_tol times that best
STALL_SWEEPS = 100


def _check_diverged(name: str, arr, it: int) -> None:
    # one reduction: a NaN propagates through max and fails the comparison,
    # and an infinite entry is above the cap
    peak = np.abs(arr).max()
    if not peak <= _DIVERGENCE_CAP:
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
    onto spline structure at the current branch inputs W0 @ samples.

    Stops when one sweep changes the objective by at most rel_tol times the
    previous one ("converged"), when STALL_SWEEPS sweeps in a row bring no
    drop of the best objective so far by more than rel_tol times that best
    ("stalled"), or after max_iter sweeps ("budget"); the reason goes to
    FitState.stop_reason. The last iterate is returned, so a fit that stops
    at sweep N equals the same fit run with max_iter=N.

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
    W0 = rng.standard_normal((r, m))
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
    stop_reason = "budget"
    best = np.inf
    last_drop = 0

    for it in range(config.max_iter):
        # tested before a sweep, not after one, so that a fit which stalls at
        # sweep N is the fit with max_iter=N, ending on "budget" there
        if it - last_drop > STALL_SWEEPS:
            stop_reason = "stalled"
            break
        rec = None if trace is None else {"iteration": it, "lam": lam}

        if rec is not None:
            rec["w1_before"] = objective(J, F, W1, W0, G, R, lam)
        out = stacked_lstsq(khatri_rao(G, W0.T), u1.T, R, F.T, lam)
        _warn_rank(out, (s * (m + 1), r), "W1 update", warned)
        W1 = out.solution.T
        _check_diverged("W1", W1, it)
        if rec is not None:
            rec["w1_after"] = objective(J, F, W1, W0, G, R, lam)
            rec["w1"] = W1.copy()

        k2 = khatri_rao(G, W1)
        if rec is not None:
            rec["w0_before"] = frob_norm_sq(u2.T - k2 @ W0)
        out = lstsq(k2, u2.T)
        _warn_rank(out, k2.shape, "W0 update", warned)
        W0 = out.solution
        _check_diverged("W0", W0, it)
        if rec is not None:
            rec["w0_after"] = frob_norm_sq(u2.T - k2 @ W0)

        W0, W1 = normalize_columns_w0t(W0, W1)

        k3 = khatri_rao(W0.T, W1)
        if rec is not None:
            rec["g_before"] = frob_norm_sq(u3.T - k3 @ G.T)
        out = lstsq(k3, u3.T)
        _warn_rank(out, k3.shape, "G update", warned)
        G = out.solution.T
        _check_diverged("G", G, it)
        if rec is not None:
            rec["g_after"] = frob_norm_sq(u3.T - k3 @ G.T)

        if rec is not None:
            rec["r_before"] = frob_norm_sq(F - W1 @ R.T)
        out = lstsq(W1, F)
        _warn_rank(out, W1.shape, "R update", warned)
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
            G, R, config.df, config.degree, x, lam, config.representation, config.constraint,
            warm=None if proj is None else proj.coeffs,
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
            stop_reason = "converged"
            break
        prev_obj = obj
        if obj < best:
            if best - obj > config.rel_tol * best:
                last_drop = it
            best = obj

    branches, G, R = _assemble_branches(proj, G, R, x, lam, config)
    state.W1, state.W0, state.G, state.R = W1, W0, G, R
    state.stop_reason = stop_reason
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
            (b_mat,), (btil,) = _dense_pair(proj.knots[j : j + 1], proj.degree, x[j : j + 1], config.representation)
            c = _dense_solve(b_mat, btil, G[:, j], R[:, j], lam, config.constraint)
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
    """Write the model as JSON: dims, W1 and W0 row-major, branch splines.

    config holds every CmtfConfig field in declaration order, enums by value.
    """
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
        "config": {},
    }
    for f in fields(CmtfConfig):
        value = getattr(cfg, f.name)
        payload["config"][f.name] = value.value if isinstance(value, Enum) else value
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _finite_array(path, field: str, values) -> np.ndarray:
    """values as a float array; a NaN or infinite entry rejects the file."""
    arr = np.array(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"malformed model file {path}: non-finite value in {field}.")
    return arr


def load_model(path) -> DecoupledModel:
    """Read a save_model file back, rejecting non-finite or mismatched factors.

    Keys the reader does not use (the dims block, config keys written by
    older versions) are ignored.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed model file {path}: {exc}.") from exc
    try:
        cfg_raw = payload["config"]
        kinds = typing.get_type_hints(CmtfConfig)
        settings = {}
        for f in fields(CmtfConfig):
            value = cfg_raw[f.name]
            settings[f.name] = kinds[f.name](value) if issubclass(kinds[f.name], Enum) else value
        config = CmtfConfig(**settings)
        W1 = _finite_array(path, "w1", payload["w1"])
        W0 = _finite_array(path, "w0", payload["w0"])
        branches = tuple(
            SplineFunction(
                basis=SplineBasis(
                    degree=b["degree"],
                    df=b["df"],
                    knots=_finite_array(path, f"branch {j} knots", b["knots"]),
                ),
                coeffs=_finite_array(path, f"branch {j} coeffs", b["coeffs"]),
                representation=Representation(b["representation"]),
            )
            for j, b in enumerate(payload["branches"], start=1)
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model file {path}: missing field {exc}.") from exc
    if W1.ndim != 2 or W0.ndim != 2:
        raise ValueError(f"malformed model file {path}: w1 and w0 must be matrices.")
    if not W1.shape[1] == W0.shape[0] == len(branches):
        raise ValueError(
            f"malformed model file {path}: w1 has {W1.shape[1]} columns and w0 has "
            f"{W0.shape[0]} rows for {len(branches)} branches; all three must agree."
        )
    return DecoupledModel(W1=W1, W0=W0, branches=branches, config=config)


def write_diagnostics(state: FitState, path) -> None:
    """Per-sweep CSV: iter,objective,tensor_term,coupling_term."""
    with open(path, "w") as fh:
        fh.write("iter,objective,tensor_term,coupling_term\n")
        for i, (obj, tensor_term, coupling_term) in enumerate(state.history, start=1):
            fh.write(f"{i},{obj!r},{tensor_term!r},{coupling_term!r}\n")
