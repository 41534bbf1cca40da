"""Alternating factorization that splits f(x) into W1 g(W0 x).

The Jacobian tensor J (slice k = W1 diag(g'(u_k)) W0) is factored jointly
with the zeroth-order matrix F ~ W1 R^T. Alternating least squares cycles
through W1, W0, G (derivative samples) and R (function samples); after each
sweep bspline.bspline_projection projects every (G, R) column pair onto a
single B-spline coefficient vector, so column j of G and R stay consistent
samples of g'_j and g_j for one branch function g_j. Optionally the
projection runs under a nonnegativity constraint on the spline block,
which certifies each branch as monotone increasing.

This module holds the run's settings, the sweep, the stop rules, predict,
the monotonicity certificates and model IO; every spline system is built
and solved in bspline.
"""

from __future__ import annotations

import json
import typing
import warnings
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .bspline import (
    Constraint,
    Representation,
    SplineBasis,
    SplineFunction,
    _assemble_branches,
    _check_projection_args,
    _derivative_map,
    bspline_projection,
)
from .solvers import lstsq, stacked_lstsq
from .tensor3 import Tensor3, frob_norm_sq, khatri_rao, reconstruct, unfold

__all__ = [
    "Certification",
    "CmtfConfig",
    "FitState",
    "DecoupledModel",
    "decouple",
    "normalize_columns_w0t",
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


class Certification(Enum):
    CERTIFIED_INCREASING = "certified_increasing"
    NOT_CERTIFIED = "not_certified"


@dataclass(frozen=True)
class CmtfConfig:
    """Settings for one decoupling run.

    rank: number of branch functions r.
    degree: polynomial degree d of the branch functions.
    df: degrees of freedom (basis functions) per branch.
    lam: coupling weight on the zeroth-order term, positive and finite,
        fixed for the whole fit.
    representation: FUNCTION fits the spline to g, DERIVATIVE to g'.
    constraint: MONOTONE_INCREASING forces nonnegative spline coefficients
        (derivative representation only, where that means g' >= 0).
    max_iter / rel_tol: stop when one sweep changes the objective by at
        most rel_tol times the previous objective ("converged"), when
        STALL_SWEEPS sweeps in a row fail to lower the best objective so far
        by more than rel_tol times that best ("stalled"), or after max_iter
        sweeps ("budget"). rel_tol lies in (0, 1); near 1 a fit stops
        within its first few sweeps, at 1 no sweep could count as a drop.
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
        if not 0 < self.rel_tol < np.inf:
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol}.")
        if not self.rel_tol < 1:
            raise ValueError(f"rel_tol must be positive and below 1, got {self.rel_tol}.")
        if not isinstance(self.representation, Representation):
            raise ValueError(f"bad representation {self.representation!r}.")
        if not isinstance(self.constraint, Constraint):
            raise ValueError(f"bad constraint {self.constraint!r}.")
        _check_projection_args(self.lam, self.representation, self.constraint)


@dataclass
class FitState:
    """Mutable state of one run: factors and objective history.

    history rows are (objective, tensor_term, coupling_term) per sweep, and
    iterations is their count. stop_reason is "converged", "stalled" or
    "budget" once the fit has returned (see CmtfConfig.max_iter / rel_tol).
    """

    W1: np.ndarray
    W0: np.ndarray
    G: np.ndarray
    R: np.ndarray
    history: list = field(default_factory=list)
    stop_reason: str | None = None

    @property
    def iterations(self) -> int:
        return len(self.history)


@dataclass(frozen=True)
class DecoupledModel:
    """Fitted model f(x) = W1 g(W0 x) with spline branches g."""

    W1: np.ndarray
    W0: np.ndarray
    branches: tuple
    config: CmtfConfig


def objective_terms(J: Tensor3, F, W1, W0, G, R) -> tuple[float, float]:
    """Squared tensor residual and squared coupling residual, unweighted."""
    tensor_term = frob_norm_sq(J.data - reconstruct(W1, W0.T, G).data)
    coupling_term = frob_norm_sq(np.asarray(F, dtype=float) - W1 @ R.T)
    return tensor_term, coupling_term


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


def _warn_rank(result, shape: tuple, step: str, warned: set) -> None:
    """Warn once per step when its rank falls below min(shape) of its
    left-hand side. A wide left-hand side (the R update when there are
    fewer outputs than branches) is underdetermined by construction and
    its min-norm solve is intended, so that alone does not warn."""
    if result.rank < min(shape) and step not in warned:
        warned.add(step)
        # past _sweep and decouple, so the warning names decouple's caller
        warnings.warn(f"rank-deficient system in {step}", stacklevel=4)


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


def _sweep(unfoldings, F, samples, W1, W0, G, R, proj, config: CmtfConfig, warned: set, it: int):
    """One ALS sweep of decouple; returns (W1, W0, proj), proj holding G and R.

    Updates W1 (coupled fit of the mode-1 unfolding and lam*F), W0 (mode-2
    unfolding), normalizes W0^T columns into W1, updates G (mode-3
    unfolding) and R (fit of F against W1), then projects (G, R) onto
    spline structure at the current branch inputs W0 @ samples, warm from
    proj, the previous sweep's projection (None on the first sweep).
    unfoldings holds J's mode-1, -2 and -3 unfoldings; warned collects the
    steps that already warned of rank deficiency; it numbers the sweep in
    divergence errors.
    """
    u1, u2, u3 = unfoldings
    m, s = samples.shape
    out = stacked_lstsq(khatri_rao(G, W0.T), u1.T, R, F.T, config.lam)
    _warn_rank(out, (s * (m + 1), config.rank), "W1 update", warned)
    W1 = out.solution.T
    _check_diverged("W1", W1, it)

    k2 = khatri_rao(G, W1)
    out = lstsq(k2, u2.T)
    _warn_rank(out, k2.shape, "W0 update", warned)
    W0 = out.solution
    _check_diverged("W0", W0, it)

    W0, W1 = normalize_columns_w0t(W0, W1)

    k3 = khatri_rao(W0.T, W1)
    out = lstsq(k3, u3.T)
    _warn_rank(out, k3.shape, "G update", warned)
    G = out.solution.T
    _check_diverged("G", G, it)

    out = lstsq(W1, F)
    _warn_rank(out, W1.shape, "R update", warned)
    R = out.solution.T
    _check_diverged("R", R, it)

    proj = bspline_projection(
        G, R, config.df, config.degree, W0 @ samples, config.lam, config.representation,
        config.constraint, warm=None if proj is None else proj.coeffs,
    )
    _check_diverged("projected G", proj.G, it)
    _check_diverged("projected R", proj.R, it)
    return W1, W0, proj


def decouple(J, F, samples, config: CmtfConfig):
    """Fit W1 g(W0 x) to a Jacobian tensor and zeroth-order matrix.

    J: n x m x S Jacobian tensor (Tensor3 or 3-d array), slice k holding
       the Jacobian of f at sample k.
    F: n x S matrix of function values at the samples.
    samples: m x S matrix of sample points.

    Repeats _sweep from a random start (see CmtfConfig.seed). Stops when one
    sweep changes the objective by at most rel_tol times the previous one
    ("converged"), when STALL_SWEEPS sweeps in a row bring no drop of the
    best objective so far by more than rel_tol times that best ("stalled"),
    or after max_iter sweeps ("budget"); the reason goes to
    FitState.stop_reason. The last iterate is returned, so a fit that stops
    at sweep N equals the same fit run with max_iter=N.

    Returns (DecoupledModel, FitState).
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

    unfoldings = (unfold(J, 1), unfold(J, 2), unfold(J, 3))
    warned: set = set()
    state = FitState(W1=W1, W0=W0, G=G, R=R)
    prev_obj = None
    proj = None
    stop_reason = "budget"
    best = np.inf
    last_drop = 0

    for it in range(config.max_iter):
        # tested before a sweep, not after one, so that a fit which stalls at
        # sweep N is the fit with max_iter=N, ending on "budget" there
        if it - last_drop > STALL_SWEEPS:
            stop_reason = "stalled"
            break
        W1, W0, proj = _sweep(unfoldings, F, samples, W1, W0, G, R, proj, config, warned, it)
        G, R = proj.G, proj.R

        tensor_term, coupling_term = objective_terms(J, F, W1, W0, G, R)
        obj = tensor_term + config.lam * coupling_term
        if not np.isfinite(obj):
            raise RuntimeError(
                f"non-finite objective at iteration {it}: "
                f"tensor_term={tensor_term}, coupling_term={coupling_term}."
            )
        state.history.append((obj, tensor_term, coupling_term))

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

    branches, G, R = _assemble_branches(proj, W0 @ samples, config.lam, config.representation, config.constraint)
    state.W1, state.W0, state.G, state.R = W1, W0, G, R
    state.stop_reason = stop_reason
    model = DecoupledModel(W1=W1.copy(), W0=W0.copy(), branches=branches, config=config)
    return model, state


def _first_nonfinite_column(a: np.ndarray):
    """Index of the first column of a holding a NaN or an infinity, or None.

    min and max propagate a NaN, so both finite means every entry is; only
    a matrix that fails that test is masked entry by entry.
    """
    if a.size == 0 or (np.isfinite(a.min()) and np.isfinite(a.max())):
        return None
    return int(np.flatnonzero(~np.all(np.isfinite(a), axis=0))[0])


# Columns per block of predict: each of a block's per-branch work arrays
# is then 64 KiB, so the evaluation runs in cache and reuses heap memory
# instead of mapping and page-faulting fresh T-sized arrays on every call.
_BLOCK = 8192


def predict(model: DecoupledModel, X) -> np.ndarray:
    """Evaluate the fitted f(x) = W1 g(W0 x) columnwise on an m x T matrix.

    One pass over _BLOCK columns of X at a time, the only block loop of
    the evaluation: u = W0 x for the block, each branch's values written
    into one (r, _BLOCK) buffer, and W1 times that buffer written into the
    block's columns of the output. Each branch's table of per-span
    polynomial pieces (read off _local_basis at the span midpoints) is
    built once per call (SplineFunction.value_reader) and read for every
    block. The output is the only T-sized array; the rest is one block per
    branch.
    Columns with a NaN or an infinite entry are rejected. A branch input
    outside the knot domain reads the boundary polynomial piece, extended;
    one so far out that a power of it overflows (from about |u| = 1e102 on
    a degree-3 branch over [0, 1]) is rejected too, and that error names
    the first column whose output is not finite.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] != model.W0.shape[1]:
        raise ValueError(
            f"inputs must have {model.W0.shape[1]} rows, got {X.shape[0]}."
        )
    col = _first_nonfinite_column(X)
    if col is not None:
        raise ValueError(f"non-finite values encountered in inputs, first in column {col}.")
    T = X.shape[1]
    out = np.empty((model.W1.shape[0], T))
    u = np.empty((model.W0.shape[0], min(T, _BLOCK)))
    g = np.empty((len(model.branches), u.shape[1]))
    # a far input may overflow on the way; the check below reports it, so
    # numpy's warnings would only repeat it
    readers = [branch.value_reader() for branch in model.branches]
    with np.errstate(all="ignore"):
        for start in range(0, T, _BLOCK):
            stop = min(start + _BLOCK, T)
            ub, gb = u[:, : stop - start], g[:, : stop - start]
            np.matmul(model.W0, X[:, start:stop], out=ub)
            for i, read in enumerate(readers):
                read(ub[i], out=gb[i])
            np.matmul(model.W1, gb, out=out[:, start:stop])
    col = _first_nonfinite_column(out)
    if col is not None:
        raise ValueError(
            f"outputs are not finite, first in column {col}: the input lies too far "
            "outside the fitted domain."
        )
    return out


def certify_monotone(fn: SplineFunction) -> Certification:
    """Sufficient sign test: nonnegative derivative coefficients.

    DERIVATIVE representation: the spline IS g', so its coefficients must
    all clear -CERT_COEFF_TOL. FUNCTION representation: the same test on
    the derivative spline's coefficients from _derivative_map, and on the
    coefficient step c_l - c_{l-1} wherever that map's weight w_l is 0 at an
    interior row l: there an interior knot has multiplicity >= degree + 1
    (every knot at degree 0), and the value jumps by that step. The test is
    sufficient, not necessary.
    """
    c = fn.coeffs[1:]
    if fn.representation is Representation.FUNCTION:
        dmap = _derivative_map(fn.basis.knots[None, :], fn.basis.degree)[0]
        c = np.concatenate([dmap @ c, np.diff(c)[np.diagonal(dmap)[1:] == 0]])
    ok = bool(np.all(c >= CERT_COEFF_TOL))
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


def _finite_array(field: str, values) -> np.ndarray:
    """values as a float array; a NaN or infinite entry rejects the file."""
    arr = np.array(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite value in {field}.")
    return arr


def _json_number(field: str, value, kind: type):
    """value if the file holds it as a kind (an int counts as a float)."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        want = "a number" if kind is float else "an integer"
        raise ValueError(f"{field} must be {want}, got {value!r}.")
    return value


def load_model(path) -> DecoupledModel:
    """Read a save_model file back, rejecting non-finite or mismatched factors.

    Every field the reader cannot take (missing, of the wrong type, or
    rejected by CmtfConfig, SplineBasis or SplineFunction) fails with a
    "malformed model file" error. Keys the reader does not use (the dims
    block, config keys written by older versions) are ignored.
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
            value, kind = cfg_raw[f.name], kinds[f.name]
            settings[f.name] = kind(value) if issubclass(kind, Enum) else _json_number(f"config {f.name}", value, kind)
        config = CmtfConfig(**settings)
        W1 = _finite_array("w1", payload["w1"])
        W0 = _finite_array("w0", payload["w0"])
        branches = tuple(
            SplineFunction(
                basis=SplineBasis(
                    degree=_json_number(f"branch {j} degree", b["degree"], int),
                    df=_json_number(f"branch {j} df", b["df"], int),
                    knots=_finite_array(f"branch {j} knots", b["knots"]),
                ),
                coeffs=_finite_array(f"branch {j} coeffs", b["coeffs"]),
                representation=Representation(b["representation"]),
            )
            for j, b in enumerate(payload["branches"], start=1)
        )
    except KeyError as exc:
        raise ValueError(f"malformed model file {path}: missing field {exc}.") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed model file {path}: {exc}") from exc
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
