"""Synthetic decoupled systems: ground-truth branches, Jacobians, samples.

A SyntheticSystem holds exact mixing matrices W1, W0 and closed-form branch
functions with hand-written derivatives. From those we evaluate the exact
function matrix F and the exact Jacobian tensor J at sampled inputs, which
are the inputs a decoupling run consumes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .tensor3 import Tensor3

__all__ = [
    "Branch",
    "SyntheticSystem",
    "SampleSet",
    "affine_branch",
    "sin_branch",
    "cos_branch",
    "sin_drift_branch",
    "cubic_branch",
    "exp_branch",
    "expm1_reciprocal_branch",
    "builtin_trig",
    "builtin_mono",
    "sample_uniform",
    "sample_for_system",
    "jacobian_tensor",
    "zeroth_matrix",
]


@dataclass(frozen=True)
class Branch:
    """Closed-form scalar function with derivative and a sampling guard.

    min_abs_input > 0 marks an input region |u| < min_abs_input where the
    function is numerically unusable (e.g. a pole); samplers must avoid it.
    """

    name: str
    fn: Callable
    dfn: Callable
    min_abs_input: float = 0.0


def affine_branch(a: float, b: float) -> Branch:
    return Branch(f"{a}*u + {b}", lambda u: a * u + b, lambda u: a * np.ones_like(u))


def sin_branch(a: float, offset: float) -> Branch:
    return Branch(
        f"sin({a}*u) + {offset}",
        lambda u: np.sin(a * u) + offset,
        lambda u: a * np.cos(a * u),
    )


def cos_branch(a: float, offset: float) -> Branch:
    return Branch(
        f"cos({a}*u) + {offset}",
        lambda u: np.cos(a * u) + offset,
        lambda u: -a * np.sin(a * u),
    )


def sin_drift_branch(a: float) -> Branch:
    """sin(a*u) + u/2."""
    return Branch(
        f"sin({a}*u) + u/2",
        lambda u: np.sin(a * u) + 0.5 * u,
        lambda u: a * np.cos(a * u) + 0.5,
    )


def cubic_branch() -> Branch:
    """u^3/3 + u, strictly increasing."""
    return Branch("u^3/3 + u", lambda u: u**3 / 3 + u, lambda u: u**2 + 1)


def exp_branch() -> Branch:
    return Branch("exp(u)", np.exp, np.exp)


def expm1_reciprocal_branch(guard: float = 1e-6) -> Branch:
    """1/(1 - exp(-u)), a pole at u = 0, decreasing on both sides."""

    def fn(u):
        return 1.0 / -np.expm1(-np.asarray(u, dtype=float))

    def dfn(u):
        u = np.asarray(u, dtype=float)
        denom = -np.expm1(-u)
        return -np.exp(-u) / (denom * denom)

    return Branch("1/(1 - exp(-u))", fn, dfn, min_abs_input=guard)


@dataclass(frozen=True)
class SyntheticSystem:
    """Ground truth f(x) = W1 g(W0 x) with closed-form branches g."""

    W1: np.ndarray
    W0: np.ndarray
    branches: tuple

    def __post_init__(self):
        w1 = np.asarray(self.W1, dtype=float)
        w0 = np.asarray(self.W0, dtype=float)
        if w1.ndim != 2 or w0.ndim != 2:
            raise ValueError("W1 and W0 must be matrices.")
        if w1.shape[1] != w0.shape[0] or w1.shape[1] != len(self.branches):
            raise ValueError(
                f"rank mismatch: W1 has {w1.shape[1]} columns, W0 has "
                f"{w0.shape[0]} rows, {len(self.branches)} branches."
            )
        object.__setattr__(self, "W1", w1)
        object.__setattr__(self, "W0", w0)
        object.__setattr__(self, "branches", tuple(self.branches))

    @property
    def dims(self) -> tuple[int, int, int]:
        """(outputs n, inputs m, rank r)."""
        return self.W1.shape[0], self.W0.shape[1], self.W1.shape[1]


@dataclass(frozen=True)
class SampleSet:
    """Input samples, one column per sample."""

    X: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", np.asarray(self.X, dtype=float))


def builtin_trig() -> SyntheticSystem:
    """Fixed 2-in 2-out system with three trigonometric branches."""
    w1 = np.array([[-1.7, -2.3, 2.5], [0.5, -0.5, 0.2]])
    w0 = np.array([[2.1, -1.0], [0.4, -1.8], [-1.6, -0.2]])
    branches = (
        sin_branch(1.0, 2.0),
        cos_branch(2.0, -1.5),
        sin_drift_branch(2.0),
    )
    return SyntheticSystem(W1=w1, W0=w0, branches=branches)


def builtin_mono(seed: int) -> SyntheticSystem:
    """Random 3x3 mixing around three monotone-magnitude branches.

    W0 and W1 entries are drawn i.i.d. uniform on (-2, 2) from the seed.
    The third branch has a pole at zero, so its samples carry a guard.
    """
    rng = np.random.default_rng(seed)
    w0 = rng.uniform(-2.0, 2.0, size=(3, 3))
    w1 = rng.uniform(-2.0, 2.0, size=(3, 3))
    branches = (cubic_branch(), exp_branch(), expm1_reciprocal_branch())
    return SyntheticSystem(W1=w1, W0=w0, branches=branches)


def sample_uniform(m: int, count: int, lo: float, hi: float, seed: int) -> SampleSet:
    """count i.i.d. uniform samples on the box (lo, hi)^m, one per column."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi}).")
    rng = np.random.default_rng(seed)
    return SampleSet(X=rng.uniform(lo, hi, size=(m, count)))


def sample_for_system(
    sys: SyntheticSystem, count: int, lo: float, hi: float, seed: int
) -> SampleSet:
    """Uniform samples redrawn until every branch guard is clear.

    Columns whose branch inputs W0 @ x land inside a guarded region are
    resampled from the same stream; a note is emitted when that happens.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi}).")
    m = sys.dims[1]
    guards = np.array([b.min_abs_input for b in sys.branches])
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, size=(m, count))
    total_redrawn = 0
    for _ in range(100):
        u = sys.W0 @ x
        bad = np.any(np.abs(u) < guards[:, None], axis=0)
        if not bad.any():
            break
        total_redrawn += int(bad.sum())
        x[:, bad] = rng.uniform(lo, hi, size=(m, int(bad.sum())))
    else:
        raise RuntimeError("could not draw samples clear of branch guards.")
    if total_redrawn:
        warnings.warn(
            f"redrew {total_redrawn} sample(s) inside branch guard regions",
            stacklevel=2,
        )
    return SampleSet(X=x)


def _branch_inputs(sys: SyntheticSystem, samples) -> np.ndarray:
    x = samples.X if isinstance(samples, SampleSet) else np.asarray(samples, dtype=float)
    return sys.W0 @ x


def jacobian_tensor(sys: SyntheticSystem, samples) -> Tensor3:
    """Exact Jacobian tensor: slice k = W1 diag(g'(u_k)) W0."""
    u = _branch_inputs(sys, samples)
    gp = np.stack([b.dfn(u[i]) for i, b in enumerate(sys.branches)])
    if not np.all(np.isfinite(gp)):
        k = int(np.argwhere(~np.all(np.isfinite(gp), axis=0)).ravel()[0])
        raise RuntimeError(f"non-finite branch derivative at sample {k}.")
    return Tensor3(np.einsum("ir,rk,rj->ijk", sys.W1, gp, sys.W0))


def zeroth_matrix(sys: SyntheticSystem, samples) -> np.ndarray:
    """Exact function values: column k = W1 g(u_k)."""
    u = _branch_inputs(sys, samples)
    g = np.stack([b.fn(u[i]) for i, b in enumerate(sys.branches)])
    if not np.all(np.isfinite(g)):
        k = int(np.argwhere(~np.all(np.isfinite(g), axis=0)).ravel()[0])
        raise RuntimeError(f"non-finite branch value at sample {k}.")
    return sys.W1 @ g
