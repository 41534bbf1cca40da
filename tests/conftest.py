import numpy as np
import pytest

from decoupline import decoupling
from decoupline.tensor3 import Tensor3, frob_norm_sq

# the decoupling names a sweep calls; the benchmark's per-phase times rest
# on their call order, which test_decoupling pins
FIT_CALLS = (
    "khatri_rao",
    "stacked_lstsq",
    "lstsq",
    "normalize_columns_w0t",
    "bspline_projection",
    "objective_terms",
)


class FitCalls(list):
    """(name, args, result) of every recorded decoupling call, in call order."""

    def of(self, name):
        """(args, result) of each call to name."""
        return [(args, out) for called, args, out in self if called == name]

    def step_costs(self, config, m, s):
        """Per sweep, {step: (before, after)} of the W1, W0, G and R solves.

        Each cost is ||lhs x - rhs||^2 on that solve's own arguments (for W1,
        the lam-weighted sum of both blocks). before takes x as the factor
        entered the step: the previous sweep's normalized W1/W0 and projected
        G/R, or on sweep 1 decouple's start, W1 = 0 and W0, G, R drawn in
        that order from default_rng(config.seed). after takes x as the sweep
        handed it on: W1 and W0 as normalize_columns_w0t received them, G and
        R as bspline_projection did.
        """
        rng = np.random.default_rng(config.seed)
        W0 = rng.standard_normal((config.rank, m))
        G = rng.standard_normal((s, config.rank))
        R = rng.standard_normal((s, config.rank))
        W1 = None
        solves = [args for args, _ in self.of("lstsq")]
        sweeps = zip(self.of("stacked_lstsq"), solves[0::3], solves[1::3], solves[2::3],
                     self.of("normalize_columns_w0t"), self.of("bspline_projection"))
        costs = []
        for (w1_args, _), w0_args, g_args, r_args, (norm_args, norm), (proj_args, proj) in sweeps:
            lhs1, rhs1, lhs2, rhs2, lam = w1_args
            start = np.zeros((lhs1.shape[1], rhs1.shape[1])) if W1 is None else W1.T

            def stacked(x):
                return frob_norm_sq(lhs1 @ x - rhs1) + lam * frob_norm_sq(lhs2 @ x - rhs2)

            def plain(args, x):
                return frob_norm_sq(args[0] @ x - args[1])

            costs.append({
                "w1": (stacked(start), stacked(norm_args[1].T)),
                "w0": (plain(w0_args, W0), plain(w0_args, norm_args[0])),
                "g": (plain(g_args, G.T), plain(g_args, proj_args[0].T)),
                "r": (plain(r_args, R.T), plain(r_args, proj_args[1].T)),
            })
            W0, W1 = norm
            G, R = proj.G, proj.R
        return costs


@pytest.fixture
def lstsq_calls(monkeypatch):
    """One entry per call to np.linalg.lstsq, the SVD solve, from the start
    of the test; clear it to count from a later point."""
    calls = []
    dense = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(1)
        return dense(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


@pytest.fixture
def fit_calls(monkeypatch):
    """Record every call decouple makes to a FIT_CALLS name.

    decouple looks these names up in its module at call time, as the
    benchmark's tracer relies on too, so wrapping the module attributes
    sees each call. Keyword arguments are not recorded.
    """
    calls = FitCalls()

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((name, args, out))
            return out

        return wrapper

    for name in FIT_CALLS:
        monkeypatch.setattr(decoupling, name, recorded(name, getattr(decoupling, name)))
    return calls


@pytest.fixture
def quadratic_system():
    """Exactly spline-representable ground truth (quadratic branches).

    Quadratics live inside every degree-2 spline space, so a (d=2, df=5)
    fit admits a zero-residual solution. Returns (J, F, X).
    """
    rng = np.random.default_rng(77)
    n = m = r = 2
    s = 40
    w1 = rng.standard_normal((n, r))
    w0 = rng.standard_normal((r, m))
    w0 /= np.linalg.norm(w0, axis=1, keepdims=True)
    abc = rng.standard_normal((r, 3))
    x = rng.uniform(-1.5, 1.5, (m, s))
    v = w0 @ x
    g = np.stack([a * v[j] ** 2 + b * v[j] + c for j, (a, b, c) in enumerate(abc)])
    dg = np.stack([2 * a * v[j] + b for j, (a, b, _) in enumerate(abc)])
    J = np.empty((n, m, s))
    for k in range(s):
        J[:, :, k] = w1 @ np.diag(dg[:, k]) @ w0
    return Tensor3(J), w1 @ g, x
