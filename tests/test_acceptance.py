"""Acceptance gate: one test per end-to-end claim the package ships with.

Every test rebuilds its claim from scratch at the stated protocol, so the
whole file takes ten to fifteen minutes on one core. Criteria 1 and 4 are
known not to hold on this implementation (df=12 misses the 1% bar, and
constrained fits do not beat unconstrained tensor-error medians); their
tests stay strict and red rather than bending the thresholds. The failure
messages carry the measured numbers.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from decoupline.bspline import (
    Representation,
    derivative_design_matrix,
    design_matrix,
    determine_knots,
    integral_design_matrix,
)
from decoupline.cli import main
from decoupline.decoupling import (
    CmtfConfig,
    Constraint,
    decouple,
    normalize_columns_w0t,
)
from decoupline.experiments import (
    ExperimentSpec,
    monotone_counts,
    run_experiment,
)
from decoupline.solvers import nnls
from decoupline.sysgen import (
    builtin_mono,
    builtin_trig,
    jacobian_tensor,
    sample_for_system,
    zeroth_matrix,
)
from decoupline.tensor3 import Tensor3, frob_norm_sq, reconstruct, unfold

RUNS = 30


def _report(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _cell_medians(records, degree, df):
    """Per-cell medians of every output-error variant, failed runs skipped."""
    cell = [r for r in records if r.degree == degree and r.df == df]
    spline = np.array([r.errors for r in cell])
    poly = np.array([r.poly_errors for r in cell])
    return np.nanmedian(spline, axis=0), np.nanmedian(poly, axis=0)


# criterion 1: trig sweep accuracy and runtime


@pytest.fixture(scope="module")
def trig_grid():
    spec = ExperimentSpec(kind="trig", runs=RUNS, degrees=(3,), dfs=tuple(range(12, 29, 2)))
    t0 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = run_experiment(spec)
    return spec, records, time.time() - t0


def test_criterion_1_trig_accuracy_grid(trig_grid):
    spec, records, elapsed = trig_grid
    worst = []
    ok = elapsed < 600.0
    for df in spec.dfs:
        spline, poly = _cell_medians(records, 3, df)
        worst.append((df, spline.max(), poly.max()))
        # scoring is ambiguous between the spline model and its polynomial
        # refit, so demand the bar from both; df=12 misses it either way
        if not max(spline.max(), poly.max()) < 1.0:
            ok = False
    detail = f"{elapsed:.0f}s; worst median spline/poly per df " + " ".join(
        f"{df}:{s:.2f}/{p:.2f}%" for df, s, p in worst
    )
    _report(ok, "trig accuracy: every df cell below 1%", detail)


# criterion 2: more spline flexibility never hurts at low df


def test_criterion_2_degree_ordering():
    spec = ExperimentSpec(kind="trig", runs=RUNS, degrees=(1, 2, 3), dfs=(8,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = run_experiment(spec)
    meds = {d: _cell_medians(records, d, 8) for d in (1, 2, 3)}
    ok = True
    for variant in (0, 1):  # spline model errors, poly refit errors
        for out in (0, 1):
            seq = [meds[d][variant][out] for d in (3, 2, 1)]
            if not (seq[0] <= seq[1] <= seq[2]):
                ok = False
    detail = "spline " + " ".join(
        f"d={d}:({meds[d][0][0]:.1f},{meds[d][0][1]:.1f})%" for d in (1, 2, 3)
    )
    _report(ok, "degree ordering at df=8 (d=3 <= d=2 <= d=1)", detail)


# criteria 3 and 4 share one paired mono sweep


@pytest.fixture(scope="module")
def mono_records():
    spec = ExperimentSpec(kind="mono", runs=RUNS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = run_experiment(spec)
    return spec, records


def test_criterion_3_monotone_certification(mono_records):
    spec, records = mono_records
    counts = monotone_counts(records)
    con = [counts[(True, df)] for df in spec.dfs]
    unc = [counts[(False, df)] for df in spec.dfs]
    below = sum(1 for c in unc if c < RUNS)
    ok = all(c == RUNS for c in con) and below >= 3
    detail = f"constrained {con}, unconstrained {unc} (of {RUNS})"
    _report(ok, "constrained certify 30/30, unconstrained fall short", detail)


def test_criterion_4_constrained_tensor_error(mono_records):
    spec, records = mono_records
    by = {}
    for r in records:
        by.setdefault((r.constrained, r.df), []).append(r.error_j)
    rows = []
    ok = True
    for df in spec.dfs:
        mc = np.nanmedian(by[(True, df)])
        mu = np.nanmedian(by[(False, df)])
        rows.append(f"{df}:{mc:.3f}v{mu:.3f}")
        if not mc <= mu:
            ok = False
    _report(
        ok,
        "median Error(J) constrained <= unconstrained per df",
        " ".join(rows),
    )


# criterion 5: an exactly representable system is a fixed point


def test_criterion_5_exact_structure_fixed_point():
    # quadratic branches sit inside every degree-2 spline space, so this
    # instance admits a zero-residual decoupling at (d=2, df=5)
    rng = np.random.default_rng(11)
    n, m, r, s = 2, 2, 2, 30
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
    F = w1 @ g
    cfg = CmtfConfig(rank=r, degree=2, df=5, seed=0, max_iter=50, rel_tol=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, state = decouple(Tensor3(J), F, x, cfg)
    obj = state.history[-1][0]
    bound = 1e-10 * frob_norm_sq(J)
    ok = obj < bound and state.iterations <= 50
    _report(
        ok,
        "exact-structure objective below 1e-10*|J|^2 within 50 sweeps",
        f"objective {obj:.3e} vs bound {bound:.3e} in {state.iterations} sweeps",
    )


# criterion 6: numerical property suite


def _check_unfoldings():
    rng = np.random.default_rng(0)
    t = Tensor3(rng.standard_normal((3, 4, 5)))
    n, m, s = t.dims
    u1, u2, u3 = unfold(t, 1), unfold(t, 2), unfold(t, 3)
    for i in range(n):
        for j in range(m):
            for k in range(s):
                v = t.data[i, j, k]
                if (
                    abs(u1[i, j + k * m] - v) > 1e-12
                    or abs(u2[j, i + k * n] - v) > 1e-12
                    or abs(u3[k, i + j * n] - v) > 1e-12
                ):
                    return False
    return True


def _check_partition_of_unity():
    rng = np.random.default_rng(1)
    basis = determine_knots(rng.uniform(-2, 2, 60), df=9, degree=3)
    lo, hi = basis.domain
    grid = np.linspace(lo, hi, 400)
    return np.all(np.abs(design_matrix(basis, grid).sum(axis=1) - 1) < 1e-12)


def _check_derivative_fd():
    rng = np.random.default_rng(2)
    basis = determine_knots(rng.uniform(-2, 2, 60), df=8, degree=3)
    lo, hi = basis.domain
    u = np.linspace(lo + 0.05, hi - 0.05, 25)
    u = u[np.abs(u[:, None] - basis.knots[None, :]).min(axis=1) > 1e-3]
    h = 1e-6
    fd = (design_matrix(basis, u + h) - design_matrix(basis, u - h)) / (2 * h)
    return np.allclose(derivative_design_matrix(basis, u), fd, atol=1e-5)


def _check_integral_quadrature():
    rng = np.random.default_rng(3)
    basis = determine_knots(rng.uniform(-1, 1, 50), df=6, degree=3)
    lo, hi = basis.domain
    u = np.array([lo + 0.3, 0.0, hi - 0.2])
    mat = integral_design_matrix(basis, u)
    breaks = np.unique(basis.knots)
    for j in range(basis.df):
        col = np.zeros(basis.df)
        col[j] = 1.0
        for i, ui in enumerate(u):
            pts = breaks[(breaks > lo) & (breaks < ui)]
            ref, _ = quad(
                lambda t: design_matrix(basis, [t])[0] @ col,
                lo,
                ui,
                points=pts,
                limit=200,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            if abs(mat[i, j] - ref) > 1e-9:
                return False
    return True


def _check_nnls_kkt():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = rng.standard_normal((30, 8))
        b = rng.standard_normal(30)
        x = nnls(a, b).solution
        grad = a.T @ (a @ x - b)
        scale = np.linalg.norm(a, axis=0).max() * np.linalg.norm(b)
        if np.any(x < 0):
            return False
        if np.any(grad < -1e-8 * scale):  # no descent direction left
            return False
        if np.any(np.abs(grad[x > 0]) > 1e-8 * scale):  # free set stationary
            return False
    return True


def _check_normalize_invariance():
    rng = np.random.default_rng(5)
    w0, w1, g = (
        rng.standard_normal((3, 3)),
        rng.standard_normal((3, 3)),
        rng.standard_normal((20, 3)),
    )
    before = reconstruct(w1, w0.T, g)
    nw0, nw1 = normalize_columns_w0t(w0, w1)
    after = reconstruct(nw1, nw0.T, g)
    num = frob_norm_sq(before.data - after.data)
    return num <= 1e-12 * frob_norm_sq(before)


def _check_substep_descent(fit_calls):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        J = Tensor3(rng.standard_normal((3, 2, 25)))
        F = rng.standard_normal((3, 25))
        x = rng.uniform(-1, 1, (2, 25))
        cfg = CmtfConfig(rank=2, degree=2, df=5, seed=seed, max_iter=3)
        fit_calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, state = decouple(J, F, x, cfg)
        costs = fit_calls.step_costs(cfg, 2, 25)
        if len(costs) != state.iterations:
            return False
        for sweep in costs:
            for before, after in sweep.values():
                if after > before + 1e-9:
                    return False
    return True


def _check_jacobian_fd():
    for sys in (builtin_trig(), builtin_mono(seed=12)):
        ss = sample_for_system(sys, 6, -1.5, 1.5, seed=7)
        J = jacobian_tensor(sys, ss)
        h = 1e-6
        for k in range(6):
            xk = ss.X[:, k]
            fd = np.empty(J.dims[:2])
            for j in range(xk.size):
                e = np.zeros_like(xk)
                e[j] = h
                cols = np.column_stack([xk + e, xk - e])
                fp = zeroth_matrix(sys, cols)
                fd[:, j] = (fp[:, 0] - fp[:, 1]) / (2 * h)
            scale = max(np.abs(J.data[:, :, k]).max(), 1.0)
            if np.abs(J.data[:, :, k] - fd).max() > 1e-6 * scale:
                return False
    return True


def test_criterion_6_numerical_properties(fit_calls):
    checks = {
        "unfoldings": _check_unfoldings,
        "partition-of-unity": _check_partition_of_unity,
        "derivative-fd": _check_derivative_fd,
        "integral-quadrature": _check_integral_quadrature,
        "nnls-kkt": _check_nnls_kkt,
        "normalize-invariance": _check_normalize_invariance,
        "substep-descent": lambda: _check_substep_descent(fit_calls),
        "jacobian-fd": _check_jacobian_fd,
    }
    results = {name: fn() for name, fn in checks.items()}
    bad = [name for name, good in results.items() if not good]
    _report(
        not bad,
        "numerical property suite",
        "all eight hold" if not bad else "failing: " + ", ".join(bad),
    )


# criterion 7: experiment reruns are byte-identical


def test_criterion_7_rerun_byte_identical(tmp_path, capsys):
    argv = ["experiment", "mono", "--runs", "2", "--dfs", "8,14", "--max-iter", "60"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out-dir", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("results.csv", "counts.csv")
    )
    _report(same, "mono experiment rerun", "results and counts byte-identical")
