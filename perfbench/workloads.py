"""The benchmark's three workloads: set-up, operations and output checks.

Every workload fits a fixed panel of fits whose training data and
initialisations come from fixed seeds, so the error metrics repeat exactly
from run to run. The run's --seed sets the order of the operations in each
round and draws the trig held-out batch (trig-sweep, files-cli). One
operation is one fit (on mono-paired, the two arms' fits on the same
samples) together with the held-out predictions made from it and the
checks on both; a check that fails marks its operation as failed.

All calls into decoupline go through module attributes (dl.decouple, not a
name imported into this module), so that the traced mode's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.interpolate import BSpline

import decoupline as dl
from decoupline import cli, experiments

# The box every system is sampled on, as in the library's two studies.
LO, HI = -1.5, 1.5

# Each fit's held-out predictions are timed this many times: a 1e5-point
# predict takes about 0.1 s, so one call is too short to time on its own.
PREDICT_REPS = 3

# The FUNCTION-representation trig model extrapolates its boundary
# polynomial pieces outside the training knot domain, so the box corners of
# the held-out batch cost some accuracy. The panel's worst fit (df 12,
# seed 4) scores 4.3% on the held-out batch; a rank-2 fit, which cannot
# carry the third branch, scores 65-71% on it. The ceiling sits between:
# over twice the worst panel fit, far under a fit that lost a branch.
TRIG_TEST_CEILING_PCT = 10.0

# Relative tolerances of the checks. Both sides of each comparison are
# double-precision evaluations of the same quantity by different code.
FD_RTOL = 1e-6
EVAL_RTOL = 1e-9
PREDICT_RTOL = 1e-9
MONOTONE_RTOL = 1e-12


@dataclass
class OpResult:
    """Measurements and check failures of one operation.

    fit_s is the time of all of the operation's fits; scores holds one
    (err_j, err_out_pct, err_poly_pct, err_test_pct) per fit.
    """

    fit_s: float
    predict_rows_per_s: list
    scores: list
    problems: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


@dataclass
class FitCase:
    """One training set: system, samples, exact J and F, held-out truth."""

    system: dl.SyntheticSystem
    X: np.ndarray
    J: dl.Tensor3
    F: np.ndarray
    H: np.ndarray
    F_test: np.ndarray


def _case(system, count: int, seed: int, held: tuple) -> FitCase:
    """A training set drawn from seed, paired with a held-out (H, F_test)."""
    samples = dl.sample_for_system(system, count, LO, HI, seed)
    return FitCase(
        system=system,
        X=samples.X,
        J=dl.jacobian_tensor(system, samples),
        F=dl.zeroth_matrix(system, samples),
        H=held[0],
        F_test=held[1],
    )


def _held_out(system, count: int, seed: int) -> tuple:
    held = dl.sample_for_system(system, count, LO, HI, seed)
    return held.X, dl.zeroth_matrix(system, held)


# ---------------------------------------------------------------- checks


def jacobian_problems(case: FitCase) -> list:
    """Exact J against central differences of zeroth_matrix at the samples.

    The step shrinks with the distance of each sample's branch inputs from
    zero, so a difference never straddles the mono system's pole.
    """
    system, X = case.system, case.X
    u = system.W0 @ X
    reach = np.abs(system.W0).sum(axis=1)[:, None]
    h = 1e-5 * np.minimum(1.0, (np.abs(u) / reach).min(axis=0))
    m = X.shape[0]
    approx = np.empty_like(case.J.data)
    for j in range(m):
        step = np.zeros_like(X)
        step[j] = h
        plus = dl.zeroth_matrix(system, X + step)
        minus = dl.zeroth_matrix(system, X - step)
        approx[:, j, :] = (plus - minus) / (2 * h)
    exact = case.J.data
    diff = np.linalg.norm(exact - approx, axis=(0, 1))
    scale = np.linalg.norm(exact, axis=(0, 1))
    worst = float((diff / scale).max())
    if not worst <= FD_RTOL:
        return [f"exact J differs from finite differences by {worst:.2e} (relative)"]
    return []


def branch_eval_problems(knots, coeffs, degree: int, representation: str, value_fn) -> list:
    """A branch evaluated by scipy's BSpline against SplineFunction.value.

    FUNCTION branches are c0 + B(u) c; DERIVATIVE branches are c0 plus the
    antiderivative of B(u) c from the left end of the knot domain.
    """
    knots = np.asarray(knots, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    spline = BSpline(knots, coeffs[1:], degree)
    if representation == dl.Representation.DERIVATIVE.value:
        spline = spline.antiderivative()
    u = np.linspace(knots[0], knots[-1], 2001)
    ref = coeffs[0] + spline(u)
    got = value_fn(u)
    scale = max(1.0, float(np.abs(ref).max()))
    worst = float(np.abs(got - ref).max())
    if not worst <= EVAL_RTOL * scale:
        return [f"branch value differs from scipy BSpline by {worst:.2e}"]
    return []


def monotone_problems(model) -> list:
    """Every branch certified and, sampled densely, nondecreasing."""
    problems = []
    for j, branch in enumerate(model.branches):
        if dl.certify_monotone(branch) is not dl.Certification.CERTIFIED_INCREASING:
            problems.append(f"branch {j} of a constrained fit is not certified")
        lo, hi = branch.basis.domain
        v = branch.value(np.linspace(lo, hi, 4001))
        drop = float(-np.diff(v).min())
        if drop > MONOTONE_RTOL * max(1.0, float(np.abs(v).max())):
            problems.append(f"branch {j} of a constrained fit falls by {drop:.2e}")
    return problems


def state_problems(model, state, X) -> list:
    """predict on the training samples reproduces W1 @ R.T of the FitState."""
    want = state.W1 @ state.R.T
    got = dl.predict(model, X)
    worst = float(np.abs(got - want).max())
    if not worst <= PREDICT_RTOL * max(1.0, float(np.abs(want).max())):
        return [f"predict on the training samples misses W1 R^T by {worst:.2e}"]
    return []


# ---------------------------------------------------------------- scoring


def model_jacobian(model, X) -> np.ndarray:
    """The fitted model's Jacobian tensor at X: W1 diag(g'(W0 x)) W0."""
    u = model.W0 @ X
    gp = np.stack([b.derivative(u[i]) for i, b in enumerate(model.branches)])
    return np.einsum("ir,rk,rj->ijk", model.W1, gp, model.W0)


def poly_outputs(model, X) -> np.ndarray:
    """Outputs of the degree-10 polynomial refit of each branch at X."""
    u = model.W0 @ X
    rows = []
    for i, branch in enumerate(model.branches):
        vals = branch.value(u[i])
        # a collapsed branch input cannot carry a degree-10 refit; its
        # values are constant and are their own refit
        if np.unique(u[i]).size < 11:
            rows.append(vals)
        else:
            rows.append(experiments.poly_refit(u[i], vals)(u[i]))
    return model.W1 @ np.stack(rows)


def score(tracer, model, case: FitCase, test_outputs) -> tuple:
    """(err_j, err_out_pct, err_poly_pct, err_test_pct) of one fitted model."""
    with tracer.span("bench.score"):
        err_j = dl.error_tensor(case.J, model_jacobian(model, case.X))
        err_out = float(dl.output_error(case.F, dl.predict(model, case.X)).max())
        err_poly = float(dl.output_error(case.F, poly_outputs(model, case.X)).max())
        err_test = float(dl.output_error(case.F_test, test_outputs).max())
    return float(err_j), err_out, err_poly, err_test


def timed_predicts(tracer, model, H) -> tuple:
    """Held-out outputs and the rows/s of each of PREDICT_REPS timings."""
    rates = []
    out = None
    for _ in range(PREDICT_REPS):
        with tracer.span("bench.predict"):
            t0 = time.perf_counter()
            out = dl.predict(model, H)
            rates.append(H.shape[1] / (time.perf_counter() - t0))
    return out, rates


# ---------------------------------------------------------------- workloads


class InProcess:
    """A panel of decouple calls made directly through the library.

    A subclass gives its name, round_s (the nominal seconds of one round),
    setup(seed) -> {case key: FitCase}, panel(data) -> ops, fits(op) -> the
    op's fits, each a tuple whose first item is a case key, and
    config(fit) -> CmtfConfig.
    """

    def setup_problems(self, data) -> list:
        return [p for case in data.values() for p in jacobian_problems(case)]

    def fits(self, op) -> list:
        return [op]

    def extra_problems(self, fit, model, err_test: float) -> list:
        return []

    def run(self, tracer, data, op) -> OpResult:
        fit_s, rates, scores, problems = 0.0, [], [], []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for fit in self.fits(op):
                case = data[fit[0]]
                config = self.config(fit)
                with tracer.span("bench.fit"):
                    t0 = time.perf_counter()
                    model, state = dl.decouple(case.J, case.F, case.X, config)
                    fit_s += time.perf_counter() - t0
                out, more = timed_predicts(tracer, model, case.H)
                rates += more
                scores.append(score(tracer, model, case, out))
                with tracer.span("bench.check"):
                    problems += state_problems(model, state, case.X)
                    for b in model.branches:
                        problems += branch_eval_problems(
                            b.basis.knots, b.coeffs, b.basis.degree, b.representation.value, b.value
                        )
                    problems += self.extra_problems(fit, model, scores[-1][3])
        return OpResult(fit_s, rates, scores, problems=problems, warnings=[str(w.message) for w in caught])


class TrigSweep(InProcess):
    """Trig acceptance protocol at S=100, degree 3, df 12/16/20."""

    name = "trig-sweep"
    round_s = 22.0
    dfs = (12, 16, 20)
    seeds = (1, 2, 3, 4)
    samples = 100
    held_out = 100_000

    def setup(self, seed: int):
        system = dl.builtin_trig()
        held = _held_out(system, self.held_out, 10**6 + seed)
        return {s: _case(system, self.samples, s, held) for s in self.seeds}

    def panel(self, data) -> list:
        return [(s, df) for s in self.seeds for df in self.dfs]

    def config(self, fit) -> dl.CmtfConfig:
        seed, df = fit
        return dl.CmtfConfig(
            rank=3,
            degree=3,
            df=df,
            lam=0.01,
            representation=dl.Representation.FUNCTION,
            constraint=dl.Constraint.NONE,
            max_iter=800,
            rel_tol=1e-12,
            seed=seed,
        )

    def extra_problems(self, fit, model, err_test: float) -> list:
        if not err_test <= TRIG_TEST_CEILING_PCT:
            return [f"held-out error {err_test:.3f}% over the {TRIG_TEST_CEILING_PCT}% ceiling"]
        return []


class MonoPaired(InProcess):
    """Mono protocol at degree 4, df 12, both arms on the same samples.

    One operation is the pair of fits on one seed's samples, so fit_s is
    the time of an unconstrained and a constrained fit together. Timing
    the arms apart would pool two groups of fit times whose median falls
    in the gap between them.
    """

    name = "mono-paired"
    round_s = 12.0
    seeds = (0, 1, 2, 3, 4, 5)
    samples = 100
    held_out = 100_000

    def setup(self, seed: int):
        data = {}
        for s in self.seeds:
            system = dl.builtin_mono(s)
            # a pole sample decides this system's held-out error (ROADMAP
            # open item 4), so a batch drawn from the run's seed would swing
            # err_test by a quarter between runs; the batch is fixed instead
            held = _held_out(system, self.held_out, 10**6 + s)
            data[s] = _case(system, self.samples, s, held)
        return data

    def panel(self, data) -> list:
        return list(self.seeds)

    def fits(self, op) -> list:
        return [(op, dl.Constraint.NONE), (op, dl.Constraint.MONOTONE_INCREASING)]

    def config(self, fit) -> dl.CmtfConfig:
        seed, arm = fit
        return dl.CmtfConfig(
            rank=3,
            degree=4,
            df=12,
            lam=0.1,
            representation=dl.Representation.DERIVATIVE,
            constraint=arm,
            max_iter=200,
            rel_tol=1e-8,
            seed=seed,
        )

    def extra_problems(self, fit, model, err_test: float) -> list:
        if fit[1] is dl.Constraint.MONOTONE_INCREASING:
            return monotone_problems(model)
        return []


class FilesCli:
    """The decouple and predict commands on text files, CLI defaults.

    One training set of the trig system at S=2000; the fits differ by the
    command's --seed. The held-out batch of 2e5 points goes through the
    predict command: load the model, read the inputs, predict, write.
    """

    name = "files-cli"
    round_s = 8.0
    fit_seeds = (0, 1, 2)
    sample_seed = 0
    samples = 2000
    held_out = 200_000

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed: int):
        system = dl.builtin_trig()
        held = _held_out(system, self.held_out, 10**6 + seed)
        case = _case(system, self.samples, self.sample_seed, held)
        d = self.workdir
        dl.tensor3.write_tensor(case.J, d / "J.txt")
        dl.tensor3.write_matrix(case.F, d / "F.txt")
        dl.tensor3.write_matrix(case.X, d / "X.txt")
        dl.tensor3.write_matrix(case.H, d / "H.txt")
        return case

    def setup_problems(self, case) -> list:
        return jacobian_problems(case)

    def panel(self, case) -> list:
        return list(self.fit_seeds)

    def _command(self, tracer, span: str, argv: list) -> tuple:
        sink = io.StringIO()
        with tracer.span(span), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            code = cli.main(argv)
            took = time.perf_counter() - t0
        problems = [] if code == 0 else [f"{argv[0]} exited {code}: {sink.getvalue().strip()}"]
        return took, problems

    def run(self, tracer, case, op) -> OpResult:
        d = self.workdir
        model_path, out_path = d / f"model-{op}.json", d / f"Y-{op}.txt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with tracer.span("bench.fit"):
                fit_s, problems = self._command(tracer, "cli.decouple", [
                    "decouple", "--tensor", str(d / "J.txt"), "--zeroth", str(d / "F.txt"),
                    "--samples", str(d / "X.txt"), "--seed", str(op), "--out", str(model_path),
                ])
            with tracer.span("bench.predict"):
                pred_s, more = self._command(tracer, "cli.predict", [
                    "predict", "--model", str(model_path), "--inputs", str(d / "H.txt"),
                    "--out", str(out_path),
                ])
            problems += more
            if problems:
                return OpResult(fit_s, [], [], problems=problems)
            with tracer.span("bench.check"):
                written = np.loadtxt(out_path, delimiter=",", ndmin=2)
                model = dl.load_model(model_path)
                if not np.array_equal(written, dl.predict(model, case.H)):
                    problems.append("outputs file differs from predict on the loaded model")
                with open(model_path) as fh:
                    saved = json.load(fh)["branches"]
                for raw, branch in zip(saved, model.branches):
                    problems += branch_eval_problems(
                        raw["knots"], raw["coeffs"], raw["degree"], raw["representation"], branch.value
                    )
            errs = score(tracer, model, case, written)
        return OpResult(
            fit_s, [case.H.shape[1] / pred_s], [errs],
            problems=problems, warnings=[str(w.message) for w in caught],
        )


def make(name: str, workdir: Path):
    if name == FilesCli.name:
        return FilesCli(workdir)
    return {TrigSweep.name: TrigSweep, MonoPaired.name: MonoPaired}[name]()


NAMES = (TrigSweep.name, MonoPaired.name, FilesCli.name)
