"""Sweep runners, error metrics, and result persistence.

Two canned sweeps: a trigonometric 2-in 2-out system fitted over a grid of
spline degrees and degrees of freedom, and a monotone 3-in 3-out system
fitted with and without the monotonicity constraint. Each run records the
tensor reconstruction error, relative output errors (from the spline
branches and from a degree-10 polynomial refit of them), per-branch
monotonicity certificates, and iteration counts, all reproducible from one
base seed.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .decoupling import (
    Certification,
    CmtfConfig,
    Constraint,
    certify_monotone,
    decouple,
    predict,
)
from .bspline import Representation
from .sysgen import (
    SyntheticSystem,
    builtin_mono,
    builtin_trig,
    jacobian_tensor,
    sample_for_system,
    zeroth_matrix,
)
from .tensor3 import Tensor3, frob_norm_sq

__all__ = [
    "RunRecord",
    "ExperimentSpec",
    "trig_spec",
    "mono_spec",
    "error_tensor",
    "output_error",
    "poly_refit",
    "run_trig_experiment",
    "run_mono_experiment",
    "write_records",
    "read_records",
    "monotone_counts",
    "write_counts",
    "median_table",
]

# both studies draw their samples from the box (LO, HI)^m
LO, HI = -1.5, 1.5


@dataclass(frozen=True)
class RunRecord:
    """Metrics of one fit: one grid cell, one run, one constraint arm.

    errors / poly_errors hold the per-output relative errors (percent) of
    the spline model and of its degree-10 polynomial refit; monotone holds
    one certificate flag per branch. wall_ms is informational only and is
    not persisted (results files must be byte-reproducible).
    """

    run_index: int
    seed: int
    degree: int
    df: int
    constrained: bool
    error_j: float
    errors: tuple
    poly_errors: tuple
    monotone: tuple
    iterations: int
    wall_ms: float = 0.0


@dataclass(frozen=True)
class ExperimentSpec:
    """Grid and sampling settings for one sweep."""

    kind: str
    degrees: tuple
    dfs: tuple
    runs: int = 30
    samples: int = 100
    # a low coupling weight lets the value fit refine the shared factors
    # without the min-norm R step biasing wide-W1 systems; 800 sweeps with a
    # tight relative tolerance runs every grid cell to a fixed point
    lam: float = 0.01
    base_seed: int = 0
    out_dir: Path | None = None
    plots: bool = False
    max_iter: int = 800
    rel_tol: float = 1e-12

    def __post_init__(self):
        if self.kind not in ("trig", "mono"):
            raise ValueError(f"kind must be 'trig' or 'mono', got {self.kind!r}.")
        if not self.degrees or not self.dfs:
            raise ValueError("degree and df grids must be nonempty.")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}.")
        if self.out_dir is not None:
            object.__setattr__(self, "out_dir", Path(self.out_dir))


def trig_spec(**overrides) -> ExperimentSpec:
    """Default trig sweep: degrees 1..3, df 4,6,...,28, 30 runs."""
    base = ExperimentSpec(
        kind="trig", degrees=(1, 2, 3), dfs=tuple(range(4, 29, 2))
    )
    return replace(base, **overrides) if overrides else base


def mono_spec(**overrides) -> ExperimentSpec:
    """Default mono sweep: degree 4, df 8,10,...,20, 30 paired runs.

    Uses the plain fit protocol (lam 0.1, 200 sweeps, rel_tol 1e-8): the
    3x3 system has a square full-rank W1, so the low coupling weight the
    trig sweep needs against min-norm deflation buys nothing here, and the
    shorter budget keeps the paired sweep fast.
    """
    base = ExperimentSpec(
        kind="mono",
        degrees=(4,),
        dfs=tuple(range(8, 21, 2)),
        lam=0.1,
        max_iter=200,
        rel_tol=1e-8,
    )
    return replace(base, **overrides) if overrides else base


def error_tensor(J: Tensor3, J_hat) -> float:
    """Relative squared reconstruction error of a tensor."""
    ref = frob_norm_sq(J)
    if ref == 0:
        raise ValueError("reference tensor has zero norm.")
    target = J_hat.data if isinstance(J_hat, Tensor3) else np.asarray(J_hat)
    return frob_norm_sq(np.asarray(J.data) - target) / ref


def output_error(true_outputs, model_outputs) -> np.ndarray:
    """Per-output relative RMS error as a percentage.

    Row i scores 100 * ||f_i - fhat_i|| / ||f_i - mean(f_i)||; a constant
    true output makes the denominator zero and the error undefined (nan,
    with a warning).
    """
    truth = np.atleast_2d(np.asarray(true_outputs, dtype=float))
    fitted = np.atleast_2d(np.asarray(model_outputs, dtype=float))
    if truth.shape != fitted.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {fitted.shape}.")
    if truth.shape[1] < 2:
        raise ValueError("need at least 2 evaluation samples.")
    num = np.linalg.norm(truth - fitted, axis=1)
    den = np.linalg.norm(truth - truth.mean(axis=1, keepdims=True), axis=1)
    out = np.full(truth.shape[0], np.nan)
    ok = den > 0
    if not ok.all():
        warnings.warn("constant true output: relative error undefined", stacklevel=2)
    out[ok] = 100.0 * num[ok] / den[ok]
    return out


def poly_refit(u, values, degree: int = 10):
    """Least-squares polynomial refit of sampled branch values.

    Fits in a variable scaled to [-1, 1] for conditioning; the returned
    numpy Polynomial evaluates in the original variable and exposes the
    scaled-variable coefficients as .coef.
    """
    u = np.asarray(u, dtype=float).ravel()
    values = np.asarray(values, dtype=float).ravel()
    if np.unique(u).size < degree + 1:
        raise ValueError(
            f"need at least {degree + 1} distinct points for degree {degree}."
        )
    return np.polynomial.Polynomial.fit(u, values, degree)


def _refit_row(u_row, vals) -> np.ndarray:
    # a collapsed branch input row (dead component) cannot support a
    # degree-10 refit; its values are constant and are their own refit
    if np.unique(u_row).size < 11:
        return np.asarray(vals, dtype=float).copy()
    return poly_refit(u_row, vals)(u_row)


def _fit_once(sys: SyntheticSystem, sample_set, config: CmtfConfig) -> RunRecord:
    x = sample_set.X
    jt = jacobian_tensor(sys, sample_set)
    f_mat = zeroth_matrix(sys, sample_set)
    t0 = time.perf_counter()
    model, state = decouple(jt, f_mat, x, config)
    wall_ms = (time.perf_counter() - t0) * 1000.0

    recon = np.einsum("ir,jr,kr->ijk", state.W1, state.W0.T, state.G)
    err_j = error_tensor(jt, recon)

    pred = predict(model, x)
    e_spline = output_error(f_mat, pred)

    u = model.W0 @ x
    branch_vals = np.stack(
        [branch.value(u[i]) for i, branch in enumerate(model.branches)]
    )
    poly_vals = np.stack(
        [_refit_row(u[i], branch_vals[i]) for i in range(len(model.branches))]
    )
    e_poly = output_error(f_mat, model.W1 @ poly_vals)

    mono = tuple(
        certify_monotone(b) is Certification.CERTIFIED_INCREASING
        for b in model.branches
    )
    return RunRecord(
        run_index=0,
        seed=config.seed,
        degree=config.degree,
        df=config.df,
        constrained=config.constraint is Constraint.MONOTONE_INCREASING,
        error_j=float(err_j),
        errors=tuple(float(v) for v in e_spline),
        poly_errors=tuple(float(v) for v in e_poly),
        monotone=mono,
        iterations=state.iterations,
        wall_ms=wall_ms,
    )


def _failed_record(config: CmtfConfig, n_out: int, n_branch: int) -> RunRecord:
    return RunRecord(
        run_index=0,
        seed=config.seed,
        degree=config.degree,
        df=config.df,
        constrained=config.constraint is Constraint.MONOTONE_INCREASING,
        error_j=float("nan"),
        errors=(float("nan"),) * n_out,
        poly_errors=(float("nan"),) * n_out,
        monotone=(False,) * n_branch,
        iterations=0,
        wall_ms=0.0,
    )


def _run_cell(sys_factory, spec: ExperimentSpec, config_factory, records: list):
    """Shared sweep loop: seeds, sampling, fit, failure capture."""
    for run in range(spec.runs):
        seed = spec.base_seed + run
        sys = sys_factory(seed)
        sample_set = sample_for_system(sys, spec.samples, LO, HI, seed)
        for config in config_factory(seed):
            try:
                rec = _fit_once(sys, sample_set, config)
            except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
                warnings.warn(f"run {run} (seed {seed}) failed: {exc}", stacklevel=2)
                rec = _failed_record(config, sys.dims[0], sys.dims[2])
            records.append(replace(rec, run_index=run))


def run_trig_experiment(spec: ExperimentSpec) -> list:
    """Unconstrained sweep on the trigonometric system over (degree, df)."""
    if spec.kind != "trig":
        raise ValueError(f"spec kind must be 'trig', got {spec.kind!r}.")
    records: list = []
    for degree in spec.degrees:
        for df in spec.dfs:
            def configs(seed, degree=degree, df=df):
                return (
                    CmtfConfig(
                        rank=3,
                        degree=degree,
                        df=df,
                        lam=spec.lam,
                        representation=Representation.FUNCTION,
                        constraint=Constraint.NONE,
                        max_iter=spec.max_iter,
                        rel_tol=spec.rel_tol,
                        seed=seed,
                    ),
                )

            _run_cell(lambda seed: builtin_trig(), spec, configs, records)
    _write_outputs(spec, records)
    return records


def run_mono_experiment(spec: ExperimentSpec) -> list:
    """Paired constrained/unconstrained sweep on the monotone system."""
    if spec.kind != "mono":
        raise ValueError(f"spec kind must be 'mono', got {spec.kind!r}.")
    records: list = []
    for degree in spec.degrees:
        for df in spec.dfs:
            def configs(seed, degree=degree, df=df):
                shared = dict(
                    rank=3,
                    degree=degree,
                    df=df,
                    lam=spec.lam,
                    representation=Representation.DERIVATIVE,
                    max_iter=spec.max_iter,
                    rel_tol=spec.rel_tol,
                    seed=seed,
                )
                return (
                    CmtfConfig(constraint=Constraint.NONE, **shared),
                    CmtfConfig(constraint=Constraint.MONOTONE_INCREASING, **shared),
                )

            _run_cell(builtin_mono, spec, configs, records)
    _write_outputs(spec, records)
    return records


def _write_outputs(spec: ExperimentSpec, records: list) -> None:
    if spec.out_dir is None:
        return
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    write_records(records, spec.out_dir / "results.csv")
    if spec.kind == "mono":
        write_counts(monotone_counts(records), spec.out_dir / "counts.csv")
    if spec.plots:
        from .plots import experiment_plots

        experiment_plots(spec, records)


def _fmt(v: float) -> str:
    return repr(float(v))


def write_records(records: list, path) -> None:
    """One header row, then one record per line.

    Column counts adapt to the system: e<i>/poly_e<i> per output,
    mono_<j> per branch. Floats go through repr so parsing them back is
    exact; wall clock time is deliberately left out.
    """
    if not records:
        raise ValueError("no records to write.")
    n_out = len(records[0].errors)
    n_branch = len(records[0].monotone)
    cols = ["run_index", "seed", "degree", "df", "constrained", "error_j"]
    cols += [f"e{i + 1}" for i in range(n_out)]
    cols += [f"poly_e{i + 1}" for i in range(n_out)]
    cols += [f"mono_{j + 1}" for j in range(n_branch)]
    cols += ["iterations"]
    lines = [",".join(cols)]
    for rec in records:
        row = [
            str(rec.run_index),
            str(rec.seed),
            str(rec.degree),
            str(rec.df),
            "true" if rec.constrained else "false",
            _fmt(rec.error_j),
        ]
        row += [_fmt(v) for v in rec.errors]
        row += [_fmt(v) for v in rec.poly_errors]
        row += ["true" if flag else "false" for flag in rec.monotone]
        row += [str(rec.iterations)]
        lines.append(",".join(row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_records(path) -> list:
    """Parse a results file back into RunRecords (wall_ms comes back 0)."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"malformed results file {path}: no data rows.")
    header = lines[0].split(",")
    try:
        n_out = sum(1 for c in header if c.startswith("e") and c[1:].isdigit())
        mono_cols = [c for c in header if c.startswith("mono_")]
        n_branch = len(mono_cols)
        records = []
        for line in lines[1:]:
            vals = line.split(",")
            row = dict(zip(header, vals))
            records.append(
                RunRecord(
                    run_index=int(row["run_index"]),
                    seed=int(row["seed"]),
                    degree=int(row["degree"]),
                    df=int(row["df"]),
                    constrained=row["constrained"] == "true",
                    error_j=float(row["error_j"]),
                    errors=tuple(float(row[f"e{i + 1}"]) for i in range(n_out)),
                    poly_errors=tuple(
                        float(row[f"poly_e{i + 1}"]) for i in range(n_out)
                    ),
                    monotone=tuple(row[c] == "true" for c in mono_cols),
                    iterations=int(row["iterations"]),
                )
            )
    except (KeyError, ValueError, IndexError) as exc:
        raise ValueError(f"malformed results file {path}: {exc}.") from exc
    return records


def monotone_counts(records: list) -> dict:
    """Runs per (arm, df) where every branch certified monotone.

    Returns {(constrained, df): count} over the records.
    """
    counts: dict = {}
    for rec in records:
        key = (rec.constrained, rec.df)
        counts.setdefault(key, 0)
        if all(rec.monotone):
            counts[key] += 1
    return counts


def write_counts(counts: dict, path) -> None:
    """Certified-run counts, one row per arm, one column per df."""
    dfs = sorted({df for _, df in counts})
    lines = ["arm," + ",".join(f"df_{df}" for df in dfs)]
    for constrained, label in ((False, "unconstrained"), (True, "constrained")):
        row = [label] + [str(counts.get((constrained, df), 0)) for df in dfs]
        lines.append(",".join(row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def median_table(records: list, metric) -> dict:
    """Median of a per-record metric per (degree, df, constrained) cell.

    metric is a callable RunRecord -> float (e.g. biggest output error).
    """
    cells: dict = {}
    for rec in records:
        cells.setdefault((rec.degree, rec.df, rec.constrained), []).append(
            metric(rec)
        )
    # failed runs carry nan metrics and are recorded but not aggregated
    return {key: float(np.nanmedian(vals)) for key, vals in cells.items()}
