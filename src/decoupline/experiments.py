"""Study runner, error metrics, and result persistence.

Two canned studies, both run by run_experiment: a trigonometric 2-in 2-out
system fitted over a grid of spline degrees and degrees of freedom, and a
monotone 3-in 3-out system fitted with and without the monotonicity
constraint. _STUDIES holds the three facts that set them apart: the system
drawn for a seed, the branch representation, and the constraint arms. Each
run records the tensor reconstruction error, relative output errors (from
the spline branches and from a degree-10 polynomial refit of them),
per-branch monotonicity certificates, and iteration counts, all
reproducible from one base seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from .decoupling import (
    Certification,
    CmtfConfig,
    Constraint,
    certify_monotone,
    decouple,
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
from .tensor3 import Tensor3, frob_norm_sq, reconstruct

__all__ = [
    "RunRecord",
    "ExperimentSpec",
    "trig_spec",
    "mono_spec",
    "error_tensor",
    "output_error",
    "poly_refit",
    "run_experiment",
    "write_records",
    "read_records",
    "monotone_counts",
    "write_counts",
    "median_table",
]

# both studies draw their samples from the box (LO, HI)^m
LO, HI = -1.5, 1.5

# kind -> (system for a seed, branch representation, constraint arms); every
# arm is fitted on the same system and samples
_STUDIES = {
    "trig": (lambda seed: builtin_trig(), Representation.FUNCTION, (Constraint.NONE,)),
    "mono": (
        builtin_mono,
        Representation.DERIVATIVE,
        (Constraint.NONE, Constraint.MONOTONE_INCREASING),
    ),
}


@dataclass(frozen=True)
class RunRecord:
    """Metrics of one fit: one grid cell, one run, one constraint arm.

    errors / poly_errors hold the per-output relative errors (percent) of
    the spline model and of its degree-10 polynomial refit; monotone holds
    one certificate flag per branch.
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
        if self.kind not in _STUDIES:
            kinds = " or ".join(map(repr, _STUDIES))
            raise ValueError(f"kind must be {kinds}, got {self.kind!r}.")
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


def _fit_once(sys: SyntheticSystem, sample_set, config: CmtfConfig) -> dict:
    """The metric fields of a RunRecord for one fit."""
    x = sample_set.X
    jt = jacobian_tensor(sys, sample_set)
    f_mat = zeroth_matrix(sys, sample_set)
    model, state = decouple(jt, f_mat, x, config)

    err_j = error_tensor(jt, reconstruct(state.W1, state.W0.T, state.G))

    u = model.W0 @ x
    branch_vals = np.stack(
        [branch.value(u[i]) for i, branch in enumerate(model.branches)]
    )
    e_spline = output_error(f_mat, model.W1 @ branch_vals)
    poly_vals = np.stack(
        [_refit_row(u[i], branch_vals[i]) for i in range(len(model.branches))]
    )
    e_poly = output_error(f_mat, model.W1 @ poly_vals)

    mono = tuple(
        certify_monotone(b) is Certification.CERTIFIED_INCREASING
        for b in model.branches
    )
    return dict(
        error_j=float(err_j),
        errors=tuple(float(v) for v in e_spline),
        poly_errors=tuple(float(v) for v in e_poly),
        monotone=mono,
        iterations=state.iterations,
    )


def _failed_fit(n_out: int, n_branch: int) -> dict:
    return dict(
        error_j=float("nan"),
        errors=(float("nan"),) * n_out,
        poly_errors=(float("nan"),) * n_out,
        monotone=(False,) * n_branch,
        iterations=0,
    )


def run_experiment(spec: ExperimentSpec) -> list:
    """Fit spec's study over its (degree, df) grid, one record per run and arm.

    Run r draws its system and samples from seed base_seed + r, and every
    constraint arm of the study is fitted on them. Records come out in
    (degree, df, run, arm) order. A fit that raises is recorded with nan
    metrics and a warning, and the sweep goes on. With spec.out_dir set,
    results.csv (and counts.csv for mono, SVG plots on request) go there.
    """
    system_for, representation, arms = _STUDIES[spec.kind]
    records: list = []
    for degree, df, run in product(spec.degrees, spec.dfs, range(spec.runs)):
        seed = spec.base_seed + run
        sys = system_for(seed)
        sample_set = sample_for_system(sys, spec.samples, LO, HI, seed)
        for constraint in arms:
            config = CmtfConfig(
                rank=3,
                degree=degree,
                df=df,
                lam=spec.lam,
                representation=representation,
                constraint=constraint,
                max_iter=spec.max_iter,
                rel_tol=spec.rel_tol,
                seed=seed,
            )
            try:
                metrics = _fit_once(sys, sample_set, config)
            except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
                warnings.warn(f"run {run} (seed {seed}) failed: {exc}", stacklevel=2)
                metrics = _failed_fit(sys.dims[0], sys.dims[2])
            constrained = constraint is Constraint.MONOTONE_INCREASING
            records.append(RunRecord(run, seed, degree, df, constrained, **metrics))
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
    exact.
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
    """Parse a results file back into RunRecords."""
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
