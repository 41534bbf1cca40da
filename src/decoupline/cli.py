"""Command line entry points.

Subcommands: decouple (fit a model from tensor/matrix text files),
experiment (run a canned sweep), certify (monotonicity certificates of a
saved model), predict (evaluate a saved model on new inputs).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bspline import Representation
from .decoupling import (
    STALL_SWEEPS,
    CmtfConfig,
    Constraint,
    certify_monotone,
    decouple,
    load_model,
    predict,
    save_model,
    write_diagnostics,
)
from .experiments import (
    median_table,
    mono_spec,
    monotone_counts,
    run_experiment,
    trig_spec,
)
from .tensor3 import read_matrix, read_tensor, write_matrix


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoupline",
        description="Decouple a sampled vector function into W1 g(W0 x).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decouple", help="fit a model from text files")
    p_dec.add_argument("--tensor", required=True, help="Jacobian tensor file")
    p_dec.add_argument("--zeroth", required=True, help="function-value matrix file")
    p_dec.add_argument("--samples", required=True, help="sample-point matrix file")
    p_dec.add_argument("--rank", type=int, default=3)
    p_dec.add_argument("--degree", type=int, default=3)
    p_dec.add_argument("--dof", type=int, default=16)
    p_dec.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p_dec.add_argument("--constraint", choices=sorted(c.value for c in Constraint), default="none")
    p_dec.add_argument("--rep", choices=sorted(r.value for r in Representation), default="function")
    p_dec.add_argument("--seed", type=int, default=0)
    p_dec.add_argument("--max-iter", type=int, default=200)
    p_dec.add_argument(
        "--rel-tol",
        type=float,
        default=1e-8,
        help="stop when one sweep changes the objective by at most this times "
        f"the previous objective, or when {STALL_SWEEPS} sweeps in a row do not "
        "lower the best objective by more than this times the best (default: 1e-8)",
    )
    p_dec.add_argument("--diagnostics", help="write per-iteration CSV here")
    p_dec.add_argument("--out", required=True, help="model JSON output path")

    p_exp = sub.add_parser("experiment", help="run a canned sweep")
    p_exp.add_argument("kind", choices=("trig", "mono"))
    p_exp.add_argument("--runs", type=int, default=30)
    p_exp.add_argument("--samples", type=int, default=100)
    p_exp.add_argument("--seed", type=int, default=0, help="base seed")
    p_exp.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        help="coupling weight override (default: per-experiment protocol)",
    )
    p_exp.add_argument("--degrees", type=_int_list, help="comma-separated grid override")
    p_exp.add_argument("--dfs", type=_int_list, help="comma-separated grid override")
    p_exp.add_argument("--max-iter", type=int, help="sweep budget override")
    p_exp.add_argument("--rel-tol", type=float, help="stopping tolerance override")
    p_exp.add_argument("--out-dir", default="out", help="output directory")
    p_exp.add_argument("--plots", action="store_true", help="emit SVG boxplots")

    p_cert = sub.add_parser("certify", help="print per-branch certificates")
    p_cert.add_argument("--model", required=True)

    p_pred = sub.add_parser("predict", help="evaluate a model on inputs")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--inputs", required=True, help="m x T matrix file")
    p_pred.add_argument("--out", help="write outputs here instead of stdout")

    return parser


def _cmd_decouple(args) -> int:
    tensor = read_tensor(args.tensor)
    zeroth = read_matrix(args.zeroth)
    samples = read_matrix(args.samples)
    config = CmtfConfig(
        rank=args.rank,
        degree=args.degree,
        df=args.dof,
        lam=args.lam,
        representation=Representation(args.rep),
        constraint=Constraint(args.constraint),
        max_iter=args.max_iter,
        rel_tol=args.rel_tol,
        seed=args.seed,
    )
    model, state = decouple(tensor, zeroth, samples, config)
    save_model(model, args.out)
    if args.diagnostics:
        write_diagnostics(state, args.diagnostics)
    obj = state.history[-1][0] if state.history else float("nan")
    print(
        f"fit finished after {state.iterations} iterations ({state.stop_reason}), "
        f"objective {obj:.6e}, model written to {args.out}"
    )
    return 0


def _cmd_experiment(args) -> int:
    maker = trig_spec if args.kind == "trig" else mono_spec
    overrides = dict(
        runs=args.runs,
        samples=args.samples,
        base_seed=args.seed,
        out_dir=args.out_dir,
        plots=args.plots,
    )
    for name in ("lam", "degrees", "dfs", "max_iter", "rel_tol"):
        if getattr(args, name) is not None:
            overrides[name] = getattr(args, name)
    spec = maker(**overrides)
    records = run_experiment(spec)
    print(f"{len(records)} runs recorded in {spec.out_dir}/results.csv")
    print("\n".join(_summary_lines(spec, records)))
    return 0


def _summary_lines(spec, records) -> list:
    """Median table of a finished sweep, one row per df (per degree for mono).

    trig: median worst-output error of the poly refit, one column per
    degree. mono: runs with every branch certified, and median Error(J),
    for the unconstrained and constrained arms.
    """
    if spec.kind == "trig":
        meds = median_table(records, lambda rec: max(rec.poly_errors))
        lines = [
            "median worst-output error of the poly refit (%):",
            "  df" + "".join(f"{f'd={d}':>9}" for d in spec.degrees),
        ]
        for df in spec.dfs:
            lines.append(f"{df:4d}" + "".join(f"{meds[(d, df, False)]:9.3f}" for d in spec.degrees))
        return lines
    meds = median_table(records, lambda rec: rec.error_j)
    lines = [
        "         certified    median Error(J)",
        "   d  df  unc  con      unc      con",
    ]
    for d in spec.degrees:
        counts = monotone_counts([rec for rec in records if rec.degree == d])
        for df in spec.dfs:
            lines.append(
                f"{d:4d}{df:4d}{counts[(False, df)]:5d}{counts[(True, df)]:5d}"
                f"{meds[(d, df, False)]:9.4f}{meds[(d, df, True)]:9.4f}"
            )
    return lines


def _cmd_certify(args) -> int:
    model = load_model(args.model)
    for j, branch in enumerate(model.branches, start=1):
        print(f"branch {j}: {certify_monotone(branch).name}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    inputs = read_matrix(args.inputs)
    outputs = predict(model, inputs)
    if args.out:
        write_matrix(outputs, args.out)
        print(f"outputs written to {args.out}")
    else:
        for row in outputs:
            print(",".join(map(repr, row.tolist())))
    return 0


_COMMANDS = {
    "decouple": _cmd_decouple,
    "experiment": _cmd_experiment,
    "certify": _cmd_certify,
    "predict": _cmd_predict,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
