#!/usr/bin/env python3
"""Steadiness mode: run one workload k times and compare spreads with bounds.

    python3 perfbench/steady.py --workload trig-sweep --runs 10
    python3 perfbench/steady.py --workload trig-sweep --runs 5 --trace
    python3 perfbench/steady.py --workload mono-paired --runs 10 \\
        --save perfbench/out/mono-a.json --against perfbench/out/mono-b.json

Each run is the BENCHMARK.json command with its own --seed (1, 2, ..., k)
and the file's run_seconds. For every end-to-end metric
the table gives the median and quartiles over the runs, the spread (the
distance between the quartiles as a share of the median) and the metric's
bound: a spread under a third of the bound is steady, one under the bound
is tolerable, one over it is too wide. --trace also makes one traced run
per seed, each right after its untraced twin, and prints the per-layer
medians and the tracing overhead (traced minus untraced fit_s_p50).
--against compares the medians with a set saved earlier by --save.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"run failed ({done.returncode}): {' '.join(cmd)}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list) -> tuple:
    """(q1, median, q3, spread) as the driver computes them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def worse_by(metric: dict, before: float, after: float) -> float:
    """Share by which `after` is worse than `before` (negative: better)."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--save", help="write the runs' results to this JSON file")
    ap.add_argument("--against", help="compare medians with a set saved by --save")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    runs, traced = [], []
    for seed in range(1, args.runs + 1):
        runs.append(one_run(spec, args.workload, seed, 0))
        if args.trace:
            traced.append(one_run(spec, args.workload, seed, 1))
        print(f"seed {seed}: fit_s_p50 {runs[-1]['metrics']['fit_s_p50']['value']:.4f}", file=sys.stderr)

    shares = {r["failed"] / r["attempted"] for r in runs + traced}
    print(f"{args.workload}: {len(runs)} runs, seeds 1..{args.runs}, "
          f"failed shares {sorted(shares)}, all correct: {all(r['correct'] for r in runs + traced)}")
    print(f"{'metric':22s} {'unit':7s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
    for name, m in e2e.items():
        q1, med, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
        verdict = "steady" if spread < m["bound"] / 3 else "tolerable" if spread <= m["bound"] else "TOO WIDE"
        print(f"{name:22s} {m['unit']:7s} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread:7.3f} {m['bound']:6.2f}  {verdict}")

    if args.against:
        before = json.loads(Path(args.against).read_text())["runs"]
        print(f"medians against {args.against}:")
        for name, m in e2e.items():
            old = statistics.median(r["metrics"][name]["value"] for r in before)
            new = statistics.median(r["metrics"][name]["value"] for r in runs)
            w = worse_by(m, old, new)
            print(f"  {name:22s} {old:12.6g} -> {new:12.6g}  worse by {w:+.3f} "
                  f"(bound {m['bound']:.2f}) {'ok' if w <= m['bound'] else 'OUTSIDE'}")

    if traced:
        print("per-layer medians over the traced runs:")
        for name in traced[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in traced]
            print(f"  {name:36s} {statistics.median(vals):12.6g} {traced[0]['metrics'][name]['unit']}")
        plain = statistics.median(r["metrics"]["fit_s_p50"]["value"] for r in runs)
        slow = statistics.median(r["metrics"]["trace.fit_s_p50"]["value"] for r in traced)
        print(f"tracing overhead on fit_s_p50: {slow - plain:+.4f} s ({(slow - plain) / plain:+.1%})")

    if args.save:
        Path(args.save).write_text(json.dumps({"workload": args.workload, "runs": runs, "traced": traced}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
