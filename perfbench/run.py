#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    env OPENBLAS_NUM_THREADS=1 python3 perfbench/run.py \\
        --workload trig-sweep --seed 1 --seconds 24 --trace 0

The run imports decoupline from the src directory next to this one, sets
the workload up, then runs whole rounds of the workload's fixed panel of
fits, one after another in this process (a closed loop with one client),
each round in an order shuffled by --seed. The number of rounds follows
from --seconds and the round's nominal length on the reference machine, so
a run does the same work whatever the machine's speed at the moment. After
every operation the run sets the workload up once more and imports
decoupline once in a fresh interpreter, so that setup_s is a median over
samples spread through the whole run rather than taken in its first
seconds. With --trace 0 it prints the end-to-end metrics of BENCHMARK.json;
with --trace 1 it wraps the library's public functions, prints the
per-layer metrics instead and writes the spans to perfbench/out/. The last
line of standard output is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
OUT = HERE / "out"

IMPORT_PROBE = "import time; t = time.perf_counter(); import decoupline; print(time.perf_counter() - t)"


def import_seconds() -> float:
    """Wall time of `import decoupline` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "decoupline" / "__init__.py").is_file():
        print(f"error: no decoupline sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        print("warning: BLAS is not pinned to one thread; use the BENCHMARK.json command", file=sys.stderr)
    sys.path.insert(0, str(SRC))

    import layers
    import workloads
    from tracer import NullTracer, Tracer

    if args.workload not in workloads.NAMES:
        ap.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install(layers.TARGETS)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        result = run(args, workloads.make(args.workload, Path(workdir)), tracer)
    if args.trace:
        tracer.uninstall()
        metrics = layers.metrics(tracer)
        metrics["trace.fit_s_p50"] = result["fit_s_p50"]
        path = OUT / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.dump(path)
        print(f"spans written to {path.relative_to(HERE.parent)}", file=sys.stderr)
        for layer, share in layers.layer_shares(tracer).items():
            print(f"share of fit time in {layer}: {share:.3f}", file=sys.stderr)
    else:
        metrics = result
    listed = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


def run(args, wl, tracer) -> dict:
    setup_times, import_times = [], []

    def set_up():
        with tracer.span("bench.setup"):
            t0 = time.perf_counter()
            data = wl.setup(args.seed)
            setup_times.append(time.perf_counter() - t0)
        import_times.append(import_seconds())
        return data

    data = set_up()
    setup_problems = wl.setup_problems(data)
    for problem in setup_problems:
        print(f"check failed in set-up: {problem}", file=sys.stderr)

    rounds = max(1, round(args.seconds / wl.round_s))
    order = random.Random(args.seed)
    ops = []
    for _ in range(rounds):
        ops += order.sample(wl.panel(data), k=len(wl.panel(data)))
    results, failed = [], 0
    for op in ops:
        try:
            res = wl.run(tracer, data, op)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        finally:
            set_up()
        tracer.count("bspline.knot_warnings", sum(w.startswith("coincident interior knots") for w in res.warnings))
        if res.problems:
            failed += 1
            for problem in res.problems:
                print(f"check failed in {wl.name} op {op}: {problem}", file=sys.stderr)
            continue
        results.append(res)

    def p50(values):
        # None when every operation failed: the counts still get reported
        values = list(values)
        return statistics.median(values) if values else None

    setup_s = statistics.median(setup_times) + statistics.median(import_times)
    fit_s = p50(r.fit_s for r in results)
    rows_per_s = p50(x for r in results for x in r.predict_rows_per_s)
    scores = [s for r in results for s in r.scores]
    return {
        "correct": not setup_problems,
        "attempted": len(ops),
        "failed": failed,
        "setup_s": setup_s,
        "fit_s_p50": fit_s,
        "predict_rows_per_s": rows_per_s,
        "err_j_p50": p50(s[0] for s in scores),
        "err_out_pct_p50": p50(s[1] for s in scores),
        "err_poly_pct_p50": p50(s[2] for s in scores),
        "err_test_pct_p50": p50(s[3] for s in scores),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


if __name__ == "__main__":
    sys.exit(main())
