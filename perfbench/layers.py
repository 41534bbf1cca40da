"""Layers of decoupline as the traced mode sees them, and their metrics.

Each layer is one module of the package. TARGETS lists the public functions
the tracer wraps, with the span name each gets and, where a metric reads a
public return value, the note to keep from each call. `metrics()` turns the
spans and notes of one run into the per-layer metrics of BENCHMARK.json.

The benchmark opens its own spans around its phases: bench.setup,
bench.fit (the decouple call or command), bench.predict (held-out
predictions), bench.score (error metrics) and bench.check (output checks).
A library span belongs to the phase of its nearest bench ancestor; fit-path
metrics count only spans under bench.fit and bench.predict.
"""

from __future__ import annotations

import os

import numpy as np

D, SO, BS, T3, SG, EX = (
    "decoupline.decoupling",
    "decoupline.solvers",
    "decoupline.bspline",
    "decoupline.tensor3",
    "decoupline.sysgen",
    "decoupline.experiments",
)


def _fit_note(out, args, kwargs):
    state = out[1]
    config = args[3] if len(args) > 3 else kwargs["config"]
    return state.iterations, config.max_iter, [h[0] for h in state.history]


def _rank_note(out, args, kwargs):
    return out.rank_deficient


def _size_note(position):
    def note(out, args, kwargs):
        return os.path.getsize(args[position])

    return note


TARGETS = [
    (D, "decouple", "decoupling.decouple", _fit_note),
    (D, "bspline_projection", "decoupling.projection", lambda out, a, k: sum(out.fallback)),
    (D, "normalize_columns_w0t", "decoupling.normalize", None),
    (D, "objective_terms", "decoupling.objective", None),
    (D, "predict", "decoupling.predict", lambda out, a, k: out.shape[1]),
    (D, "save_model", "decoupling.save_model", None),
    (D, "load_model", "decoupling.load_model", None),
    (D, "certify_monotone", "decoupling.certify_monotone", None),
    (SO, "lstsq", "solvers.lstsq", _rank_note),
    (SO, "stacked_lstsq", "solvers.stacked_lstsq", _rank_note),
    (SO, "nnls", "solvers.nnls", lambda out, a, k: (out.iterations, out.cap_exceeded)),
    (BS, "determine_knots", "bspline.determine_knots", None),
    (BS, "design_matrix", "bspline.design", None),
    (BS, "derivative_design_matrix", "bspline.design", None),
    (BS, "integral_design_matrix", "bspline.design", None),
    (BS, "augment", "bspline.design", None),
    (T3, "khatri_rao", "tensor3.khatri_rao", None),
    (T3, "unfold", "tensor3.unfold", None),
    (T3, "read_tensor", "tensor3.read", _size_note(0)),
    (T3, "read_matrix", "tensor3.read", _size_note(0)),
    (T3, "write_tensor", "tensor3.write", _size_note(1)),
    (T3, "write_matrix", "tensor3.write", _size_note(1)),
    (SG, "sample_for_system", "sysgen.sample", None),
    (SG, "sample_uniform", "sysgen.sample", None),
    (SG, "jacobian_tensor", "sysgen.jacobian", None),
    (SG, "zeroth_matrix", "sysgen.zeroth", None),
    (EX, "poly_refit", "experiments.poly_refit", None),
    (EX, "error_tensor", "experiments.scoring", None),
    (EX, "output_error", "experiments.scoring", None),
]

BENCH_PHASES = ("bench.setup", "bench.fit", "bench.predict", "bench.score", "bench.check")
WORK = ("bench.fit", "bench.predict")
LAYERS = ("decoupling", "solvers", "bspline", "tensor3", "sysgen", "experiments")


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _phases(tracer, name, parent) -> np.ndarray:
    """Name id of each span's nearest bench phase span, -1 outside any."""
    own = {tracer.name_ids[p] for p in BENCH_PHASES if p in tracer.name_ids}
    phase = [-1] * name.size
    for i, (nid, p) in enumerate(zip(name.tolist(), parent.tolist())):
        phase[i] = nid if nid in own else (phase[p] if p >= 0 else -1)
    return np.array(phase)


class _View:
    """Span arrays with lookups by span name and phase."""

    def __init__(self, tracer):
        self.tr = tracer
        sp = tracer.arrays()
        self.name, self.parent = sp["name"], sp["parent"]
        self.start, self.end = sp["start"], sp["end"]
        self.ms, self.self_ms = sp["ms"], sp["self_ms"]
        self.phase = _phases(tracer, self.name, self.parent)

    def nid(self, name: str) -> int:
        return self.tr.name_ids.get(name, -2)

    def in_phases(self, phases) -> np.ndarray:
        return np.isin(self.phase, [self.nid(p) for p in phases])

    def where(self, name: str, phases=WORK) -> np.ndarray:
        return (self.name == self.nid(name)) & self.in_phases(phases)

    def count(self, name: str) -> int:
        return int(self.where(name, BENCH_PHASES).sum())

    def notes(self, name: str, phases=WORK) -> list:
        keep = self.in_phases(phases)
        return [value for idx, value in self.tr.notes.get(name, []) if keep[idx]]


def _sweep_split(v: _View) -> dict:
    """Per-sweep times of the solves decouple makes outside the projection.

    Inside one decouple span the direct children repeat, sweep by sweep,
    as khatri_rao, stacked_lstsq (W1), khatri_rao, lstsq (W0), normalize,
    khatri_rao, lstsq (G), lstsq (R), projection, objective. A sweep runs
    from the end of the previous objective (the first khatri_rao for the
    first sweep) to the end of its own objective.
    """
    kr, stacked, lsq, obj = (
        v.nid(n) for n in ("tensor3.khatri_rao", "solvers.stacked_lstsq", "solvers.lstsq",
                           "decoupling.objective")
    )
    totals = {"w1": 0.0, "w0": 0.0, "g": 0.0, "r": 0.0}
    sweep_ms = []
    for d in np.flatnonzero(v.where("decoupling.decouple")):
        kids = np.flatnonzero(v.parent == d)
        names = v.name[kids]
        ends = v.end[kids[names == obj]]
        if ends.size == 0:
            continue
        first = v.start[kids[names == kr][0]]
        sweep_ms.extend((ends - np.r_[first, ends[:-1]]) / 1e6)
        totals["w1"] += v.ms[kids[names == stacked]].sum()
        solves = v.ms[kids[names == lsq]]
        solves = solves[: 3 * (solves.size // 3)].reshape(-1, 3).sum(axis=0)
        for key, ms in zip(("w0", "g", "r"), solves):
            totals[key] += ms
    sweeps = max(len(sweep_ms), 1)
    out = {f"decoupling.{k}_ms": t / sweeps for k, t in totals.items()}
    out["decoupling.sweep_ms_p50"] = _median(sweep_ms)
    out["_sweeps"] = sweeps
    return out


def _fit_history(notes: list) -> dict:
    sweeps, to_best, rises, budget = [], [], [], 0
    for iterations, max_iter, objectives in notes:
        h = np.asarray(objectives)
        sweeps.append(iterations)
        to_best.append(int(np.argmax(h <= h.min() * (1 + 1e-3))) + 1)
        rises.append(int((np.diff(h) > 0).sum()))
        budget += iterations >= max_iter
    return {
        "decoupling.sweeps_p50": _median(sweeps),
        "decoupling.sweeps_to_best_p50": _median(to_best),
        "decoupling.objective_rises_p50": _median(rises),
        "decoupling.budget_stops": budget / max(len(notes), 1),
    }


def metrics(tracer) -> dict:
    """Every per-layer metric except trace.fit_s_p50, which the run adds."""
    v = _View(tracer)
    ops = max(v.count("bench.fit"), 1)
    setups = max(v.count("bench.setup"), 1)

    def ms(name, phases=WORK, self_time=False):
        sel = v.where(name, phases)
        return float((v.self_ms if self_time else v.ms)[sel].sum())

    def calls(name):
        return int(v.where(name).sum())

    def mean_ms(name):
        return ms(name) / max(calls(name), 1)

    out = _sweep_split(v)
    sweeps = out.pop("_sweeps")
    out.update(_fit_history(v.notes("decoupling.decouple")))
    out["decoupling.projection_ms"] = ms("decoupling.projection") / sweeps
    out["decoupling.projection_self_ms"] = ms("decoupling.projection", self_time=True) / sweeps
    out["decoupling.objective_ms"] = ms("decoupling.objective") / sweeps
    out["decoupling.normalize_ms"] = ms("decoupling.normalize") / sweeps
    out["decoupling.fallback_branches"] = sum(v.notes("decoupling.projection")) / ops
    rows = sum(v.notes("decoupling.predict", ("bench.predict",)))
    out["decoupling.predict_ms_per_1k"] = ms("decoupling.predict", ("bench.predict",)) / max(rows, 1) * 1000
    out["decoupling.save_model_ms"] = mean_ms("decoupling.save_model")
    out["decoupling.load_model_ms"] = mean_ms("decoupling.load_model")

    # a lstsq call made inside stacked_lstsq is part of that call, so the
    # plain lstsq figures and the rank-deficient share count top-level calls
    inner = v.parent >= 0
    inner[inner] = v.name[v.parent[inner]] == v.nid("solvers.stacked_lstsq")
    plain = v.where("solvers.lstsq") & ~inner
    out["solvers.stacked_lstsq_calls"] = calls("solvers.stacked_lstsq") / ops
    out["solvers.stacked_lstsq_ms"] = ms("solvers.stacked_lstsq") / ops
    out["solvers.lstsq_calls"] = int(plain.sum()) / ops
    out["solvers.lstsq_ms"] = float(v.ms[plain].sum()) / ops
    keep = v.in_phases(WORK)
    flags = [f for idx, f in tracer.notes.get("solvers.lstsq", []) if keep[idx] and not inner[idx]]
    flags += v.notes("solvers.stacked_lstsq")
    out["solvers.rank_deficient_ratio"] = sum(flags) / max(len(flags), 1)
    nnls = v.notes("solvers.nnls")
    out["solvers.nnls_calls"] = len(nnls) / ops
    out["solvers.nnls_ms"] = ms("solvers.nnls") / ops
    out["solvers.nnls_iter_p50"] = _median([it for it, _ in nnls])
    out["solvers.nnls_cap_hits"] = sum(cap for _, cap in nnls) / ops

    out["bspline.knots_calls"] = calls("bspline.determine_knots") / ops
    out["bspline.knots_ms"] = ms("bspline.determine_knots") / ops
    out["bspline.design_ms"] = ms("bspline.design") / ops
    out["bspline.knot_warnings"] = tracer.counters.get("bspline.knot_warnings", 0) / ops

    out["tensor3.khatri_rao_ms"] = ms("tensor3.khatri_rao") / ops
    out["tensor3.unfold_ms"] = ms("tensor3.unfold") / ops
    for kind in ("read", "write"):
        out[f"tensor3.{kind}_ms"] = ms(f"tensor3.{kind}") / ops
        out[f"tensor3.{kind}_bytes"] = sum(v.notes(f"tensor3.{kind}")) / ops

    for part in ("sample", "jacobian", "zeroth"):
        out[f"sysgen.{part}_ms"] = ms(f"sysgen.{part}", ("bench.setup",)) / setups

    scoring = ("bench.score", "bench.check")
    out["experiments.poly_refit_ms"] = ms("experiments.poly_refit", scoring) / ops
    out["experiments.scoring_ms"] = (
        ms("experiments.scoring", scoring) + ms("decoupling.certify_monotone", scoring)
    ) / ops
    out["cli.decouple_ms"] = mean_ms("cli.decouple")
    out["cli.predict_ms"] = mean_ms("cli.predict")
    return out


def layer_shares(tracer) -> dict:
    """Share of the time inside bench.fit spent in each layer (self time)."""
    v = _View(tracer)
    fit = v.where("bench.fit", BENCH_PHASES)
    total = float(v.ms[fit].sum())
    inside = v.in_phases(("bench.fit",)) & ~fit
    shares = {}
    for layer in LAYERS + ("cli",):
        ids = [i for n, i in tracer.name_ids.items() if n.split(".")[0] == layer]
        sel = inside & np.isin(v.name, ids)
        shares[layer] = float(v.self_ms[sel].sum()) / total if total else 0.0
    shares["bench"] = 1.0 - sum(shares.values())
    return shares
