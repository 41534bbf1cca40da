"""In-memory span tracer for the benchmark's traced mode.

A span is (name, parent, start, end) in perf_counter nanoseconds. Spans
come from two places: the benchmark's own `span()` blocks, and wrappers
that `install()` puts around library functions. A wrapper replaces the
function under every name a decoupline module binds it to, so calls are
seen where the program looks them up (decoupline.decoupling.stacked_lstsq
as well as decoupline.solvers.stacked_lstsq). Spans stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import sys
import time
from array import array

import numpy as np


class NullTracer:
    """Stand-in used by untraced runs: spans cost one no-op context."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, amount: float = 1) -> None:
        pass


class Tracer:
    def __init__(self):
        self.name_ids: dict = {}
        self.names: list = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        # per wrapped name: (span index, value a note function read from
        # the call's arguments and return value)
        self.notes: dict = {}
        self.counters: dict = {}
        self._patched: list = []

    def _id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, note=None):
        nid = self._id(name)
        notes = self.notes.setdefault(name, [])

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                notes.append((idx, note(out, args, kwargs)))
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Wrap each (module, function, span name, note) target."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "decoupline"]
        for modname, attr, name, note in targets:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self.wrap(name, original, note)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def arrays(self) -> dict:
        """Spans as numpy arrays, plus each span's self time in ms."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        dur = (end - start) / 1e6
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return {"name": name, "parent": parent, "start": start, "end": end,
                "ms": dur, "self_ms": dur - covered}

    def dump(self, path) -> None:
        """Write the spans as gzip'd tab-separated text, one span a line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i, (nid, p, s, e) in enumerate(zip(self.name, self.parent, self.start, self.end)):
                fh.write(f"{i}\t{p}\t{names[nid]}\t{s}\t{e}\n")
