"""Spans around the package's public functions, for the traced run.

A :class:`Tracer` replaces each listed function with a wrapper wherever
the function is bound inside the package, so calls made through
``from .linalg import svd_top_k`` style imports are seen too.  Each
wrapper records one span (name, start, end, parent span, operation id);
spans stay in memory until the run writes them out.  In memory mode the
tracer also records the ``tracemalloc`` peak above each span's starting
allocation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from benchstats import stirling2

# Public functions wrapped in each layer, keyed by the module defining them.
LAYERS = {
    "linalg": (
        "svd_top_k", "approx_svd_z", "singular_values", "numerical_rank",
        "sym_eig", "sigma_k", "spectral_norm", "frobenius_norm", "residual",
    ),
    "sparsify": (
        "deterministic_sampling_one", "deterministic_sampling_two",
        "randomized_sampling", "apply_plan", "leverage_scores", "identity_plan",
    ),
    "kmeans": (
        "lloyd_best", "lloyd", "kmeanspp_init", "objective",
        "brute_force_optimal", "indicator", "from_labels",
    ),
    "bounds": (
        "structural_check", "bound_report",
        "theorem1_factor", "theorem2_factor", "theorem3_factor",
    ),
    "pipelines": (
        "supervised_select", "unsupervised_select", "randomized_select",
        "select_then_cluster",
    ),
    "verify": (
        "theorem1_trial", "theorem2_trial", "theorem3_trial",
        "structural_trial", "kmeans_oracle_trial",
    ),
    "cli": ("main", "read_matrix_csv", "read_labels"),
}

# Exact work counts taken from a call's bound arguments.
COUNTERS = {
    "deterministic_sampling_one": lambda a: {"sparsify.greedy_steps": a["r"]},
    "deterministic_sampling_two": lambda a: {
        "sparsify.greedy_steps": a["r"],
        "sparsify.second_set_bytes": np.asarray(a["q"]).nbytes,
    },
    "brute_force_optimal": lambda a: {
        "kmeans.partitions_scored": stirling2(np.shape(a["a"])[0], a["k"]),
    },
    "read_matrix_csv": lambda a: {"cli.csv_bytes": os.path.getsize(a["path"])},
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int
    peak_bytes: int | None = None


class _Frame:
    __slots__ = ("span", "base", "high")

    def __init__(self, span, base):
        self.span = span
        self.base = base
        self.high = base


class Tracer:
    """Collects spans and counts for the calls made inside :meth:`operation`."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.counts: list[tuple[int, str, int]] = []
        self._stack: list[_Frame] = []
        self._op: int | None = None

    def _enter(self, name: str, layer: str) -> _Frame:
        parent = self._stack[-1].span.id if self._stack else None
        span = Span(len(self.spans), name, layer, 0.0, 0.0, parent, self._op)
        self.spans.append(span)
        base = 0
        if self.memory:
            base, peak = tracemalloc.get_traced_memory()
            if self._stack:
                top = self._stack[-1]
                top.high = max(top.high, peak)
            tracemalloc.reset_peak()
        frame = _Frame(span, base)
        self._stack.append(frame)
        span.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame) -> None:
        frame.span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            frame.high = max(frame.high, peak)
            frame.span.peak_bytes = frame.high - frame.base
            if self._stack:
                top = self._stack[-1]
                top.high = max(top.high, frame.high)
            tracemalloc.reset_peak()

    @contextmanager
    def operation(self, op: int, name: str):
        """Make *op* the current operation and open its root span."""
        self._op = op
        frame = self._enter(name, "bench")
        try:
            yield
        finally:
            self._exit(frame)
            self._op = None

    def wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        counter = COUNTERS.get(fn.__name__)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments).items():
                    self.counts.append((self._op, key, int(value)))
            frame = self._enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every listed function at each of its bindings in the package."""
        wrappers = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"kmselect.{layer}")
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self.wrap(fn, layer))
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "kmselect" and not modname.startswith("kmselect."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)


def covered(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] covered by the union of *intervals*."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted(intervals):
        a, b = max(a, start), min(b, end)
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.end - s.start - covered(s.start, s.end, children[s.id]) for s in spans}


def aggregate(spans, counts, ops) -> dict:
    """Per-name and per-layer totals for the operations in *ops*.

    Gives ``<name>.s`` (summed duration), ``<name>.self_s``,
    ``<name>.calls``, ``<layer>.self_s``, ``<layer>.peak_mb`` (memory mode
    only), every count recorded by :data:`COUNTERS`, and
    ``pipelines.stage1_accept_ratio``: ``randomized_select`` calls over
    their first-stage attempts.  Each ``randomized_sampling`` draw a call
    makes is an attempt; a call whose first stage keeps every column (the
    identity plan) makes no draw and counts as one accepted attempt.
    Counts are ints, everything else floats.  Names and layers that saw no
    call are absent.
    """
    ops = set(ops)
    chosen = [s for s in spans if s.op in ops]
    selfs = self_times(chosen)
    values: dict[str, float] = defaultdict(float)
    tally: dict[str, int] = defaultdict(int)
    draws = {s.id: 0 for s in chosen if s.name == "pipelines.randomized_select"}
    for s in chosen:
        if s.layer == "bench":
            continue
        if s.name == "sparsify.randomized_sampling" and s.parent in draws:
            draws[s.parent] += 1
            tally["pipelines.stage1_draws"] += 1
        values[f"{s.name}.s"] += s.end - s.start
        values[f"{s.name}.self_s"] += selfs[s.id]
        values[f"{s.layer}.self_s"] += selfs[s.id]
        tally[f"{s.name}.calls"] += 1
        if s.peak_bytes is not None:
            key = f"{s.layer}.peak_mb"
            values[key] = max(values[key], s.peak_bytes / 2**20)
    for op, key, value in counts:
        if op in ops:
            tally[key] += value
    if draws:
        attempts = sum(max(1, d) for d in draws.values())
        values["pipelines.stage1_accept_ratio"] = len(draws) / attempts
    return {**values, **tally}
