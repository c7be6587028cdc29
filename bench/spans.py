"""Spans recorded from outside the program, around calls into its layers.

A ``Tracer`` replaces a public function in the module namespace where its
caller looks it up (``invkern.cli.build_gram``, ``invkern.spectral.sym_eig``,
...) with a wrapper that records a span: name, start, end, parent span and
the request (command) it belongs to. Spans stay in memory; the worker ships
them to the benchmark process at the end of the run.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _pairs(args, result) -> dict:
    n = len(np.asarray(getattr(args[0], "points", args[0])))
    return {"pairs": n * (n + 1) // 2}


def _eigenpairs(args, result) -> dict:
    return {"n": len(result.eigenvalues)}


def _cells(args, result) -> dict:
    return {"cells": int(np.asarray(args[0]).size)}


# (namespace the caller looks the function up in, function, span name,
#  counts taken from the call, trace the call's allocations)
WRAPPED = (
    ("cli", "load_csv", "data.load_csv", None, False),
    ("cli", "save_dataset", "data.save_dataset", None, False),
    ("cli", "estimate_mixing", "data.estimate_mixing", None, False),
    ("cli", "median_heuristic_sigma", "invariance.median_heuristic_sigma", None, False),
    ("cli", "build_gram", "spectral.build_gram", _pairs, True),
    ("cli", "check_psd", "spectral.check_psd", None, False),
    ("cli", "cluster_gram", "spectral.cluster_gram", None, False),
    ("cli", "clustering_accuracy", "spectral.clustering_accuracy", None, False),
    ("cli", "heatmap_svg", "figures.heatmap_svg", _cells, False),
    ("cli", "scatter_svg", "figures.scatter_svg", None, False),
    ("spectral", "sym_eig", "spectral.sym_eig", _eigenpairs, False),
    ("spectral", "renyi_entropy", "spectral.renyi_entropy", None, False),
    ("spectral", "keca_embed", "spectral.keca_embed", None, False),
    ("spectral", "kmeans", "spectral.kmeans", None, False),
)
SPAN_NAMES = tuple(entry[2] for entry in WRAPPED)


class Tracer:
    """Collects nested spans; ``install`` wraps the layer functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self._open: list[Span] = []
        self._patched: list = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        record = Span(len(self.spans), name, parent, self.request, time.perf_counter())
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, counts=None,
             allocations: bool = False) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                # Allocation tracing covers this call only, so it slows no
                # other layer; the peak is what the call itself allocated.
                if allocations:
                    tracemalloc.start()
                try:
                    result = original(*args, **kwargs)
                finally:
                    if allocations:
                        record.attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                        tracemalloc.stop()
                if counts is not None:
                    record.attrs.update(counts(args, result))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def install(self, modules: dict) -> None:
        for module, attr, name, counts, allocations in WRAPPED:
            self.wrap(modules[module], attr, name, counts, allocations)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def export(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _covered(intervals) -> float:
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children[s["id"]]) for s in spans
    }


def nesting_errors(spans: list[dict]) -> list[str]:
    """Spans whose parent is missing, from another request, or does not contain them."""
    by_id = {s["id"]: s for s in spans}
    errors = []
    for s in spans:
        if s["end"] < s["start"]:
            errors.append(f"span {s['id']} {s['name']} ends before it starts")
        if s["parent"] is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            errors.append(f"span {s['id']} {s['name']}: parent {s['parent']} missing")
        elif (
            parent["request"] != s["request"]
            or s["start"] < parent["start"]
            or s["end"] > parent["end"]
        ):
            errors.append(f"span {s['id']} {s['name']} is not inside {parent['name']}")
    return errors


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer figures of one pass: busy seconds of every wrapped layer
    (span duration, children included), the counts recorded at the
    boundaries, and the self time of the ``cli.<command>`` root spans."""
    busy = defaultdict(float)
    attrs = defaultdict(list)
    for s in spans:
        busy[s["name"]] += s["end"] - s["start"]
        attrs[s["name"]].append(s["attrs"])
    metrics = {f"{name}.s": busy[name] for name in SPAN_NAMES}
    builds = attrs["spectral.build_gram"]
    pairs = sum(a["pairs"] for a in builds)
    metrics["spectral.build_gram.pairs"] = pairs
    metrics["spectral.build_gram.pairs_per_s"] = (
        pairs / busy["spectral.build_gram"] if pairs else 0.0
    )
    metrics["spectral.build_gram.peak_mb"] = max((a["peak_mb"] for a in builds), default=0.0)
    metrics["spectral.sym_eig.n"] = sum(a["n"] for a in attrs["spectral.sym_eig"])
    metrics["spectral.renyi_entropy.calls"] = len(attrs["spectral.renyi_entropy"])
    metrics["figures.heatmap_svg.cells"] = sum(a["cells"] for a in attrs["figures.heatmap_svg"])
    own = self_times(spans)
    metrics["cli.self_s"] = sum(own[s["id"]] for s in spans if s["parent"] is None)
    return metrics
