"""Spans around the library's public functions, recorded from outside ``src/``.

The layers are the modules of ``pairgraph``.  ``Tracer.install`` replaces
every public function of every ``pairgraph.*`` module with a wrapper, in
every ``pairgraph.*`` namespace that holds it, because ``structure``,
``spectral``, ``actions`` and ``cli`` import their callees by name.  A
wrapper records one span: name, start, end, parent span and op id.  Spans
stay in memory until the run ends.

A span's self time is its duration minus the part of it that its child
spans cover.  Each function belongs to a layer and, for the functions the
per-layer metrics name, to a bucket such as ``groups.construct``; an
unnamed public function that a same-layer span calls counts toward its
caller's bucket, so helpers like ``perm_cycle_label`` stay with the
constructor that uses them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# function name -> (layer, bucket).  Public functions missing here belong to
# their own module's layer with no bucket.
BUCKETS = {
    **{f: ("groups", "construct") for f in (
        "make_cyclic", "make_symmetric", "make_alternating", "make_dihedral",
        "make_direct_product", "make_gl2", "make_sl2", "make_field_additive")},
    **{f: ("groups", "subgroup") for f in (
        "subgroup_from_elements", "subgroup_generated", "generated_elements", "difference_set")},
    "validate_generating_set": ("groups", "validate"),
    # defined in groups.py, but it is the field-norm computation
    "field_norm_preimage": ("fields", "norm_preimage"),
    "build_pair_graph": ("graphs", "build"),
    "adjacency_rows_via_group_matrix": ("graphs", "oracle"),
    "cayley_adjacency": ("graphs", "oracle"),
    **{f: ("structure", "formula") for f in (
        "component_count_by_formula", "is_connected", "reachable_subgroup",
        "identity_component_by_closure")},
    "connected_components": ("structure", "bfs"),
    "is_bipartite": ("structure", "bipartite"),
    "compute_spectrum": ("spectral", "eig"),
    "eigensystem": ("spectral", "eig"),
    "is_ramanujan": ("spectral", "certify"),
    "ramanujan_size_bound": ("spectral", "certify"),
    "search_ramanujan": ("actions", "search_self"),
    "random_candidate": ("actions", "search_self"),
    "run_all": ("reference_cases", "verify"),
    "get_case": ("reference_cases", "verify"),
    **{f: ("descriptors", "resolve") for f in (
        "group_from_descriptor", "subgroup_from_descriptor", "set_from_descriptor", "builtin_subgroup")},
}
LAYERS = ("groups", "graphs", "structure", "spectral", "actions", "descriptors", "cli", "fields",
          "reference_cases")
BENCH = "bench"


@dataclass
class Span:
    name: str
    layer: str
    bucket: str | None
    start: float
    end: float
    parent: int
    op: int
    failed: bool = False


def library_modules() -> dict[str, object]:
    return {name: mod for name, mod in sys.modules.items()
            if name == "pairgraph" or name.startswith("pairgraph.")}


class Tracer:
    """Records spans while ``active``; ``op`` is the id stamped on new spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.active = False
        self.op = -1
        # (op id, counter name) -> value, fed by the observers below
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, layer: str, bucket: str | None) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, layer, bucket, time.perf_counter(), 0.0, parent, self.op))
        self.stack.append(sid)
        return sid

    def close(self, sid: int, failed: bool = False) -> None:
        span = self.spans[sid]
        span.end = time.perf_counter()
        span.failed = failed
        self.stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[(self.op, name)] += value

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, layer: str, bucket: str | None):
        observe = OBSERVERS.get(fn.__name__)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.open(fn.__name__, layer, bucket)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(sid, failed=True)
                raise
            tracer.close(sid)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public library function in every namespace that holds it."""
        modules = library_modules()
        wrappers = {}
        for mod_name, mod in modules.items():
            layer = mod_name.rpartition(".")[2]
            for name, value in vars(mod).items():
                if (inspect.isfunction(value) and not name.startswith("_")
                        and value.__module__ == mod_name and layer in LAYERS):
                    own_layer, bucket = BUCKETS.get(name, (layer, None))
                    wrappers[value] = self._wrap(value, own_layer, bucket)
        def swap(item):
            return wrappers.get(item, item) if inspect.isfunction(item) else item

        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, name, wrappers[value])
                elif isinstance(value, dict):
                    # dispatch tables such as descriptors.GROUP_KINDS hold (function, arity)
                    for key, item in list(value.items()):
                        if isinstance(item, tuple) and tuple(map(swap, item)) != item:
                            self._undo.append(functools.partial(value.__setitem__, key, item))
                            value[key] = tuple(map(swap, item))

    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append(functools.partial(setattr, owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install_counters(self, group_class) -> dict[str, int]:
        """Count calls of ``FiniteGroup.mul`` and ``FiniteGroup.left_row`` exactly."""
        counts = {"mul": 0, "left_row": 0}
        for method in counts:
            original = getattr(group_class, method)

            def counting(*args, _original=original, _method=method):
                counts[_method] += 1
                return _original(*args)

            self._patch(group_class, method, counting)
        return counts

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object stores, read without calling properties."""
    return sum(v.nbytes for v in getattr(obj, "__dict__", {}).values() if isinstance(v, np.ndarray))


def _observe_table(tracer: Tracer, args, group) -> None:
    tracer.count("groups.table_bytes", _array_bytes(group))


def _observe_graph(tracer: Tracer, args, graph) -> None:
    tracer.count("graphs.adjacency_bytes", _array_bytes(graph))


def _observe_matrix(tracer: Tracer, args, matrix) -> None:
    tracer.count("graphs.adjacency_bytes", matrix.nbytes)


def _observe_solve(tracer: Tracer, args, result) -> None:
    tracer.count("spectral.solved_vertices", args[0].order)


def _observe_search(tracer: Tracer, args, results) -> None:
    tracer.count("actions.candidates", len(results))
    tracer.count("actions.connected", sum(1 for r in results if r.connected))
    tracer.count("actions.certified", sum(1 for r in results if r.ramanujan))


OBSERVERS = {
    **{f: _observe_table for f, (layer, bucket) in BUCKETS.items() if bucket == "construct"},
    "build_pair_graph": _observe_graph,
    "adjacency_rows_via_group_matrix": _observe_matrix,
    "cayley_adjacency": _observe_matrix,
    "compute_spectrum": _observe_solve,
    "eigensystem": _observe_solve,
    "search_ramanujan": _observe_search,
}


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        cover = [(max(span.start, spans[c].start), min(span.end, spans[c].end)) for c in children[i]]
        out.append(max(0.0, (span.end - span.start) - covered_length(cover)))
    return out


def effective_buckets(spans: list[Span]) -> list[str | None]:
    """A span without a bucket inherits its parent's when both share a layer."""
    out: list[str | None] = []
    for span in spans:
        bucket = span.bucket
        if bucket is None and span.parent >= 0 and spans[span.parent].layer == span.layer:
            bucket = out[span.parent]
        out.append(bucket)
    return out


def layer_totals(spans: list[Span], ops: set[int]) -> dict[str, float]:
    """Sums over the spans of the given ops: self seconds per layer and bucket, calls, failures."""
    selfs = self_times(spans)
    buckets = effective_buckets(spans)
    totals: dict[str, float] = defaultdict(float)
    for span, own, bucket in zip(spans, selfs, buckets):
        if span.op not in ops:
            continue
        totals[f"{span.layer}.self_s"] += own
        if bucket is not None:
            totals[f"{span.layer}.{bucket}_s"] += own
        if span.layer != BENCH:
            totals[f"{span.layer}.calls"] += 1
            totals[f"{span.layer}.failed"] += span.failed
    return totals


def write_spans(spans: list[Span], path: str) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps([s.name, s.layer, s.start, s.end, s.parent, s.op, s.failed]) + "\n")
