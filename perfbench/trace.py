"""Span tracing installed from outside the program.

A :class:`Tracer` replaces public functions and methods of ``repro``
with wrappers that record a span (id, name, start, end, parent span,
operation id) per call, and counts such as metric updates per
operation.  Spans stay in memory; :meth:`Tracer.dump` writes them out
when the run ends.  :func:`install` wraps the layers the per-layer
metrics need; :meth:`Tracer.restore` puts the originals back.

A function that other modules imported by name (``from .x import f``)
is replaced in every ``repro`` module that holds it, so the program's
own call sites see the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: A span: (id, name, start_s, end_s, parent_id, op_id); id 0 is "none".
Span = Tuple[int, str, float, float, int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[Tuple[str, int], float] = defaultdict(float)
        self.op_kind: Dict[int, str] = {}
        self._span_ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- operations ----------------------------------------------------
    def _state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
            state.op = 0
        return state

    def begin_op(self, kind: str = "") -> int:
        """Start an operation on this thread; later spans belong to it."""
        op = next(self._op_ids)
        self.op_kind[op] = kind
        self._state().op = op
        return op

    def set_kind(self, kind: str) -> None:
        op = self._state().op
        if op:
            self.op_kind[op] = kind

    def end_op(self) -> None:
        self._state().op = 0

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(name, self._state().op)] += n

    # -- spans ---------------------------------------------------------
    def wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            sid = next(tracer._span_ids)
            parent = state.stack[-1] if state.stack else 0
            state.stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                tracer.spans.append((sid, name, start, end, parent, state.op))

        return traced

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller, under the open span."""
        state = self._state()
        parent = state.stack[-1] if state.stack else 0
        self.spans.append((next(self._span_ids), name, start, end, parent, state.op))

    # -- patching ------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        # A class keeps its raw attribute (a classmethod stays one).
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_method(
        self,
        cls: type,
        attr: str,
        name: str,
        make: Optional[Callable[[Callable], Callable]] = None,
    ) -> None:
        """Wrap ``cls.attr`` (plain, class or static method)."""
        raw = cls.__dict__[attr]
        make = make or (lambda fn: self.wrap(fn, name))
        if isinstance(raw, classmethod):
            new: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._set(cls, attr, new)

    def patch_function(
        self,
        module: str,
        attr: str,
        name: str,
        make: Optional[Callable[[Callable], Callable]] = None,
    ) -> None:
        """Wrap ``module.attr`` everywhere a ``repro`` module binds it."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = (make or (lambda fn: self.wrap(fn, name)))(original)
        wrapper.__perfbench_original__ = original
        for mod, key, value in _repro_attributes():
            if value is original:
                self._set(mod, key, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, newest first, including
        copies of wrapped functions that modules imported while patched."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for mod, key, value in _repro_attributes():
            original = getattr(value, "__perfbench_original__", None)
            if original is not None:
                setattr(mod, key, original)

    # -- output --------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write spans and counts as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"span": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
            for (name, op), n in self.counts.items():
                handle.write(json.dumps({"count": name, "op": op, "n": n}) + "\n")
            for op, kind in self.op_kind.items():
                handle.write(json.dumps({"op": op, "kind": kind}) + "\n")

    def analysis(self) -> "SpanSet":
        return SpanSet(self.spans, self.counts, self.op_kind)


def _repro_attributes():
    """Every (module, name, function) binding in loaded ``repro`` modules."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType):
                yield mod, key, value


def load_dump(path: str) -> "SpanSet":
    spans: List[Span] = []
    counts: Dict[Tuple[str, int], float] = defaultdict(float)
    kinds: Dict[int, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            if "span" in row:
                spans.append(
                    (row["span"], row["name"], row["start"], row["end"],
                     row["parent"], row["op"])
                )
            elif "count" in row:
                counts[(row["count"], row["op"])] += row["n"]
            else:
                kinds[row["op"]] = row["kind"]
    return SpanSet(spans, counts, kinds)


class SpanSet:
    """Reductions over recorded spans.  Durations are in seconds."""

    def __init__(
        self,
        spans: Iterable[Span],
        counts: Dict[Tuple[str, int], float],
        op_kind: Dict[int, str],
    ) -> None:
        self.spans = {s[0]: s for s in spans}
        self.counts = counts
        self.op_kind = op_kind
        self._child_time: Dict[int, float] = defaultdict(float)
        for sid, _name, start, end, parent, _op in self.spans.values():
            if parent:
                self._child_time[parent] += end - start

    def combined(self, other: "SpanSet") -> "SpanSet":
        """This set plus another process's, its ids shifted past ours."""
        span_shift = max(self.spans, default=0)
        op_shift = max(self.op_kind, default=0)

        def shift_op(op: int) -> int:
            return op + op_shift if op else 0

        spans = list(self.spans.values()) + [
            (sid + span_shift, name, start, end,
             parent + span_shift if parent else 0, shift_op(op))
            for sid, name, start, end, parent, op in other.spans.values()
        ]
        counts: Dict[Tuple[str, int], float] = defaultdict(float, self.counts)
        for (name, op), n in other.counts.items():
            counts[(name, shift_op(op))] += n
        kinds = dict(self.op_kind)
        kinds.update({shift_op(op): kind for op, kind in other.op_kind.items()})
        return SpanSet(spans, counts, kinds)

    def ops(self, kind: str) -> List[int]:
        return [op for op, k in self.op_kind.items() if k == kind]

    def _time(self, span: Span, self_time: bool) -> float:
        duration = span[3] - span[2]
        return duration - self._child_time[span[0]] if self_time else duration

    def per_op(self, name: str, kind: str, self_time: bool = False) -> float:
        """Median over ``kind`` operations of the time spent in ``name``."""
        ops = self.ops(kind)
        if not ops:
            return 0.0
        sums = dict.fromkeys(ops, 0.0)
        for span in self.spans.values():
            if span[1] == name and span[5] in sums:
                sums[span[5]] += self._time(span, self_time)
        return float(np.median(list(sums.values())))

    def per_call(
        self, name: str, self_time: bool = False, kind: Optional[str] = None
    ) -> float:
        """Median time of one call of ``name`` (within ``kind`` operations)."""
        times = [self._time(s, self_time) for s in self.calls(name, kind)]
        return float(np.median(times)) if times else 0.0

    def calls(self, name: str, kind: Optional[str] = None) -> List[Span]:
        return [
            s
            for s in self.spans.values()
            if s[1] == name and (kind is None or self.op_kind.get(s[5]) == kind)
        ]

    def ancestor(self, span: Span, name: str) -> Optional[Span]:
        parent = self.spans.get(span[4])
        while parent is not None and parent[1] != name:
            parent = self.spans.get(parent[4])
        return parent

    def per_parent(self, name: str, parent: str, kind: Optional[str] = None) -> float:
        """Median over ``parent`` calls (within ``kind`` operations) of the
        time in ``name`` beneath each."""
        sums = {s[0]: 0.0 for s in self.calls(parent, kind)}
        if not sums:
            return 0.0
        for span in self.calls(name):
            above = self.ancestor(span, parent)
            if above is not None and above[0] in sums:
                sums[above[0]] += self._time(span, False)
        return float(np.median(list(sums.values())))

    def total_beneath(self, name: str, ancestor: str) -> float:
        """Summed time of ``name`` calls made beneath an ``ancestor`` call."""
        return sum(
            self._time(s, False)
            for s in self.calls(name)
            if self.ancestor(s, ancestor) is not None
        )

    def count_per_op(self, counter: str, kind: str) -> float:
        """Median over ``kind`` operations of a count."""
        ops = self.ops(kind)
        if not ops:
            return 0.0
        return float(np.median([self.counts.get((counter, op), 0.0) for op in ops]))


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------


def _count_delta(tracer: Tracer, counter: str, attr: str, span: str):
    """Wrapper factory: a span plus the change of ``self.<attr>``."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(obj, *args, **kwargs):
            before = getattr(obj, attr)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                tracer.count(counter, getattr(obj, attr) - before)

        return tracer.wrap(counted, span)

    return make


def _counting(tracer: Tracer, counter: str):
    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(counter)
            return fn(*args, **kwargs)

        return counted

    return make


class _TimedEnter:
    """Context manager whose entry (the wait to be admitted) is a span."""

    def __init__(self, tracer: Tracer, name: str, inner: Any) -> None:
        self._tracer, self._name, self._inner = tracer, name, inner

    def __enter__(self):
        start = time.perf_counter()
        value = self._inner.__enter__()
        self._tracer.add_span(self._name, start, time.perf_counter())
        return value

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


def install(tracer: Tracer) -> None:
    """Wrap every layer the per-layer metrics read."""
    from repro.core.system import ThreeDESS
    from repro.db.database import ShapeDatabase
    from repro.features.pipeline import FeaturePipeline
    from repro.index.rtree import RTree
    from repro.obs.registry import Counter, Gauge, Histogram
    from repro.search.engine import SearchEngine
    from repro.search.similarity import SimilarityMeasure

    method = tracer.patch_method
    function = tracer.patch_function
    method(ThreeDESS, "search", "api.search")
    method(SearchEngine, "search_knn", "engine.search_knn")
    method(SearchEngine, "search_threshold", "engine.search_threshold")
    method(SearchEngine, "resolve_query_vector", "engine.resolve")
    method(SearchEngine, "rerank", "engine.rerank")
    method(SimilarityMeasure, "__init__", "measure.build")
    method(SimilarityMeasure, "distances", "measure.distances")
    function("repro.search.cascade", "run_cascade", "cascade.run")
    function("repro.db.quantized", "approx_weighted_sq_distances", "quantized.distances")
    method(ShapeDatabase, "quantized_view", "db.quantized_view")
    method(ShapeDatabase, "bulk_append_vectors", "db.bulk_append")
    method(ShapeDatabase, "insert_meshes", "db.insert_meshes")
    method(ShapeDatabase, "save", "db.save")
    method(ShapeDatabase, "load", "db.load")
    function("repro.db.storage", "load_records", "db.load_records")
    function("repro.db.storage", "load_packed_features", "db.load_packed")
    for name in ("extract", "extract_partial", "extract_one"):
        method(FeaturePipeline, name, "features.extract")
    function("repro.moments.normalization", "normalize", "moments.normalize")
    function("repro.voxel.voxelize", "voxelize", "voxel.voxelize")
    function("repro.skeleton.thinning", "thin", "skeleton.thin")
    function("repro.skeleton.graph", "build_skeletal_graph", "skeleton.graph")
    function("repro.robust.validate", "validate_mesh", "robust.validate")
    method(RTree, "insert", "index.insert")
    method(RTree, "nearest", "index.nearest",
           _count_delta(tracer, "index.node_accesses", "node_accesses", "index.nearest"))
    method(RTree, "radius_search", "index.radius",
           _count_delta(tracer, "index.node_accesses", "node_accesses", "index.radius"))
    for cls, name in ((Counter, "inc"), (Gauge, "set"), (Histogram, "observe")):
        method(cls, name, "", _counting(tracer, "obs.updates"))


def install_service(tracer: Tracer) -> None:
    """Wrap the query service's layers, on top of :func:`install`.

    Each HTTP request is one operation; its kind is the search mode
    read by ``decode_request``.
    """
    from http.server import BaseHTTPRequestHandler

    from repro.service.server import AdmissionGate

    install(tracer)

    def request_op(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def one_request(*args, **kwargs):
            tracer.begin_op("request")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end_op()

        return one_request

    def decode(fn: Callable) -> Callable:
        traced = tracer.wrap(fn, "service.decode")

        @functools.wraps(fn)
        def decoded(*args, **kwargs):
            result = traced(*args, **kwargs)
            tracer.set_kind(result[0].mode)
            return result

        return decoded

    def admit(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed_admit(*args, **kwargs):
            return _TimedEnter(tracer, "service.admission", fn(*args, **kwargs))

        return timed_admit

    tracer.patch_method(BaseHTTPRequestHandler, "handle_one_request", "", request_op)
    tracer.patch_function("repro.service.protocol", "decode_request", "", decode)
    tracer.patch_function("repro.service.protocol", "encode_response", "service.encode")
    tracer.patch_method(AdmissionGate, "admit", "", admit)
