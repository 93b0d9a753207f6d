"""The per-layer metrics a traced run reports.

Each metric reads the spans of one traced process (:class:`SpanSet`)
and the values the workload measured itself (``measured``: client-side
round trips, disk sizes, answer counts).  Span metrics whose name ends
in ``_self_ms`` are self time (the span minus its wrapped children);
the others are the wrapped call's whole duration.  A layer a workload
does not exercise reads 0.

Times are per operation (the median over operations of one type of the
time spent in that layer) unless the metric says otherwise.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from .common import DISK_TIERS, QUERY_OPS
from .trace import SpanSet

Measure = Callable[[SpanSet, Dict[str, float]], float]

MS = 1000.0


def _per_op(name: str, op: str, self_time: bool = False) -> Measure:
    return lambda s, m: s.per_op(name, op, self_time) * MS


def _measured(key: str) -> Measure:
    return lambda s, m: float(m.get(key, 0.0))


def _store_ms(s: SpanSet, m: Dict[str, float]) -> float:
    """Per shape: ``insert_meshes`` time outside validation and extraction."""
    shapes = m.get("ingested_shapes", 0.0)
    if not shapes:
        return 0.0
    total = sum(span[3] - span[2] for span in s.calls("db.insert_meshes"))
    inner = s.total_beneath("features.extract", "db.insert_meshes") + s.total_beneath(
        "robust.validate", "db.insert_meshes"
    )
    return (total - inner) / shapes * MS


def _first_call_ms(name: str) -> Measure:
    def first(s: SpanSet, m: Dict[str, float]) -> float:
        calls = s.calls(name)
        if not calls:
            return 0.0
        span = min(calls, key=lambda c: c[2])
        return (span[3] - span[2]) * MS

    return first


def _load_insert_s(s: SpanSet, m: Dict[str, float]) -> float:
    loads = len(s.calls("db.load"))
    return s.total_beneath("index.insert", "db.load") / loads if loads else 0.0


def _catalog() -> List[Tuple[str, str, Measure]]:
    out: List[Tuple[str, str, Measure]] = []

    def add(name: str, unit: str, fn: Measure) -> None:
        out.append((name, unit, fn))

    for op in QUERY_OPS:
        add(f"search.resolve_ms.{op}", "ms", _per_op("engine.resolve", op))
        add(f"search.distance_ms.{op}", "ms", _per_op("measure.distances", op))
        add(f"search.api_self_ms.{op}", "ms", _per_op("api.search", op, True))
        add(f"search.hits_per_query.{op}", "count", _measured(f"hits.{op}"))
    add("search.knn_self_ms", "ms", _per_op("engine.search_knn", "knn", True))
    add("search.threshold_self_ms", "ms",
        _per_op("engine.search_threshold", "threshold", True))
    add("search.cascade_scan_ms", "ms", _measured("cascade_scan_ms"))
    add("search.quantized_distance_ms", "ms", _per_op("quantized.distances", "cascade"))
    add("search.rerank_ms", "ms", _per_op("engine.rerank", "cascade"))
    add("search.measure_build_ms", "ms", lambda s, m: s.per_call("measure.build") * MS)
    add("search.cascade_recall_at_10", "ratio", _measured("cascade_recall"))

    for name, span in (
        ("moments.normalize_ms", "moments.normalize"),
        ("voxel.voxelize_ms", "voxel.voxelize"),
        ("skeleton.thin_ms", "skeleton.thin"),
        ("skeleton.graph_ms", "skeleton.graph"),
    ):
        add(name, "ms",
            lambda s, m, span=span: s.per_parent(span, "features.extract", "ingest") * MS)
    add("features.extract_self_ms", "ms",
        lambda s, m: s.per_call("features.extract", True, "ingest") * MS)
    add("robust.validate_ms", "ms",
        lambda s, m: s.per_call("robust.validate", False, "ingest") * MS)

    add("db.store_ms", "ms", _store_ms)
    add("db.bulk_append_s", "s", lambda s, m: s.per_call("db.bulk_append"))
    add("db.quantized_build_ms", "ms", _first_call_ms("db.quantized_view"))
    add("db.save_s", "s", lambda s, m: s.per_call("db.save"))
    add("db.load_s", "s", lambda s, m: s.per_call("db.load"))
    add("db.load_records_s", "s", lambda s, m: s.per_call("db.load_records"))
    add("db.load_packed_s", "s", lambda s, m: s.per_call("db.load_packed"))
    for tier in DISK_TIERS:
        add(f"db.bytes_per_shape.{tier}", "B", _measured(f"bytes.{tier}"))

    add("index.insert_ms", "ms", lambda s, m: s.per_call("index.insert") * MS)
    add("index.load_insert_s", "s", _load_insert_s)
    add("index.nearest_ms", "ms", _per_op("index.nearest", "knn"))
    add("index.radius_ms", "ms", _per_op("index.radius", "threshold"))
    for op in ("knn", "threshold"):
        add(f"index.node_accesses_per_query.{op}", "count",
            lambda s, m, op=op: s.count_per_op("index.node_accesses", op))

    add("service.startup_s", "s", _measured("startup_s"))
    for op in QUERY_OPS:
        add(f"service.roundtrip_ms.{op}", "ms", _measured(f"roundtrip_ms.{op}"))
        add(f"service.handler_ms.{op}", "ms", _measured(f"handler_ms.{op}"))
        add(f"service.wire_ms.{op}", "ms", _measured(f"wire_ms.{op}"))
        add(f"service.decode_ms.{op}", "ms", _per_op("service.decode", op))
        add(f"service.encode_ms.{op}", "ms", _per_op("service.encode", op))
        add(f"service.admission_wait_ms.{op}", "ms", _per_op("service.admission", op))
        add(f"service.search_ms.{op}", "ms", _measured(f"server_search_ms.{op}"))
        add(f"service.response_bytes.{op}", "B", _measured(f"response_bytes.{op}"))
    add("service.server_cpu_ms_per_request", "ms", _measured("server_cpu_ms"))
    add("service.client_cpu_ms_per_request", "ms", _measured("client_cpu_ms"))

    for op in QUERY_OPS:
        add(f"obs.updates_per_query.{op}", "count",
            lambda s, m, op=op: s.count_per_op("obs.updates", op))
    add("trace.overhead_pct", "%", _measured("overhead_pct"))
    return out


#: (name, unit, measure) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, Measure]] = _catalog()


def per_layer_metrics(spans: SpanSet, measured: Dict[str, float]) -> Dict[str, dict]:
    return {
        name: {"value": float(fn(spans, measured)), "unit": unit}
        for name, unit, fn in PER_LAYER
    }
