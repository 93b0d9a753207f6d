"""search-100k: in-process queries by stored id over 100k synthetic shapes.

The shapes are appended with ``bulk_append_vectors``, so no R-tree
exists and every op runs over the packed columns: the scan, select,
cascade and per-hit result-building layers do nearly all the work.
Each round issues knn, threshold and cascade for each of its query ids.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict, List

import numpy as np

from . import checks, common, corpus
from .layers import per_layer_metrics
from .trace import Tracer, install

SHAPES = 100_000
#: Shapes saved to measure bytes on disk per shape.
SAVE_SLICE = 2_000
ROUND_QUERIES = 10
K = 10


def _requests(shape_id: int):
    from repro import SearchRequest

    feature = corpus.QUERY_FEATURE
    return {
        "knn": SearchRequest(query=shape_id, mode="knn", feature_name=feature, k=K),
        "threshold": SearchRequest(
            query=shape_id, mode="threshold", feature_name=feature,
            threshold=corpus.THRESHOLD,
        ),
        "cascade": SearchRequest(
            query=shape_id, mode="cascade", feature_name=feature, k=K
        ),
    }


def run(seed: int, seconds: float, trace: bool, quick: bool, workdir: str) -> dict:
    from repro import ThreeDESS

    n = 3_000 if quick else SHAPES
    per_round = 4 if quick else ROUND_QUERIES
    repeats = 1 if quick else common.SETUP_REPEATS
    min_samples = 8 if quick else (30 if trace else common.MIN_SAMPLES)

    vectors = corpus.synthetic_vectors(n, seed)
    names = corpus.shape_names(n)
    groups: List[None] = [None] * n
    pool = corpus.inner_rows(vectors)
    digest = common.Digest()
    for name in sorted(vectors):
        digest.add(name)
        digest.add(vectors[name])
    digest.add(pool)
    print(
        f"inputs: {n} synthetic shapes x {len(vectors)} feature vectors, "
        f"{len(pool)} inner query candidates, {per_round} queries per round, "
        f"sha256 {digest.hexdigest()}"
    )

    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)
    setup_s: List[float] = []
    append_s: List[float] = []
    system = ids = None
    for _ in range(repeats):
        system = ids = None
        gc.collect()
        if tracer is not None:
            tracer.begin_op("setup")
        began = time.perf_counter()
        system = ThreeDESS()
        appending = time.perf_counter()
        ids = np.asarray(
            system.database.bulk_append_vectors(names, groups, vectors), dtype=np.int64
        )
        append_s.append(time.perf_counter() - appending)
        for request in _requests(int(ids[pool[0]])).values():
            system.search(request)
        setup_s.append(time.perf_counter() - began)
        if tracer is not None:
            tracer.end_op()

    ledger = common.Ledger(common.QUERY_OPS)
    answers: List[tuple] = []
    stage1_ms: List[float] = []

    def plan(r: int):
        out = []
        for row in corpus.round_queries(pool, seed, 0, r, per_round):
            for op, request in _requests(int(ids[row])).items():
                out.append((op, request, row))
        return out

    def record(op, row, response):
        answers.append((op, row, checks.Answer.from_hits(response.hits)))
        if op == "cascade" and response.stages:
            stage1_ms.append(response.stages[0].elapsed_ms)

    min_rounds = -(-min_samples // per_round)
    measured: Dict[str, float] = {}
    if tracer is not None:
        tracer.restore()
        half = seconds / 2.0
        rounds, plain_s = common.query_rounds(
            system, plan, ledger, record, half, min_rounds
        )
        install(tracer)
        _, traced_s = common.query_rounds(
            system, plan, ledger, record, half, min_rounds, rounds=rounds,
            tracer=tracer,
        )
        tracer.restore()
        measured["overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
    else:
        _, busy_s = common.query_rounds(
            system, plan, ledger, record, seconds, min_rounds
        )
    rss_mb = common.peak_rss_mb()

    # Saving all 100k shapes takes over half a minute, nearly all of it
    # one features.npz member per shape and feature; the bytes per shape
    # do not depend on the corpus size, so a slice is saved instead.
    sliced = min(n, SAVE_SLICE)
    directory = os.path.join(workdir, "search-db")
    if tracer is not None:
        install(tracer)
        tracer.begin_op("save")
    part = ThreeDESS()
    part.database.bulk_append_vectors(
        names[:sliced], groups[:sliced], {f: m[:sliced] for f, m in vectors.items()}
    )
    saving = time.perf_counter()
    part.save(directory)
    save_s = time.perf_counter() - saving
    if tracer is not None:
        tracer.end_op()
        tracer.restore()
    tiers = common.tier_bytes(directory)

    space = checks.Space(vectors[corpus.QUERY_FEATURE], ids)
    recalls: List[float] = []
    hits: Dict[str, List[int]] = {op: [] for op in common.QUERY_OPS}
    for op, row, answer in answers:
        shape_id = int(ids[row])
        query = space.matrix[row]
        if op == "knn":
            reason = checks.check_knn(space, query, answer, K, exclude=shape_id)
        elif op == "threshold":
            reason = checks.check_threshold(
                space, query, answer, corpus.THRESHOLD, exclude=shape_id
            )
        else:
            reason = checks.check_ranked(space, query, answer, K, exclude=shape_id)
            recalls.append(checks.recall_at_k(space, query, answer, K, exclude=shape_id))
        hits[op].append(len(answer))
        if reason is not None:
            ledger.fail(op, f"query {shape_id}: {reason}", wrong_answer=True)

    if tracer is not None:
        measured.update({f"hits.{op}": common.median(v) for op, v in hits.items()})
        measured["cascade_scan_ms"] = common.median(stage1_ms)
        measured["cascade_recall"] = float(np.mean(recalls))
        measured.update({f"bytes.{t}": b / sliced for t, b in tiers.items()})
        return {"ledger": ledger, "metrics": per_layer_metrics(tracer.analysis(), measured),
                "tracer": tracer}

    metrics = {"setup_s": common.median(setup_s)}
    metrics.update(common.latency_metrics(ledger, common.QUERY_OPS))
    metrics["queries_per_s"] = ledger.total_attempted() / busy_s
    metrics["ingest_shapes_per_s"] = n / common.median(append_s)
    metrics["peak_rss_mb"] = rss_mb
    metrics["disk_bytes_per_shape"] = common.dir_bytes(directory) / sliced
    print(
        f"hits per query: median knn {common.median(hits['knn']):.0f}, "
        f"threshold {common.median(hits['threshold']):.0f}, "
        f"cascade {common.median(hits['cascade']):.0f}; cascade recall@10 "
        f"{float(np.mean(recalls)):.4f}; bulk append {common.median(append_s):.3f} s; "
        f"save of {sliced} shapes {save_s:.3f} s"
    )
    return {"ledger": ledger, "metrics": metrics}
