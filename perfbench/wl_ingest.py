"""ingest-mesh: build a database from CAD meshes the way ``build-db``
does, save it, then query it with meshes it does not hold.

The database gets a serial ``insert_batch`` of ``stream_corpus`` meshes
at the default voxel resolution, so extraction and the writes into the
R-trees, the packed store and disk dominate; the query ops re-run
extraction on each query mesh and search through the R-trees:

* ``knn`` on ``eigenvalues`` (the whole extraction pipeline per query);
* ``threshold`` on ``principal_moments`` (a radius search);
* ``cascade``, the paper's multi-step plan.
"""

from __future__ import annotations

import copy
import os
import time
from typing import Dict, List

import numpy as np

from . import checks, common
from .layers import per_layer_metrics
from .trace import Tracer, install

#: Six meshes per family of the 26 ``stream_corpus`` families.
DB_SHAPES = 156
#: Four query meshes per family.  Each round queries one block of
#: ``FAMILIES`` (one mesh per family), the next round the next block, so
#: the percentiles rest on many distinct meshes with the same family mix.
QUERY_SHAPES = 104
FAMILIES = 26
K = 10
THRESHOLD = 0.9
#: The paper's multi-step plan: 30 under moment invariants, then 10 by
#: geometric parameters.
PAPER_POOL, PAPER_KEEP = 30, 10
#: A copy of an ingested mesh must find a hit within this share of d_max.
COPY_TOLERANCE = 1e-6
#: Dimensions each ingested shape's four vectors must have.
PAPER_DIMS = {
    "moment_invariants": 3,
    "geometric_params": 5,
    "principal_moments": 3,
    "eigenvalues": 10,
}


def _requests(mesh):
    from repro import SearchRequest
    from repro.search.cascade import CascadeStrategy

    return {
        "knn": SearchRequest(query=mesh, mode="knn", feature_name="eigenvalues", k=K),
        "threshold": SearchRequest(
            query=mesh, mode="threshold", feature_name="principal_moments",
            threshold=THRESHOLD,
        ),
        "cascade": SearchRequest(
            query=mesh, mode="cascade", strategy=CascadeStrategy.paper()
        ),
    }


def _generate(n: int, seed: int):
    from repro.datasets import stream_corpus

    return [shape for batch in stream_corpus(n, seed=seed) for shape in batch]


def run(seed: int, seconds: float, trace: bool, quick: bool, workdir: str) -> dict:
    from repro import SearchRequest, ThreeDESS

    n_db = 26 if quick else DB_SHAPES
    n_query = 6 if quick else QUERY_SHAPES
    per_round = n_query if quick else FAMILIES
    blocks = n_query // per_round
    repeats = 1 if quick else common.SETUP_REPEATS
    min_samples = 6 if quick else (30 if trace else common.MIN_SAMPLES)

    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)
    setup_s: List[float] = []
    for _ in range(repeats):
        began = time.perf_counter()
        shapes = _generate(n_db + n_query, seed)
        warm = ThreeDESS()
        warm.insert_batch([shapes[n_db].mesh, shapes[n_db + 1].mesh])
        for request in _requests(shapes[-1].mesh).values():
            warm.search(request)
        setup_s.append(time.perf_counter() - began)
    del warm
    stored, queries = shapes[:n_db], shapes[n_db:]
    digest = common.Digest()
    for shape in shapes:
        digest.add(shape.name)
        digest.add(shape.mesh.vertices)
        digest.add(shape.mesh.faces)
    print(
        f"inputs: {n_db} stream_corpus meshes ingested, {n_query} query meshes "
        f"({per_round} per round), resolution 24, sha256 {digest.hexdigest()}"
    )

    ops = ("ingest",) + common.QUERY_OPS
    ledger = common.Ledger(ops)
    if tracer is not None:
        tracer.begin_op("ingest")
    system = ThreeDESS()
    directory = os.path.join(workdir, "mesh-db")
    began = time.perf_counter()
    result = system.insert_batch(
        [s.mesh for s in stored],
        names=[s.name for s in stored],
        groups=[s.group for s in stored],
    )
    system.save(directory)
    ingest_s = time.perf_counter() - began
    if tracer is not None:
        tracer.end_op()
        tracer.restore()

    answers: List[tuple] = []
    hits: Dict[str, List[int]] = {op: [] for op in common.QUERY_OPS}

    def plan(r: int):
        first = (r % blocks) * per_round
        return [
            (op, request, index)
            for index in range(first, first + per_round)
            for op, request in _requests(queries[index].mesh).items()
        ]

    stage1_ms: List[float] = []

    def record(op, index, response):
        answers.append((op, index, checks.Answer.from_hits(response.hits)))
        if op == "cascade" and response.stages:
            stage1_ms.append(response.stages[0].elapsed_ms)

    min_rounds = max(blocks, -(-min_samples // per_round))
    measured: Dict[str, float] = {"ingested_shapes": float(n_db)}
    if tracer is not None:
        half = seconds / 2.0
        rounds, plain_s = common.query_rounds(system, plan, ledger, record, half, min_rounds)
        install(tracer)
        _, traced_s = common.query_rounds(
            system, plan, ledger, record, half, min_rounds, rounds=rounds, tracer=tracer
        )
        tracer.restore()
        measured["overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
    else:
        _, busy_s = common.query_rounds(system, plan, ledger, record, seconds, min_rounds)
    rss_mb = common.peak_rss_mb()

    # -- checks: ingest ------------------------------------------------
    failed_ids = {err.index for err in result.errors}
    degraded = set(result.degraded_ids)
    inserted = result.shape_ids
    vectors: Dict[str, List[np.ndarray]] = {name: [] for name in PAPER_DIMS}
    ids: List[int] = []
    for index, shape_id in enumerate(inserted):
        ledger.attempt("ingest")
        if index in failed_ids or shape_id is None:
            ledger.fail("ingest", f"{stored[index].name} failed to ingest", wrong_answer=False)
            continue
        if shape_id in degraded:
            ledger.fail("ingest", f"{stored[index].name} is degraded", wrong_answer=True)
            continue
        features = system.database.get(shape_id).features
        bad = [
            name
            for name, dim in PAPER_DIMS.items()
            if name not in features
            or np.shape(features[name]) != (dim,)
            or not np.all(np.isfinite(features[name]))
        ]
        if set(features) != set(PAPER_DIMS) or bad:
            ledger.fail("ingest", f"{stored[index].name}: bad vectors {bad}", wrong_answer=True)
            continue
        ids.append(shape_id)
        for name in PAPER_DIMS:
            vectors[name].append(np.asarray(features[name]))
    # -- checks: queries -----------------------------------------------
    spaces = {name: checks.Space(np.vstack(rows), ids) for name, rows in vectors.items()}
    # Stored vectors are float32, so an exact copy lands about 1e-8 d_max
    # away, not at 0.
    near_zero = COPY_TOLERANCE * spaces["principal_moments"].d_max
    for index in range(min(n_db, FAMILIES)):
        twin = copy.deepcopy(stored[index].mesh)
        response = system.search(
            SearchRequest(query=twin, mode="knn", feature_name="principal_moments", k=1)
        )
        if not response.hits or response.hits[0].distance > near_zero:
            ledger.fail(
                "ingest", f"a copy of {stored[index].name} finds no hit at distance 0",
                wrong_answer=True,
            )
    pipeline = system.database.pipeline
    query_vectors = [pipeline.extract(shape.mesh) for shape in queries]
    recalls: List[float] = []
    for op, index, answer in answers:
        qv = query_vectors[index]
        if op == "knn":
            reason = checks.check_knn(spaces["eigenvalues"], qv["eigenvalues"], answer, K)
        elif op == "threshold":
            reason = checks.check_threshold(
                spaces["principal_moments"], qv["principal_moments"], answer, THRESHOLD
            )
        else:
            reason = checks.check_multistep(
                spaces["moment_invariants"], qv["moment_invariants"],
                spaces["geometric_params"], qv["geometric_params"],
                answer, PAPER_POOL, PAPER_KEEP,
            )
            recalls.append(
                checks.multistep_recall(
                    spaces["moment_invariants"], qv["moment_invariants"],
                    spaces["geometric_params"], qv["geometric_params"],
                    answer, PAPER_POOL, PAPER_KEEP,
                )
            )
        hits[op].append(len(answer))
        if reason is not None:
            ledger.fail(op, f"query {queries[index].name}: {reason}", wrong_answer=True)

    tiers = common.tier_bytes(directory)
    if tracer is not None:
        measured.update({f"hits.{op}": common.median(v) for op, v in hits.items()})
        measured["cascade_recall"] = float(np.mean(recalls))
        measured["cascade_scan_ms"] = common.median(stage1_ms)
        measured.update({f"bytes.{t}": b / n_db for t, b in tiers.items()})
        return {"ledger": ledger, "metrics": per_layer_metrics(tracer.analysis(), measured),
                "tracer": tracer}

    metrics = {"setup_s": common.median(setup_s)}
    metrics.update(common.latency_metrics(ledger, common.QUERY_OPS))
    metrics["queries_per_s"] = sum(ledger.attempted[op] for op in common.QUERY_OPS) / busy_s
    metrics["ingest_shapes_per_s"] = n_db / ingest_s
    metrics["peak_rss_mb"] = rss_mb
    metrics["disk_bytes_per_shape"] = common.dir_bytes(directory) / n_db
    print(
        f"ingest {ingest_s:.2f} s for {n_db} meshes; hits per query: median "
        f"threshold {common.median(hits['threshold']):.0f}"
    )
    return {"ledger": ledger, "metrics": metrics}
