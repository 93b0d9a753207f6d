"""serve-1k: ``three-dess serve`` as its own process over a saved 1k-shape
synthetic corpus.

One load process drives it in a closed loop over two keep-alive
``ServiceClient`` connections (one thread each), sending knn, threshold
and cascade (wire v2) by shape id.  Start-up (storage load and R-tree
build) dominates set-up; the wire, protocol, admission and metrics
layers take a large share of each round trip, since search over 1k rows
is cheap.

The server is started with unbuffered output, because ``serve`` does not
flush its ``serving ... on URL`` line; readiness is that line, read as
soon as it is written.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from . import checks, common, corpus
from .layers import per_layer_metrics
from .trace import Tracer, install, load_dump

SHAPES = 1000
SETUP_REPEATS = 3
#: Further append + save timings for ``ingest_shapes_per_s``.
EXTRA_BUILDS = 6
ROUND_QUERIES = 20
CONNECTIONS = 2
K = 10
START_TIMEOUT_S = 150.0
READY = re.compile(r"serving \d+ shapes .* on (http://\S+)")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAUNCHER = os.path.join(ROOT, "perfbench", "serve_launcher.py")


def _share_cpu(pid: int) -> None:
    """Run a process (0 = this one) on the first CPU this one may use.

    The server and the load process share one CPU.  On a virtual machine
    a round trip between two CPUs waits for the host to wake the idle
    one; measured on a 2-vCPU KVM guest, that made throughput swing
    between 130 and 260 requests/s from run to run, against 183-193 on
    one CPU.
    """
    os.sched_setaffinity(pid, {min(os.sched_getaffinity(0))})


class Server:
    """One ``three-dess serve`` process on a free port."""

    def __init__(self, directory: str, workdir: str, spans_path: Optional[str] = None):
        if spans_path is None:
            command = [sys.executable, "-u", "-m", "repro.cli", "serve", directory]
        else:
            command = [sys.executable, "-u", LAUNCHER, spans_path, directory]
        command += ["--port", "0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
        )
        self._stderr_path = os.path.join(workdir, f"server-{time.monotonic_ns()}.err")
        self._stderr = open(self._stderr_path, "wb")
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr, env=env, cwd=ROOT
        )
        _share_cpu(self.proc.pid)
        try:
            self.url = self._await_ready(began + START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - began

    def _await_ready(self, deadline: float) -> str:
        fd = self.proc.stdout.fileno()
        buffer = b""
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while True:
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    found = READY.search(line.decode("utf-8", "replace"))
                    if found:
                        return found.group(1)
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise RuntimeError("server did not report its URL in time")
                if not selector.select(remaining):
                    continue
                chunk = os.read(fd, 4096)
                if not chunk:
                    code = self.proc.wait()
                    with open(self._stderr_path, "rb") as handle:
                        tail = handle.read()[-2000:].decode("utf-8", "replace")
                    raise RuntimeError(f"server exited with {code} before ready: {tail}")
                buffer += chunk

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """SIGTERM (a graceful drain) and wait for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def _search(client, op: str, shape_id: int) -> dict:
    return client.search(
        shape_id=shape_id, mode=op, feature_name=corpus.QUERY_FEATURE, k=K,
        threshold=corpus.THRESHOLD,
    )


def _round_plan(pool, seed: int, thread: int, round_index: int, per_round: int):
    """One connection's (row, op) pairs for a round, in shuffled order.

    Shuffling keeps the two connections from locking into one fixed
    pairing of concurrent ops (say, knn always beside threshold), which
    would otherwise set the latencies of a whole run.
    """
    rows = corpus.round_queries(pool, seed, 1 + thread, round_index, per_round)
    pairs = [(row, op) for row in rows for op in common.QUERY_OPS]
    order = np.random.default_rng([seed, 3, thread, round_index]).permutation(len(pairs))
    return [pairs[i] for i in order]


def _warm(url: str, shape_id: int) -> None:
    from repro.service.client import ServiceClient

    with ServiceClient(url) as client:
        for op in common.QUERY_OPS:
            _search(client, op, shape_id)


def _drive(url, ids, pool, seed, per_round, seconds, min_rounds, rounds=None):
    """Closed loop over ``CONNECTIONS`` keep-alive clients, one thread each.

    Each thread runs whole rounds of ``per_round`` ids x three ops until
    ``seconds`` have passed and ``min_rounds`` are done, or exactly
    ``rounds``.  Returns the per-request records, the rounds each thread
    ran, and the wall time of the phase.
    """
    from repro.service.client import ServiceClient

    _share_cpu(0)
    records: List[List[tuple]] = [[] for _ in range(CONNECTIONS)]
    done = [0] * CONNECTIONS
    crashes: List[BaseException] = []
    start = time.perf_counter()

    def worker(t: int) -> None:
        out = records[t]
        try:
            with ServiceClient(url) as client:
                r = 0
                while True:
                    for row, op in _round_plan(pool, seed, t, r, per_round):
                        out.append(_timed_request(client, op, row, ids, False))
                    r += 1
                    if rounds is not None:
                        if r >= rounds:
                            break
                    elif r >= min_rounds and time.perf_counter() - start >= seconds:
                        break
                done[t] = r
        except BaseException as exc:  # reported by the caller
            crashes.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("load threads did not finish")
    if crashes:
        raise crashes[0]
    return [rec for out in records for rec in out], done, time.perf_counter() - start


def _timed_request(client, op: str, row: int, ids, keep_bytes: bool) -> tuple:
    """One search round trip: ``(op, row, answer, roundtrip_ms, handler_ms,
    error, response_bytes, stage1_ms)``."""
    from repro.service.client import ServiceError

    began = time.perf_counter()
    try:
        body = _search(client, op, int(ids[row]))
    except ServiceError as exc:
        elapsed = (time.perf_counter() - began) * 1000.0
        return (op, row, None, elapsed, 0.0, f"HTTP {exc.status}: {exc}", 0, None)
    elapsed = (time.perf_counter() - began) * 1000.0
    stages = body.get("stages") or []
    return (
        op, row, checks.Answer.from_wire(body.get("hits", [])),
        elapsed, float(body.get("elapsed_ms", 0.0)),
        None if body.get("ok") is True else "response not ok",
        len(json.dumps(body).encode("utf-8")) if keep_bytes else 0,
        stages[0]["elapsed_ms"] if stages else None,
    )


def _sized_requests(url: str, ids, pool, per_op: int = 20) -> List[tuple]:
    """Requests outside the timed phases whose response bodies are sized."""
    from repro.service.client import ServiceClient

    with ServiceClient(url) as client:
        return [
            _timed_request(client, op, row, ids, keep_bytes=True)
            for row in pool[:per_op]
            for op in common.QUERY_OPS
        ]


def _build(n: int, seed: int, directory: str, names, groups):
    from repro.db.database import ShapeDatabase

    vectors = corpus.synthetic_vectors(n, seed)
    database = ShapeDatabase()
    began = time.perf_counter()
    ids = np.asarray(database.bulk_append_vectors(names, groups, vectors), dtype=np.int64)
    database.save(directory)
    return vectors, ids, time.perf_counter() - began


def _check(records, ledger, space, ids, recalls, hits):
    for op, row, answer, elapsed, _handler, error, _nbytes, _stage in records:
        ledger.attempt(op, elapsed)
        if error is not None:
            ledger.fail(op, error, wrong_answer=False)
            continue
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


def run(seed: int, seconds: float, trace: bool, quick: bool, workdir: str) -> dict:
    n = 300 if quick else SHAPES
    per_round = 5 if quick else ROUND_QUERIES
    repeats = 1 if quick else SETUP_REPEATS
    min_samples = 10 if quick else (30 if trace else common.MIN_SAMPLES)
    min_rounds = -(-min_samples // (per_round * CONNECTIONS))
    names = corpus.shape_names(n)
    groups = [None] * n

    ledger = common.Ledger(common.QUERY_OPS)
    recalls: List[float] = []
    hits: Dict[str, List[int]] = {op: [] for op in common.QUERY_OPS}
    if trace:
        return _run_traced(seed, seconds, n, per_round, min_rounds, names, groups,
                           workdir, ledger, recalls, hits)

    setup_s: List[float] = []
    ingest_s: List[float] = []
    server = None
    try:
        for rep in range(repeats):
            if server is not None:
                server.stop()
                server = None
            directory = os.path.join(workdir, f"serve-db-{rep}")
            began = time.perf_counter()
            vectors, ids, built_s = _build(n, seed, directory, names, groups)
            pool = corpus.inner_rows(vectors)
            server = Server(directory, workdir)
            _warm(server.url, int(ids[pool[0]]))
            setup_s.append(time.perf_counter() - began)
            ingest_s.append(built_s)
        # Appending and saving 1k shapes takes a third of a second, too
        # short for three samples to give a steady median; time a few more.
        for rep in range(repeats, repeats + EXTRA_BUILDS):
            ingest_s.append(
                _build(n, seed, os.path.join(workdir, f"serve-db-{rep}"), names, groups)[2]
            )
        _print_inputs(vectors, pool, n, per_round)
        server_cpu = common.process_cpu_s(server.pid)
        client_cpu = time.process_time()
        records, _rounds, wall_s = _drive(
            server.url, ids, pool, seed, per_round, seconds, min_rounds
        )
        server_cpu = common.process_cpu_s(server.pid) - server_cpu
        client_cpu = time.process_time() - client_cpu
        rss_mb = common.process_peak_rss_mb(server.pid)
    finally:
        if server is not None:
            server.stop()

    space = checks.Space(vectors[corpus.QUERY_FEATURE], ids)
    _check(records, ledger, space, ids, recalls, hits)
    metrics = {"setup_s": common.median(setup_s)}
    metrics.update(common.latency_metrics(ledger, common.QUERY_OPS))
    metrics["queries_per_s"] = len(records) / wall_s
    metrics["ingest_shapes_per_s"] = n / common.median(ingest_s)
    metrics["peak_rss_mb"] = rss_mb
    metrics["disk_bytes_per_shape"] = common.dir_bytes(directory) / n
    print(
        f"server start-up {server.startup_s:.2f} s; server cpu "
        f"{server_cpu / len(records) * 1000:.3f} ms/request, client cpu "
        f"{client_cpu / len(records) * 1000:.3f} ms/request; cascade recall@10 "
        f"{float(np.mean(recalls)):.4f}"
    )
    return {"ledger": ledger, "metrics": metrics}


def _print_inputs(vectors, pool, n, per_round) -> None:
    digest = common.Digest()
    for name in sorted(vectors):
        digest.add(name)
        digest.add(vectors[name])
    digest.add(pool)
    print(
        f"inputs: {n} synthetic shapes saved and served, {len(pool)} inner query "
        f"candidates, {CONNECTIONS} connections x {per_round} queries per round, "
        f"sha256 {digest.hexdigest()}"
    )


def _run_traced(seed, seconds, n, per_round, min_rounds, names, groups, workdir,
                ledger, recalls, hits) -> dict:
    """Phase A drives an untraced server, phase B a traced one with the
    same rounds; client-side figures come from A, spans from B."""
    tracer = Tracer()
    install(tracer)
    tracer.begin_op("setup")
    directory = os.path.join(workdir, "serve-db")
    vectors, ids, _built = _build(n, seed, directory, names, groups)
    tracer.end_op()
    tracer.restore()
    pool = corpus.inner_rows(vectors)
    _print_inputs(vectors, pool, n, per_round)

    server = Server(directory, workdir)
    try:
        _warm(server.url, int(ids[pool[0]]))
        server_cpu = common.process_cpu_s(server.pid)
        client_cpu = time.process_time()
        plain, rounds, _wall = _drive(
            server.url, ids, pool, seed, per_round, seconds / 2.0, min_rounds
        )
        server_cpu = common.process_cpu_s(server.pid) - server_cpu
        client_cpu = time.process_time() - client_cpu
        sized = _sized_requests(server.url, ids, pool)
    finally:
        server.stop()

    spans_path = os.path.join(workdir, "server.spans.jsonl")
    server = Server(directory, workdir, spans_path=spans_path)
    try:
        _warm(server.url, int(ids[pool[0]]))
        traced, _rounds, _wall = _drive(
            server.url, ids, pool, seed, per_round, 0.0, 0, rounds=max(rounds)
        )
    finally:
        server.stop()
    server_spans = load_dump(spans_path)

    space = checks.Space(vectors[corpus.QUERY_FEATURE], ids)
    _check(plain + traced + sized, ledger, space, ids, recalls, hits)
    measured: Dict[str, float] = {
        "startup_s": server.startup_s,
        "server_cpu_ms": server_cpu / len(plain) * 1000.0,
        "client_cpu_ms": client_cpu / len(plain) * 1000.0,
        "cascade_recall": float(np.mean(recalls)),
        "cascade_scan_ms": common.median(r[7] for r in plain if r[0] == "cascade" and r[7] is not None),
        "overhead_pct": (
            np.mean([r[3] for r in traced]) / np.mean([r[3] for r in plain]) - 1.0
        ) * 100.0,
    }
    for op in common.QUERY_OPS:
        mine = [r for r in plain if r[0] == op and r[2] is not None]
        measured[f"roundtrip_ms.{op}"] = common.median(r[3] for r in mine)
        measured[f"handler_ms.{op}"] = common.median(r[4] for r in mine)
        measured[f"wire_ms.{op}"] = common.median(r[3] - r[4] for r in mine)
        measured[f"response_bytes.{op}"] = common.median(r[6] for r in sized if r[0] == op)
        measured[f"server_search_ms.{op}"] = server_spans.per_op("api.search", op) * 1000.0
        measured[f"hits.{op}"] = common.median(hits[op])
    measured.update({f"bytes.{t}": b / n for t, b in common.tier_bytes(directory).items()})
    spans = tracer.analysis().combined(server_spans)
    return {"ledger": ledger, "metrics": per_layer_metrics(spans, measured),
            "tracer": tracer, "server_spans": spans_path}
