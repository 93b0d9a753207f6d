"""Bookkeeping shared by the workloads: op ledger, percentiles, memory,
directory sizes and input digests."""

from __future__ import annotations

import hashlib
import os
import resource
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: Query op types, in the order each round issues them.
QUERY_OPS = ("knn", "threshold", "cascade")

#: Samples each op type needs per run: p90 then has ten samples beyond it.
MIN_SAMPLES = 100

#: Set-ups per run of the in-process workloads; ``setup_s`` reports
#: their median.  serve-1k sets up three times: each starts a server.
SETUP_REPEATS = 5

#: End-to-end metrics every untraced run reports, with their units.
END_TO_END = {
    "setup_s": "s",
    "knn_p50_ms": "ms",
    "knn_p90_ms": "ms",
    "threshold_p50_ms": "ms",
    "threshold_p90_ms": "ms",
    "cascade_p50_ms": "ms",
    "cascade_p90_ms": "ms",
    "queries_per_s": "ops/s",
    "ingest_shapes_per_s": "shapes/s",
    "peak_rss_mb": "MB",
    "disk_bytes_per_shape": "B",
}


def median(values: Iterable[float]) -> float:
    return float(np.median(np.asarray(list(values), dtype=np.float64)))


def p90(values: Iterable[float]) -> float:
    return float(np.percentile(np.asarray(list(values), dtype=np.float64), 90))


class Ledger:
    """Per-op-type counts of attempted and failed operations, latencies,
    and the first few failure reasons."""

    def __init__(self, ops: Iterable[str]) -> None:
        self.ops = list(ops)
        self.attempted: Dict[str, int] = {op: 0 for op in self.ops}
        self.failed: Dict[str, int] = {op: 0 for op in self.ops}
        self.latency_ms: Dict[str, List[float]] = {op: [] for op in self.ops}
        self.wrong = 0
        self.reasons: List[str] = []

    def attempt(self, op: str, latency_ms: Optional[float] = None) -> None:
        self.attempted[op] += 1
        if latency_ms is not None:
            self.latency_ms[op].append(latency_ms)

    def fail(self, op: str, reason: str, wrong_answer: bool) -> None:
        """Count one attempted op as failed.  ``wrong_answer`` marks a
        failed answer check (which makes the run incorrect) as opposed
        to an error the program reported."""
        self.failed[op] += 1
        if wrong_answer:
            self.wrong += 1
        if len(self.reasons) < 10:
            self.reasons.append(f"{op}: {reason}")

    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    def total_failed(self) -> int:
        return sum(self.failed.values())

    def print_summary(self) -> None:
        for op in self.ops:
            print(
                f"op {op}: attempted {self.attempted[op]} "
                f"failed {self.failed[op]}"
            )
        for reason in self.reasons:
            print(f"failure {reason}")


def query_rounds(
    system,
    plan: Callable[[int], List[Tuple[str, object, object]]],
    ledger: Ledger,
    record: Callable[[str, object, object], None],
    seconds: float,
    min_rounds: int,
    rounds: Optional[int] = None,
    tracer=None,
) -> Tuple[int, float]:
    """Issue whole rounds of in-process searches.

    ``plan(r)`` lists round ``r``'s ``(op, SearchRequest, key)`` triples;
    ``record(op, key, response)`` keeps each answer for the checks.
    Rounds continue until ``seconds`` have passed and ``min_rounds`` are
    done, or exactly ``rounds`` when given.  Only the ``search`` call is
    timed.  Returns the rounds run and the summed search time.
    """
    start = time.perf_counter()
    busy = 0.0
    done = 0
    while True:
        for op, request, key in plan(done):
            if tracer is not None:
                tracer.begin_op(op)
            began = time.perf_counter()
            try:
                response = system.search(request)
            except Exception as exc:  # an error the program reports is a failed op
                ledger.attempt(op)
                ledger.fail(op, f"{type(exc).__name__}: {exc}", wrong_answer=False)
                continue
            finally:
                if tracer is not None:
                    tracer.end_op()
            elapsed = time.perf_counter() - began
            busy += elapsed
            ledger.attempt(op, elapsed * 1000.0)
            record(op, key, response)
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif done >= min_rounds and time.perf_counter() - start >= seconds:
            break
    return done, busy


def latency_metrics(ledger: Ledger, ops: Iterable[str]) -> Dict[str, float]:
    """``<op>_p50_ms`` and ``<op>_p90_ms`` for each op type."""
    out: Dict[str, float] = {}
    for op in ops:
        samples = ledger.latency_ms[op]
        out[f"{op}_p50_ms"] = median(samples)
        out[f"{op}_p90_ms"] = p90(samples)
    return out


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Another process's resident-set high-water mark (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # After the command field: state is field 3, utime 14 and stime 15.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


#: Saved-database tiers, keyed by the name used in ``db.bytes_per_shape.*``.
DISK_TIERS = {
    "manifest": "manifest.json",
    "features": "features.npz",
    "packed": "packed",
    "quantized": "quantized",
    "meshes": "meshes",
}


def tier_bytes(directory: str) -> Dict[str, int]:
    """Bytes of each saved-database tier (0 for an absent tier)."""
    out: Dict[str, int] = {}
    for tier, rel in DISK_TIERS.items():
        path = os.path.join(directory, rel)
        total = 0
        if os.path.isfile(path):
            total = os.path.getsize(path)
        elif os.path.isdir(path):
            for root, _dirs, files in os.walk(path):
                total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
        out[tier] = total
    return out


def dir_bytes(directory: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(directory):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


class Digest:
    """SHA-256 over the arrays and strings that make up a workload's inputs."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, item) -> None:
        if isinstance(item, np.ndarray):
            self._h.update(str((item.dtype.str, item.shape)).encode())
            self._h.update(np.ascontiguousarray(item).tobytes())
        else:
            self._h.update(repr(item).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]
