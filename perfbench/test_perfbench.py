"""Tests of the benchmark itself: every checker accepts the program's
real answers and rejects corrupted ones, every workload runs to its end
in quick mode, and ``BENCHMARK.json`` lists exactly what the runs print.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import checks, common, corpus  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

N = 2_500  # above the program's exact-d_max limit, below the checker's


@pytest.fixture(scope="module")
def served():
    """A vectors-only system over the benchmark corpus, and the checker's
    view of each feature space."""
    from repro import ThreeDESS

    vectors = corpus.synthetic_vectors(N, seed=5)
    system = ThreeDESS()
    ids = system.database.bulk_append_vectors(
        corpus.shape_names(N), [None] * N, vectors
    )
    spaces = {name: checks.Space(m, ids) for name, m in vectors.items()}
    rows = corpus.inner_rows(vectors)[:3]
    return system, np.asarray(ids), spaces, rows


def _ask(system, **request):
    from repro import SearchRequest

    return checks.Answer.from_hits(system.search(SearchRequest(**request)).hits)


def _drop(answer: checks.Answer, at: int) -> checks.Answer:
    keep = np.arange(len(answer)) != at
    return checks.Answer(
        answer.ids[keep], answer.distances[keep], answer.similarities[keep],
        np.arange(1, len(answer)),
    )


def _swap(answer: checks.Answer, a: int, b: int) -> checks.Answer:
    order = np.arange(len(answer))
    order[[a, b]] = order[[b, a]]
    return dataclasses.replace(
        answer,
        ids=answer.ids[order],
        distances=answer.distances[order],
        similarities=answer.similarities[order],
    )


def _perturb(answer: checks.Answer, at: int) -> checks.Answer:
    distances = answer.distances.copy()
    distances[at] *= 1.0 + 1e-6
    return dataclasses.replace(answer, distances=distances)


def _corruptions(answer: checks.Answer):
    last = len(answer) - 1
    return {
        "dropped first hit": _drop(answer, 0),
        "dropped last hit": _drop(answer, last),
        "swapped pair": _swap(answer, 0, last),
        "perturbed distance": _perturb(answer, last // 2),
    }


def test_knn_checker(served):
    system, ids, spaces, rows = served
    space = spaces[corpus.QUERY_FEATURE]
    for row in rows:
        sid = int(ids[row])
        answer = _ask(system, query=sid, mode="knn", k=10)
        assert checks.check_knn(space, space.matrix[row], answer, 10, exclude=sid) is None
        for what, bad in _corruptions(answer).items():
            assert checks.check_knn(space, space.matrix[row], bad, 10, exclude=sid), what
        # The 11th nearest in place of the 10th: same length, sorted, true
        # distances, but not the ten nearest.
        dist = space.distances(space.matrix[row])
        dist[row] = np.inf
        eleventh = np.argsort(dist)[10]
        swapped_in = dataclasses.replace(
            answer,
            ids=np.append(answer.ids[:-1], ids[eleventh]),
            distances=np.append(answer.distances[:-1], dist[eleventh]),
            similarities=np.append(
                answer.similarities[:-1], 1.0 - dist[eleventh] / space.d_max
            ),
        )
        assert checks.check_knn(space, space.matrix[row], swapped_in, 10, exclude=sid)


def test_threshold_checker(served):
    system, ids, spaces, rows = served
    space = spaces[corpus.QUERY_FEATURE]
    for row in rows:
        sid = int(ids[row])
        answer = _ask(system, query=sid, mode="threshold", threshold=corpus.THRESHOLD)
        assert len(answer) > 10
        query = space.matrix[row]
        assert checks.check_threshold(space, query, answer, corpus.THRESHOLD, exclude=sid) is None
        for what, bad in _corruptions(answer).items():
            assert checks.check_threshold(space, query, bad, corpus.THRESHOLD, exclude=sid), what
        wrong_sim = answer.similarities.copy()
        wrong_sim[0] -= 1e-6
        bad = dataclasses.replace(answer, similarities=wrong_sim)
        assert checks.check_threshold(space, query, bad, corpus.THRESHOLD, exclude=sid)


def test_cascade_checker(served):
    system, ids, spaces, rows = served
    space = spaces[corpus.QUERY_FEATURE]
    for row in rows:
        sid = int(ids[row])
        answer = _ask(system, query=sid, mode="cascade", k=10)
        query = space.matrix[row]
        assert checks.check_ranked(space, query, answer, 10, exclude=sid) is None
        assert checks.recall_at_k(space, query, answer, 10, exclude=sid) == 1.0
        for what, bad in _corruptions(answer).items():
            assert checks.check_ranked(space, query, bad, 10, exclude=sid), what


def test_multistep_checker(served):
    from repro.search.cascade import CascadeStrategy

    system, ids, spaces, rows = served
    scan, rank = spaces["moment_invariants"], spaces["geometric_params"]
    for row in rows:
        sid = int(ids[row])
        answer = _ask(
            system, query=sid, mode="cascade", strategy=CascadeStrategy.paper(),
            exclude_query=False,
        )
        args = (scan, scan.matrix[row], rank, rank.matrix[row])
        assert checks.check_multistep(*args, answer, 30, 10) is None
        assert checks.multistep_recall(*args, answer, 30, 10) == 1.0
        for what, bad in _corruptions(answer).items():
            assert checks.check_multistep(*args, bad, 30, 10), what
        # A shape from outside the 30-pool, given its true distance.
        outside = np.argsort(scan.distances(scan.matrix[row]))[-1]
        true = rank.distances(rank.matrix[row])[outside]
        intruder = dataclasses.replace(
            answer,
            ids=np.append(answer.ids[:-1], ids[outside]),
            distances=np.append(answer.distances[:-1], true),
        )
        assert checks.check_multistep(*args, intruder, 30, 10)


def test_ties_in_any_order():
    matrix = np.array([[0.0], [1.0], [0.5], [0.5], [0.5], [0.9]])
    space = checks.Space(matrix, [1, 2, 3, 4, 5, 6])
    query = np.array([0.5])
    # Three shapes tie at distance 0; any two of them are a correct 2-NN.
    for pair in ([3, 4], [5, 3], [4, 5]):
        answer = checks.Answer(
            np.array(pair), np.zeros(2), np.ones(2), np.array([1, 2])
        )
        assert checks.check_knn(space, query, answer, 2) is None
    wrong = checks.Answer(np.array([3, 6]), np.array([0.0, 0.4]),
                          np.array([1.0, 0.6]), np.array([1, 2]))
    assert checks.check_knn(space, query, wrong, 2)


def _run(workload: str, trace: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run(workload):
    result = _run(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(common.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == common.END_TO_END[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_traced_run(workload):
    result = _run(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _unit, _fn in PER_LAYER]


def test_benchmark_json_matches_the_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _fn in PER_LAYER
    ]
