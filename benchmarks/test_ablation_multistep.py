"""ABL-MSTEP — multi-step pool size and feature-vector pairing.

Sweeps the candidate-pool size of the multi-step strategy and every
ordered pair of moment-based feature vectors, reporting average recall@10
over the 26-query workload.  Shows where the paper's pool=30 choice sits.
"""

import numpy as np

from conftest import run_once

from repro.evaluation import one_query_per_group
from repro.search import CascadeStrategy, run_cascade

POOLS = (10, 20, 30, 50)
PAIRS = [
    ("moment_invariants", "geometric_params"),
    ("moment_invariants", "principal_moments"),
    ("principal_moments", "geometric_params"),
    ("geometric_params", "principal_moments"),
]


def sweep(db, engine):
    queries = one_query_per_group(db)
    table = {}
    for first, second in PAIRS:
        for pool in POOLS:
            plan = CascadeStrategy.from_steps([(first, pool), (second, 10)])
            recalls = []
            for query_id in queries:
                relevant = set(db.relevant_to(query_id))
                res = run_cascade(engine, query_id, plan).results
                recalls.append(
                    len(relevant & {r.shape_id for r in res}) / len(relevant)
                )
            table[(first, second, pool)] = float(np.mean(recalls))
    return table


def test_ablation_multistep(benchmark, eval_db, eval_engine, capsys):
    table = run_once(benchmark, sweep, eval_db, eval_engine)
    with capsys.disabled():
        print("\nABL-MSTEP  average recall@10 by plan and pool size")
        header = "  {:22s} -> {:22s}".format("pool FV", "filter FV")
        print(header + "".join(f"  pool={p:<3d}" for p in POOLS))
        for first, second in PAIRS:
            row = f"  {first:22s} -> {second:22s}"
            for pool in POOLS:
                row += f"  {table[(first, second, pool)]:.3f}   "
            print(row)
    # Larger pools should never hurt badly: best pool within 10% of pool=30.
    for first, second in PAIRS:
        assert table[(first, second, 30)] >= table[(first, second, 10)] - 0.1
