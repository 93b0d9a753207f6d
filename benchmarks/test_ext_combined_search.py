"""EXT-COMBINED — linear combination of feature similarities.

The paper mentions that "linear combinations of similarity based on
different feature vectors are used as the overall similarity"; this
extension measures the uniformly-weighted combination of the paper's four
feature vectors against the best single vector and the multi-step
strategy, plus a feedback-reconfigured combination (one round of oracle
marks, the paper's cross-FV weight reconfiguration).
"""

import numpy as np

from conftest import run_once

from repro.evaluation import FEATURE_ORDER, one_query_per_group
from repro.search import (
    CascadeStrategy,
    CombinedSimilarity,
    combined_search,
    reconfigure_feature_weights,
    run_cascade,
)


def sweep(eval_db, eval_engine, k=10):
    queries = one_query_per_group(eval_db)
    uniform = CombinedSimilarity.uniform(FEATURE_ORDER)
    plan = CascadeStrategy.from_steps(
        [("moment_invariants", 30), ("geometric_params", k)]
    )

    rows = {name: [] for name in ("best one-shot (pm)", "combined uniform",
                                  "combined + feedback", "multi-step mi->gp")}
    for query_id in queries:
        relevant = set(eval_db.relevant_to(query_id))

        def recall(ids):
            return len(relevant & set(ids)) / len(relevant)

        one = eval_engine.search_knn(query_id, "principal_moments", k=k)
        rows["best one-shot (pm)"].append(recall([r.shape_id for r in one]))

        comb = combined_search(eval_engine, query_id, uniform, k=k)
        rows["combined uniform"].append(recall([r.shape_id for r in comb]))

        # One oracle feedback round: mark the relevant/irrelevant shapes in
        # the first page, reconfigure FV weights, search again.
        marks_rel = [r.shape_id for r in comb if r.shape_id in relevant]
        marks_irr = [r.shape_id for r in comb if r.shape_id not in relevant]
        if marks_rel:
            tuned = reconfigure_feature_weights(
                eval_engine, uniform, query_id, marks_rel, marks_irr
            )
            comb2 = combined_search(eval_engine, query_id, tuned, k=k)
            rows["combined + feedback"].append(recall([r.shape_id for r in comb2]))
        else:
            rows["combined + feedback"].append(rows["combined uniform"][-1])

        multi = run_cascade(eval_engine, query_id, plan).results
        rows["multi-step mi->gp"].append(recall([r.shape_id for r in multi]))

    return {name: float(np.mean(vals)) for name, vals in rows.items()}


def test_ext_combined_search(benchmark, eval_db, eval_engine, capsys):
    table = run_once(benchmark, sweep, eval_db, eval_engine)
    with capsys.disabled():
        print("\nEXT-COMBINED  average recall@10, 26 queries")
        for name, value in sorted(table.items(), key=lambda kv: -kv[1]):
            print(f"  {name:22s} {value:.3f}")
    assert table["combined + feedback"] >= table["combined uniform"] - 0.05
    for value in table.values():
        assert 0.0 <= value <= 1.0
