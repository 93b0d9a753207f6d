"""Searching an engineering part library: one-shot vs multi-step.

Loads the paper's 113-shape evaluation corpus (built and cached on first
use), queries it with one shape per family, and shows how the multi-step
strategy (Section 4.2) — retrieve a pool with moment invariants, filter by
geometric parameters — compares with one-shot retrieval.

Run:  python examples/part_library_search.py
"""

from repro.datasets import load_or_build_database
from repro.evaluation import evaluate_retrieval
from repro.search import CascadeStrategy, SearchEngine, run_cascade


def main() -> None:
    print("Loading the 113-shape evaluation corpus (cached after first run) ...")
    db = load_or_build_database()
    engine = SearchEngine(db)

    # Take one query from a few characteristic families.
    cmap = db.classification_map()
    for family in ("l_bracket", "stepped_shaft", "flange"):
        query_id = sorted(cmap[family])[0]
        relevant = db.relevant_to(query_id)
        print(f"\n=== Query: {db.get(query_id).name} "
              f"({len(relevant)} relevant shapes in the library) ===")

        # One-shot retrieval with the best single descriptor.
        one_shot = engine.search_knn(query_id, "principal_moments", k=10)
        pr = evaluate_retrieval([r.shape_id for r in one_shot], relevant)
        print(f"one-shot principal moments @10:  "
              f"precision {pr.precision:.2f}  recall {pr.recall:.2f}")

        # Multi-step: pool of 30 by moment invariants, filtered by
        # geometric parameters, top 10 presented.
        plan = CascadeStrategy.from_steps(
            [("moment_invariants", 30), ("geometric_params", 10)]
        )
        multi = run_cascade(engine, query_id, plan).results
        pr = evaluate_retrieval([r.shape_id for r in multi], relevant)
        print(f"multi-step mi@30 -> gp@10:       "
              f"precision {pr.precision:.2f}  recall {pr.recall:.2f}")

        print("multi-step top hits:")
        for hit in multi[:5]:
            marker = "*" if hit.shape_id in relevant else " "
            print(f"  {marker} #{hit.rank} {hit.name:22s} "
                  f"similarity={hit.similarity:.3f}")


if __name__ == "__main__":
    main()
