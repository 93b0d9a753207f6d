"""Degraded-mode search: mixed full/partial records stay queryable.

A degraded record carries only the feature vectors that extracted
successfully (e.g. the three geometry-derived ones when skeletonization
fails).  Search must neither raise ``KeyError`` nor silently drop such
records from plans that touch a feature they lack.
"""

import numpy as np
import pytest

from repro.db import ShapeDatabase
from repro.features import FeaturePipeline
from repro.geometry.primitives import box, cylinder, tube
from repro.robust import SkeletonizationError
from repro.search.cascade import CascadeStrategy, run_cascade
from repro.search.combined import CombinedSimilarity, combined_search
from repro.search.engine import SearchEngine

RES = 10


@pytest.fixture
def mixed_db(monkeypatch):
    """Six shapes: ids 1-4 full, ids 5-6 degraded (no skeleton features)."""
    db = ShapeDatabase(FeaturePipeline(voxel_resolution=RES))
    full = [
        (box((2, 1, 1)), "box_a"),
        (box((2.2, 1, 1)), "box_b"),
        (cylinder(1, 3, segments=12), "rod"),
        (tube(1.2, 0.7, 2, segments=12), "bush"),
    ]
    result = db.insert_meshes(
        [m for m, _ in full], names=[n for _, n in full]
    )
    assert not result.errors and not result.degraded_ids

    import repro.features.base as base

    def broken_thin(voxels):
        raise SkeletonizationError("injected", code="skeleton.no_convergence")

    monkeypatch.setattr(base, "thin", broken_thin)
    degraded = [
        (box((2.1, 1, 1)), "box_degraded"),
        (cylinder(1.1, 3, segments=12), "rod_degraded"),
    ]
    result = db.insert_meshes(
        [m for m, _ in degraded], names=[n for _, n in degraded]
    )
    assert result.degraded_ids == [5, 6]
    monkeypatch.undo()
    return db


class TestKnnOverMixedRecords:
    def test_carried_feature_returns_degraded_records(self, mixed_db):
        engine = SearchEngine(mixed_db)
        results = engine.search_knn(1, "moment_invariants", k=5)
        ids = [r.shape_id for r in results]
        # box_degraded (id 5) carries moment_invariants and is the
        # geometry closest to box_a: it must surface.
        assert 5 in ids

    def test_missing_feature_space_excludes_degraded(self, mixed_db):
        engine = SearchEngine(mixed_db)
        results = engine.search_knn(1, "eigenvalues", k=10)
        ids = {r.shape_id for r in results}
        assert ids <= {2, 3, 4}  # degraded ids 5, 6 carry no eigenvalues

    def test_degraded_query_record_searchable_on_carried_feature(self, mixed_db):
        engine = SearchEngine(mixed_db)
        results = engine.search_knn(5, "geometric_params", k=3)
        assert results, "degraded records must be usable as queries"
        assert all(r.shape_id != 5 for r in results)


class TestRerankOverMixedRecords:
    def test_degraded_candidates_ranked_last_not_dropped(self, mixed_db):
        engine = SearchEngine(mixed_db)
        results = engine.rerank([2, 5, 3, 6], 1, "eigenvalues")
        ids = [r.shape_id for r in results]
        assert set(ids) == {2, 5, 3, 6}, "no candidate may be dropped"
        # Records lacking the rerank feature sort after every record
        # carrying it, in stable id order, at similarity zero.
        assert ids[-2:] == [5, 6]
        assert results[-1].similarity == 0.0
        assert results[-2].similarity == 0.0

    def test_rerank_deterministic(self, mixed_db):
        engine = SearchEngine(mixed_db)
        first = [r.shape_id for r in engine.rerank([6, 3, 5, 2], 1, "eigenvalues")]
        second = [r.shape_id for r in engine.rerank([6, 3, 5, 2], 1, "eigenvalues")]
        assert first == second

    def test_multistep_over_mixed_records(self, mixed_db):
        engine = SearchEngine(mixed_db)
        plan = CascadeStrategy.from_steps(
            [("moment_invariants", 5), ("eigenvalues", 4)]
        )
        results = run_cascade(engine, 1, plan).results
        assert results
        ranks = [r.rank for r in results]
        assert ranks == list(range(1, len(results) + 1))
        # Run twice: deterministic order over mixed records.
        again = run_cascade(engine, 1, plan).results
        assert [r.shape_id for r in results] == [r.shape_id for r in again]


class TestCombinedOverMixedRecords:
    def test_weights_renormalized_over_carried_features(self, mixed_db):
        engine = SearchEngine(mixed_db)
        combo = CombinedSimilarity.uniform(
            ["moment_invariants", "geometric_params", "eigenvalues"]
        )
        results = combined_search(engine, 1, combo, k=6)
        ids = {r.shape_id for r in results}
        assert 5 in ids, "degraded record must be scored, not raise"
        # All similarities stay inside [0, 1] after renormalization.
        assert all(0.0 <= r.similarity <= 1.0 for r in results)

    def test_identical_geometry_scores_high_despite_degradation(self, mixed_db):
        # box_degraded differs from box_a only slightly; renormalized over
        # its carried features, it must beat the unrelated tube.
        engine = SearchEngine(mixed_db)
        combo = CombinedSimilarity.uniform(
            ["moment_invariants", "geometric_params", "eigenvalues"]
        )
        results = combined_search(engine, 1, combo, k=6)
        sims = {r.shape_id: r.similarity for r in results}
        assert sims[5] > sims[4]

    def test_combined_deterministic(self, mixed_db):
        engine = SearchEngine(mixed_db)
        combo = CombinedSimilarity.uniform(
            ["moment_invariants", "eigenvalues"]
        )
        first = [r.shape_id for r in combined_search(engine, 1, combo, k=6)]
        second = [r.shape_id for r in combined_search(engine, 1, combo, k=6)]
        assert first == second

    def test_record_with_none_of_the_features_scores_zero(self, mixed_db):
        from repro.db import ShapeRecord

        mixed_db.insert_record(
            ShapeRecord(
                shape_id=0,
                name="featureless",
                features={"extended_invariants": np.arange(1.0, 11.0)},
            )
        )
        engine = SearchEngine(mixed_db)
        combo = CombinedSimilarity.uniform(["moment_invariants"])
        results = combined_search(engine, 1, combo, k=10)
        sims = {r.shape_id: r.similarity for r in results}
        assert sims[7] == 0.0

    def test_columns_of_equal_length_with_different_ids(self, mixed_db):
        # Two records, each missing a different feature: both columns
        # grow by one row, so they match in length but not in ids.  A
        # score must follow its id, not its row position.
        from repro.db import ShapeRecord

        base = mixed_db.get(2).features
        no_mi = mixed_db.insert_record(
            ShapeRecord(
                shape_id=0,
                name="no_moment_invariants",
                features={
                    f: v * 1.05 for f, v in base.items() if f != "moment_invariants"
                },
            )
        )
        no_gp = mixed_db.insert_record(
            ShapeRecord(
                shape_id=0,
                name="no_geometric_params",
                features={
                    f: v * 0.95 for f, v in base.items() if f != "geometric_params"
                },
            )
        )
        mi = mixed_db.feature_view("moment_invariants")
        gp = mixed_db.feature_view("geometric_params")
        assert len(mi) == len(gp)
        assert list(mi.ids) != list(gp.ids)

        engine = SearchEngine(mixed_db)
        combo = CombinedSimilarity(
            {"moment_invariants": 2.0, "geometric_params": 1.0, "eigenvalues": 1.0}
        )
        results = combined_search(engine, 1, combo, k=len(mixed_db))
        assert {r.shape_id for r in results} == set(mixed_db.ids()) - {1}
        assert {no_mi, no_gp} <= {r.shape_id for r in results}
        query = mixed_db.get(1)
        for r in results:
            record = mixed_db.get(r.shape_id)
            carried = [f for f in combo.weights if f in record.features]
            blend = sum(
                combo.weights[f]
                * engine.measure(f).similarity(query.feature(f), record.feature(f))
                for f in carried
            )
            assert r.similarity == blend / sum(combo.weights[f] for f in carried)
        assert [r.shape_id for r in results] == [
            r.shape_id
            for r in sorted(results, key=lambda r: (-r.similarity, r.shape_id))
        ]
