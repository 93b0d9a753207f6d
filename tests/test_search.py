"""Similarity measure, search engine, multi-step, relevance feedback."""

import numpy as np
import pytest

from repro.db import ShapeDatabase
from repro.features import FeaturePipeline
from repro.geometry import box, cylinder, torus, tube
from repro.search import (
    CascadeStrategy,
    RelevanceFeedbackSession,
    SearchEngine,
    SimilarityMeasure,
    range_weights,
    reconfigure_weights,
    reconstruct_query,
    run_cascade,
    weighted_distance,
)


@pytest.fixture
def db():
    database = ShapeDatabase(FeaturePipeline(voxel_resolution=12))
    database.insert_mesh(box((2, 3, 4)), group="boxes")
    database.insert_mesh(box((2.1, 3.1, 3.9)), group="boxes")
    database.insert_mesh(box((1.9, 2.9, 4.1)), group="boxes")
    database.insert_mesh(cylinder(1, 4, 16), group="cyls")
    database.insert_mesh(cylinder(1.1, 3.8, 16), group="cyls")
    database.insert_mesh(torus(2, 0.5, 16, 8))
    database.insert_mesh(tube(2, 1, 1, 16))
    return database


@pytest.fixture
def engine(db):
    return SearchEngine(db)


class TestWeightedDistance:
    def test_unweighted_is_euclidean(self):
        assert weighted_distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_weights_scale_dimensions(self):
        d = weighted_distance([0, 0], [1, 1], weights=np.array([4.0, 0.0]))
        assert d == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            weighted_distance([0, 0], [1, 1, 1])
        with pytest.raises(ValueError):
            weighted_distance([0, 0], [1, 1], weights=np.ones(3))

    def test_range_weights(self):
        mat = np.array([[0.0, 0.0], [2.0, 10.0]])
        w = range_weights(mat)
        assert w == pytest.approx([0.25, 0.01])

    def test_range_weights_constant_dim_zero(self):
        mat = np.array([[1.0, 5.0], [1.0, 6.0]])
        assert range_weights(mat)[0] == 0.0


class TestSimilarityMeasure:
    def test_dmax_is_max_pairwise(self):
        mat = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        m = SimilarityMeasure(mat, weighting="uniform")
        assert m.d_max == pytest.approx(5.0)

    def test_similarity_range(self):
        mat = np.array([[0.0], [10.0]])
        m = SimilarityMeasure(mat, weighting="uniform")
        assert m.similarity(np.array([0.0]), np.array([0.0])) == 1.0
        assert m.similarity(np.array([0.0]), np.array([10.0])) == 0.0

    def test_similarity_clamped_beyond_dmax(self):
        mat = np.array([[0.0], [1.0]])
        m = SimilarityMeasure(mat, weighting="uniform")
        assert m.similarity(np.array([0.0]), np.array([5.0])) == 0.0

    def test_identical_points_dmax_guard(self):
        mat = np.array([[1.0, 1.0], [1.0, 1.0]])
        m = SimilarityMeasure(mat)
        assert m.d_max == 1.0

    def test_radius_for_threshold(self):
        mat = np.array([[0.0], [2.0]])
        m = SimilarityMeasure(mat, weighting="uniform")
        assert m.radius_for_threshold(0.75) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            m.radius_for_threshold(1.5)

    def test_explicit_weights(self):
        mat = np.array([[0.0, 0.0], [1.0, 1.0]])
        m = SimilarityMeasure(mat, weighting=np.array([1.0, 0.0]))
        assert m.distance(mat[0], mat[1]) == pytest.approx(1.0)

    def test_bad_weighting(self):
        mat = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            SimilarityMeasure(mat, weighting="bogus")
        with pytest.raises(ValueError):
            SimilarityMeasure(mat, weighting=np.ones(3))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            SimilarityMeasure(np.zeros((0, 2)))


class TestSearchEngine:
    def test_knn_excludes_query_shape(self, engine):
        hits = engine.search_knn(1, "principal_moments", k=3)
        assert all(h.shape_id != 1 for h in hits)
        assert len(hits) == 3

    def test_knn_finds_group_members_first(self, engine):
        hits = engine.search_knn(1, "principal_moments", k=2)
        assert {h.shape_id for h in hits} == {2, 3}

    def test_knn_keeps_query_when_asked(self, engine):
        hits = engine.search_knn(1, "principal_moments", k=1, exclude_query=False)
        assert hits[0].shape_id == 1
        assert hits[0].similarity == pytest.approx(1.0)

    def test_query_by_mesh(self, engine):
        hits = engine.search_knn(box((2, 3, 4)), "principal_moments", k=2)
        assert {h.shape_id for h in hits} <= {1, 2, 3}

    def test_query_by_vector(self, engine, db):
        vec = db.get(4).feature("principal_moments")
        hits = engine.search_knn(vec, "principal_moments", k=1)
        assert hits[0].shape_id == 4

    def test_results_ranked_and_annotated(self, engine):
        hits = engine.search_knn(1, "principal_moments", k=3)
        assert [h.rank for h in hits] == [1, 2, 3]
        assert hits[0].distance <= hits[1].distance <= hits[2].distance
        assert hits[0].similarity >= hits[1].similarity
        assert hits[0].group == "boxes"

    def test_threshold_query(self, engine):
        strict = engine.search_threshold(1, "principal_moments", threshold=0.999)
        loose = engine.search_threshold(1, "principal_moments", threshold=0.0)
        assert len(strict) <= len(loose)
        assert len(loose) == 6  # everything except the query

    def test_rerank_orders_candidates(self, engine):
        reranked = engine.rerank([6, 4, 2], 1, "principal_moments")
        assert {r.shape_id for r in reranked} == {6, 4, 2}
        assert reranked[0].shape_id == 2  # the fellow box comes first

    def test_bad_query_vector_shape(self, engine):
        with pytest.raises(ValueError):
            engine.search_knn(np.zeros((2, 2)), "principal_moments")

    def test_mesh_query_without_pipeline(self, db):
        db.pipeline = None
        engine = SearchEngine(db)
        with pytest.raises(RuntimeError):
            engine.search_knn(box((1, 1, 1)), "principal_moments")

    def test_measure_cache_invalidation(self, engine, db):
        m1 = engine.measure("principal_moments")
        assert engine.measure("principal_moments") is m1
        # No explicit invalidation: the insert bumps the store generation.
        db.insert_mesh(box((8, 1, 1)), group="boxes")
        m2 = engine.measure("principal_moments")
        assert m2 is not m1
        fresh = SimilarityMeasure(db.feature_view("principal_moments").matrix)
        assert m2.d_max == fresh.d_max != m1.d_max
        assert engine.measure("principal_moments") is m2


class TestMultiStep:
    """The paper's multi-step strategy (Section 4.2), run as a cascade."""

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            CascadeStrategy.from_steps([])
        with pytest.raises(ValueError):
            CascadeStrategy.from_steps([("a", 10), ("b", 20)])  # increasing keep
        with pytest.raises(ValueError):
            CascadeStrategy.from_steps([("a", 10), ("b", 0)])

    def test_default_plan_is_papers(self, engine):
        stages = CascadeStrategy.paper().stages
        assert [(s.kind, s.feature_name, s.keep) for s in stages] == [
            ("scan", "moment_invariants", 30),
            ("rerank", "geometric_params", 10),
        ]
        results = run_cascade(engine, 1, CascadeStrategy.paper()).results
        assert len(results) <= 10

    def test_filter_subset_of_pool(self, engine):
        pool = engine.search_knn(1, "moment_invariants", k=5)
        plan = CascadeStrategy.from_steps(
            [("moment_invariants", 5), ("geometric_params", 3)]
        )
        filtered = run_cascade(engine, 1, plan).results
        assert {r.shape_id for r in filtered} <= {r.shape_id for r in pool}
        assert len(filtered) == 3

    def test_three_step_plan(self, engine):
        plan = CascadeStrategy.from_steps(
            [
                ("moment_invariants", 6),
                ("principal_moments", 4),
                ("geometric_params", 2),
            ]
        )
        assert len(run_cascade(engine, 1, plan).results) == 2

    def test_deterministic(self, engine):
        plan = CascadeStrategy.paper()
        a = [r.shape_id for r in run_cascade(engine, 1, plan).results]
        b = [r.shape_id for r in run_cascade(engine, 1, plan).results]
        assert a == b


class TestRelevanceFeedback:
    def test_rocchio_moves_toward_relevant(self):
        q = np.zeros(2)
        out = reconstruct_query(q, [np.array([2.0, 0.0])], alpha=1.0, beta=0.5)
        assert np.allclose(out, [2.0 / 3.0, 0.0])  # (0 + 0.5*2) / 1.5

    def test_rocchio_moves_away_from_irrelevant(self):
        q = np.zeros(2)
        out = reconstruct_query(
            q, [], [np.array([0.0, 2.0])], alpha=1.0, gamma=0.5
        )
        assert np.allclose(out, [0.0, -2.0])  # (0 - 0.5*2) / 0.5

    def test_reweight_tight_dimension_gets_more(self):
        rel = [np.array([1.0, 0.0]), np.array([1.0, 10.0]), np.array([1.0, -10.0])]
        w = reconfigure_weights(rel)
        assert w[0] > w[1]
        assert w.sum() == pytest.approx(2.0)

    def test_reweight_single_example_keeps_base(self):
        base = np.array([3.0, 4.0])
        w = reconfigure_weights([np.array([1.0, 1.0])], base_weights=base)
        assert np.allclose(w, base)

    def test_session_round_trip(self, engine):
        session = RelevanceFeedbackSession(engine, 1, "geometric_params", k=4)
        first = session.search()
        assert len(first) == 4
        relevant = [r.shape_id for r in first if r.group == "boxes"]
        irrelevant = [r.shape_id for r in first if r.group != "boxes"]
        session.feedback(relevant, irrelevant)
        assert session.rounds == 1
        second = session.search()
        assert len(second) == 4

    def test_session_feedback_improves_box_rank(self, engine):
        # Mark the two other boxes relevant; box ranks should not get worse.
        session = RelevanceFeedbackSession(engine, 1, "principal_moments", k=6)
        before = [r.shape_id for r in session.search()]
        session.feedback([2, 3], [6, 7])
        after = [r.shape_id for r in session.search()]
        rank_before = min(before.index(2), before.index(3))
        rank_after = min(after.index(2), after.index(3))
        assert rank_after <= rank_before
