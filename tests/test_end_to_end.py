"""End-to-end walk of the paper's Fig. 2 query-processing flow.

One test class drives the whole system the way a user would: build a
library, submit a query shape that is NOT in the database, search under
every feature vector, refine with multi-step and feedback, browse, render
a result, persist, and reload — asserting consistency at each step.
"""

import numpy as np
import pytest

from repro import SystemConfig, ThreeDESS
from repro.datasets.families import FAMILIES
from repro.geometry import volume
from repro.search import CascadeStrategy, CombinedSimilarity, combined_search
from repro.search.api import SearchRequest
from repro.viewer import render_mesh


@pytest.fixture(scope="module")
def library():
    """A 30-shape library from six families, five members each."""
    rng = np.random.default_rng(77)
    system = ThreeDESS(SystemConfig(voxel_resolution=16))
    families = ["l_bracket", "stepped_shaft", "washer", "flange", "block", "tee_pipe"]
    for family in families:
        for k in range(5):
            system.insert(FAMILIES[family](rng), name=f"{family}_{k}", group=family)
    return system


@pytest.fixture(scope="module")
def query_mesh():
    """A fresh l_bracket never inserted into the library."""
    return FAMILIES["l_bracket"](np.random.default_rng(555))


class TestQueryFlow:
    def test_library_populated(self, library):
        assert len(library) == 30
        assert len(library.database.classification_map()) == 6

    @pytest.mark.parametrize(
        "feature",
        ["moment_invariants", "geometric_params", "principal_moments", "eigenvalues"],
    )
    def test_every_feature_vector_searchable(self, library, query_mesh, feature):
        hits = library.search(
            SearchRequest(query=query_mesh, mode="knn", feature_name=feature, k=5)
        ).hits
        assert len(hits) == 5
        assert all(0.0 <= h.similarity <= 1.0 for h in hits)

    def test_new_mesh_finds_its_family(self, library, query_mesh):
        hits = library.search(
            SearchRequest(
                query=query_mesh,
                mode="knn",
                feature_name="principal_moments",
                k=5,
            )
        ).hits
        bracket_hits = sum(1 for h in hits if h.group == "l_bracket")
        assert bracket_hits >= 3

    def test_multistep_refinement(self, library, query_mesh):
        hits = library.search(
            SearchRequest(
                query=query_mesh,
                mode="cascade",
                strategy=CascadeStrategy.from_steps(
                    (("moment_invariants", 15), ("geometric_params", 5))
                ),
            )
        ).hits
        assert len(hits) == 5
        bracket_hits = sum(1 for h in hits if h.group == "l_bracket")
        assert bracket_hits >= 3

    def test_combined_search_on_library(self, library, query_mesh):
        combo = CombinedSimilarity.uniform(
            ["principal_moments", "moment_invariants", "geometric_params"]
        )
        hits = combined_search(library.engine, query_mesh, combo, k=5)
        assert sum(1 for h in hits if h.group == "l_bracket") >= 3

    def test_threshold_flow(self, library, query_mesh):
        strict = library.search(
            SearchRequest(query=query_mesh, mode="threshold", threshold=0.999)
        ).hits
        loose = library.search(
            SearchRequest(query=query_mesh, mode="threshold", threshold=0.5)
        ).hits
        assert len(strict) <= len(loose)

    def test_feedback_round(self, library, query_mesh):
        session = library.feedback_session(
            query_mesh, feature_name="geometric_params", k=8
        )
        first = session.search()
        relevant = [h.shape_id for h in first if h.group == "l_bracket"]
        others = [h.shape_id for h in first if h.group != "l_bracket"]
        if relevant:
            session.feedback(relevant, others)
            second = session.search()
            hits_after = sum(1 for h in second if h.group == "l_bracket")
            assert hits_after >= len(relevant) - 1

    def test_browse_then_drill(self, library):
        root = library.browse_hierarchy("principal_moments")
        assert sorted(root.member_ids) == library.database.ids()
        if root.children:
            child = max(root.children, key=lambda n: n.size)
            assert set(child.member_ids) <= set(root.member_ids)

    def test_render_top_result(self, library, query_mesh):
        hit = library.search(
            SearchRequest(query=query_mesh, mode="knn", k=1)
        ).hits[0]
        mesh = library.database.get(hit.shape_id).mesh
        image = render_mesh(mesh, size=48)
        assert image.shape == (48, 48, 3)

    def test_explain_top_result(self, library, query_mesh):
        hit = library.search(
            SearchRequest(
                query=query_mesh,
                mode="knn",
                feature_name="geometric_params",
                k=1,
            )
        ).hits[0]
        rows = library.engine.explain(query_mesh, hit.shape_id, "geometric_params")
        assert sum(f for _, _, f in rows) == pytest.approx(1.0)

    def test_persist_reload_consistency(self, library, query_mesh, tmp_path):
        library.save(tmp_path / "lib")
        back = ThreeDESS.load(
            tmp_path / "lib", config=SystemConfig(voxel_resolution=16)
        )
        request = SearchRequest(query=query_mesh, mode="knn", k=5)
        a = [h.shape_id for h in library.search(request).hits]
        b = [h.shape_id for h in back.search(request).hits]
        assert a == b
        # Geometry survives: volumes agree.
        for shape_id in a[:2]:
            assert volume(back.database.get(shape_id).mesh) == pytest.approx(
                volume(library.database.get(shape_id).mesh)
            )
