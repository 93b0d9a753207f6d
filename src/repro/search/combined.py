"""Combined multi-feature search (Sections 2.2 and 3.5.3 of the paper).

The paper's overall similarity can be a *linear combination of the
similarities under different feature vectors*, with per-feature weights
that relevance feedback reconfigures ("weight reconfiguration updates the
weights for each feature vector").  This module implements that layer:

* :class:`CombinedSimilarity` — s(q, x) = sum_f W_f * s_f(q, x) with
  feature weights W_f >= 0 summing to one;
* :func:`combined_search` — ranks the whole database under the combined
  similarity (a cross-index scan: each feature space contributes its
  normalized similarity);
* :func:`reconfigure_feature_weights` — re-estimates W_f from marked
  relevant/irrelevant shapes: features that separate the relevant from
  the irrelevant set get more weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .engine import Query, SearchEngine, SearchResult


@dataclass
class CombinedSimilarity:
    """Per-feature weights of the overall similarity."""

    weights: Dict[str, float]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("combined similarity needs at least one feature")
        if any(w < 0 for w in self.weights.values()):
            raise ValueError(f"feature weights must be >= 0, got {self.weights}")
        total = sum(self.weights.values())
        if total <= 0:
            raise ValueError("feature weights must not all be zero")
        self.weights = {k: w / total for k, w in self.weights.items()}

    @classmethod
    def uniform(cls, feature_names: Sequence[str]) -> "CombinedSimilarity":
        """Equal weight for every feature vector."""
        names = list(feature_names)
        return cls(weights={name: 1.0 for name in names})

    def feature_names(self) -> List[str]:
        return list(self.weights)


def combined_search(
    engine: SearchEngine,
    query: Query,
    combination: CombinedSimilarity,
    k: int = 10,
    exclude_query: bool = True,
) -> List[SearchResult]:
    """Rank the database by the weighted sum of per-feature similarities.

    Every stored shape is scored under each feature space with that
    space's normalized similarity (Eq. 4.4), then blended with the
    combination weights.  The per-feature similarity normalization is what
    makes the linear combination meaningful (all terms live in [0, 1]).

    Each feature's packed column is scored in one vectorized pass and
    accumulated per id in the combination's order, so every score is
    the same float arithmetic as a record-by-record loop; ties rank by
    ascending id.

    Degraded records (partial feature sets) stay searchable: a record is
    scored with the combination weights renormalized over the features it
    actually carries, instead of raising ``KeyError`` for the missing
    ones.  A record carrying none of the combination's features scores 0.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    db = engine.database
    exclude = (
        int(query) if isinstance(query, (int, np.integer)) and exclude_query else None
    )

    query_vectors = {
        name: engine.resolve_query_vector(query, name)
        for name in combination.feature_names()
    }
    ids = np.asarray(db.ids(), dtype=np.int64)
    total = np.zeros(len(ids))
    available = np.zeros(len(ids))
    for name, weight in combination.weights.items():
        try:
            view = db.feature_view(name)
        except KeyError:
            continue  # no stored shape carries this feature
        rows = np.searchsorted(ids, view.ids)
        sims = engine.measure(name).similarities(query_vectors[name], view.matrix)
        total[rows] += weight * sims
        available[rows] += weight
    scores = np.divide(
        total, available, out=np.zeros(len(ids)), where=available > 0
    )

    order = np.lexsort((ids, -scores))
    if exclude is not None:
        order = order[ids[order] != exclude]
    results = []
    for rank, row in enumerate(order[:k], start=1):
        shape_id = int(ids[row])
        sim = float(scores[row])
        record = db.get(shape_id)
        results.append(
            SearchResult(
                shape_id=shape_id,
                distance=1.0 - sim,
                similarity=sim,
                rank=rank,
                name=record.name,
                group=record.group,
            )
        )
    return results


def reconfigure_feature_weights(
    engine: SearchEngine,
    combination: CombinedSimilarity,
    query: Query,
    relevant_ids: Sequence[int],
    irrelevant_ids: Sequence[int] = (),
    floor: float = 0.05,
) -> CombinedSimilarity:
    """Re-weight feature vectors from relevance feedback.

    Each feature's new raw weight is the margin by which it rates the
    relevant shapes above the irrelevant ones (mean similarity difference,
    clipped at a small floor so no feature is eliminated outright — the
    user may flip their judgement next round).  Without irrelevant marks
    the mean relevant similarity itself is used.
    """
    if not relevant_ids:
        raise ValueError("weight reconfiguration needs at least one relevant mark")
    db = engine.database
    query_vectors = {
        name: engine.resolve_query_vector(query, name)
        for name in combination.feature_names()
    }
    raw: Dict[str, float] = {}
    for name in combination.feature_names():
        measure = engine.measure(name)
        rel = np.mean(
            [
                measure.similarity(query_vectors[name], db.get(i).feature(name))
                for i in relevant_ids
            ]
        )
        if irrelevant_ids:
            irr = np.mean(
                [
                    measure.similarity(query_vectors[name], db.get(i).feature(name))
                    for i in irrelevant_ids
                ]
            )
            raw[name] = max(float(rel - irr), floor)
        else:
            raw[name] = max(float(rel), floor)
    return CombinedSimilarity(weights=raw)


class CombinedFeedbackSession:
    """Relevance-feedback loop over the combined multi-feature similarity.

    This is the paper's second feedback mechanism: instead of moving the
    query vector, the *feature-vector weights* adapt to the user's
    marks.
    """

    def __init__(
        self,
        engine: SearchEngine,
        query: Query,
        feature_names: Optional[Sequence[str]] = None,
        k: int = 10,
    ) -> None:
        names = (
            list(feature_names)
            if feature_names is not None
            else engine.database.feature_names()
        )
        self.engine = engine
        self.query = query
        self.k = int(k)
        self.combination = CombinedSimilarity.uniform(names)
        self.rounds = 0

    def search(self) -> List[SearchResult]:
        """Retrieve under the current feature weights."""
        return combined_search(
            self.engine, self.query, self.combination, k=self.k
        )

    def feedback(
        self, relevant_ids: Sequence[int], irrelevant_ids: Sequence[int] = ()
    ) -> None:
        """Apply one round of marks: reconfigure the feature weights."""
        self.combination = reconfigure_feature_weights(
            self.engine,
            self.combination,
            self.query,
            relevant_ids,
            irrelevant_ids,
        )
        self.rounds += 1
