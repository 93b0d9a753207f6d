"""Search tier: similarity, query engine, cascade, relevance feedback."""

from .api import (
    SEARCH_MODES,
    SearchHit,
    SearchRequest,
    SearchResponse,
    execute_search,
)
from .cascade import (
    CASCADE_STAGE_KINDS,
    PAPER_POOL_SIZE,
    PAPER_PRESENT,
    CascadeOutcome,
    CascadeStage,
    CascadeStrategy,
    StageReport,
    run_cascade,
)
from .combined import (
    CombinedFeedbackSession,
    CombinedSimilarity,
    combined_search,
    reconfigure_feature_weights,
)
from .engine import SearchEngine, SearchResult
from .feedback import (
    RelevanceFeedbackSession,
    reconfigure_weights,
    reconstruct_query,
)
from .similarity import (
    RANGE_WEIGHTS,
    UNIFORM_WEIGHTS,
    SimilarityMeasure,
    range_weights,
    weighted_distance,
    weighted_distances,
)

__all__ = [
    "SearchRequest",
    "SearchHit",
    "SearchResponse",
    "SEARCH_MODES",
    "execute_search",
    "CASCADE_STAGE_KINDS",
    "CascadeStage",
    "CascadeStrategy",
    "CascadeOutcome",
    "StageReport",
    "run_cascade",
    "SearchEngine",
    "CombinedSimilarity",
    "combined_search",
    "reconfigure_feature_weights",
    "CombinedFeedbackSession",
    "SearchResult",
    "SimilarityMeasure",
    "weighted_distance",
    "weighted_distances",
    "range_weights",
    "RANGE_WEIGHTS",
    "UNIFORM_WEIGHTS",
    "PAPER_POOL_SIZE",
    "PAPER_PRESENT",
    "reconstruct_query",
    "reconfigure_weights",
    "RelevanceFeedbackSession",
]
