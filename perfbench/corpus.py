"""Inputs the benchmark makes for itself from ``--seed``.

Synthetic shapes carry the paper's four feature vectors at their real
dimensions.  Every vector lies uniformly in a core cube of side
``CORE_SIDE`` centred in the unit cube, except two shapes pinned to the
unit cube's opposite corners.  Those two fix every feature range to
exactly [0, 1], so the range weights are 1 and the largest distance in
a ``d``-dimensional space is ``sqrt(d)`` whatever the seed.

Queries come from the *inner* core: shapes whose ``principal_moments``
vector lies at least one threshold radius inside every core face.  A
threshold query then sees the same density all round, and returns
about ``HITS_TARGET`` hits on every seed, so its cost does not swing
with where the query happened to fall.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

#: The paper's four feature vectors and their dimensions.
FEATURE_DIMS: Dict[str, int] = {
    "eigenvalues": 10,
    "geometric_params": 5,
    "moment_invariants": 3,
    "principal_moments": 3,
}

#: Feature space of the synthetic workloads' queries (the API default).
QUERY_FEATURE = "principal_moments"

#: Similarity threshold of the threshold op (the API default).
THRESHOLD = 0.9

#: Share of the core a threshold query's ball covers; 0.09 gives about
#: 9,000 hits per query at 100k shapes.
HITS_SHARE = 0.09

#: Threshold radius in the unit-range space: (1 - t) * d_max.
RADIUS = (1.0 - THRESHOLD) * math.sqrt(FEATURE_DIMS[QUERY_FEATURE])

#: Side of the core cube: the radius ball holds ``HITS_SHARE`` of it.
CORE_SIDE = (4.0 / 3.0 * math.pi * RADIUS**3 / HITS_SHARE) ** (1.0 / 3.0)


def synthetic_vectors(n: int, seed: int) -> Dict[str, np.ndarray]:
    """``n`` rows per feature, float32, row ``i`` belonging to shape ``i``."""
    if n < 3:
        raise ValueError("need at least three shapes")
    rng = np.random.default_rng([seed, 1])
    low = (1.0 - CORE_SIDE) / 2.0
    out: Dict[str, np.ndarray] = {}
    for name, dim in FEATURE_DIMS.items():
        matrix = low + CORE_SIDE * rng.random((n, dim))
        matrix[0] = 0.0
        matrix[1] = 1.0
        out[name] = matrix.astype(np.float32)
    return out


def inner_rows(vectors: Dict[str, np.ndarray]) -> np.ndarray:
    """Rows whose query-feature vector lies a radius inside the core."""
    low = (1.0 - CORE_SIDE) / 2.0
    pm = vectors[QUERY_FEATURE].astype(np.float64)
    inside = np.all(
        (pm >= low + RADIUS) & (pm <= low + CORE_SIDE - RADIUS), axis=1
    )
    return np.flatnonzero(inside)


def round_queries(
    pool: np.ndarray, seed: int, stream: int, round_index: int, count: int
) -> List[int]:
    """The ``count`` query rows of one round, drawn without replacement."""
    rng = np.random.default_rng([seed, 2, stream, round_index])
    return [int(r) for r in rng.choice(pool, size=count, replace=False)]


def shape_names(n: int) -> List[str]:
    return [f"synthetic_{i:07d}" for i in range(n)]
