"""Answer checks made apart from the program.

Distances are recomputed in float64 from the benchmark's own copy of
the stored vectors, with range weights recomputed from that copy, so a
check never trusts a number the program computed.  Each checker returns
``None`` for a correct answer and a one-line reason otherwise.  Exact
ties may come back in any order, and any member of a tie at a cut-off
may be the one kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

#: Relative tolerance between a reported and a recomputed distance.  Both
#: sides compute in float64 from the same float32 rows; they differ only
#: in summation order.
REL_TOL = 1e-9

#: Above this many rows d_max is the weighted bounding-box diagonal, not
#: the exact largest pairwise distance.
EXACT_DMAX_ROWS = 4000


@dataclass(frozen=True)
class Answer:
    """One recorded search answer, compacted to arrays."""

    ids: np.ndarray
    distances: np.ndarray
    similarities: np.ndarray
    ranks: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_hits(cls, hits: Iterable) -> "Answer":
        """From ``SearchHit`` objects."""
        rows = [(h.shape_id, h.distance, h.similarity, h.rank) for h in hits]
        return cls._from_rows(rows)

    @classmethod
    def from_wire(cls, hits: Iterable[dict]) -> "Answer":
        """From the hit objects of a ``/search`` response body."""
        rows = [
            (h["shape_id"], h["distance"], h["similarity"], h["rank"])
            for h in hits
        ]
        return cls._from_rows(rows)

    @classmethod
    def _from_rows(cls, rows) -> "Answer":
        if not rows:
            empty = np.empty(0)
            return cls(empty.astype(np.int64), empty, empty, empty.astype(np.int64))
        ids, dists, sims, ranks = zip(*rows)
        return cls(
            np.asarray(ids, dtype=np.int64),
            np.asarray(dists, dtype=np.float64),
            np.asarray(sims, dtype=np.float64),
            np.asarray(ranks, dtype=np.int64),
        )


class Space:
    """One feature space as the checker sees it: float64 rows, their
    shape ids, range weights and the largest distance between rows."""

    def __init__(self, matrix: np.ndarray, ids: Iterable[int]) -> None:
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.ids = np.asarray(list(ids), dtype=np.int64)
        if self.matrix.ndim != 2 or len(self.matrix) != len(self.ids):
            raise ValueError("need one row per shape id")
        order = np.argsort(self.ids, kind="stable")
        self._sorted_ids = self.ids[order]
        self._sorted_pos = order
        spread = self.matrix.max(axis=0) - self.matrix.min(axis=0)
        self.weights = np.zeros(self.matrix.shape[1])
        wide = spread > 1e-12
        self.weights[wide] = 1.0 / spread[wide] ** 2
        self.d_max = self._largest_distance()

    def _largest_distance(self) -> float:
        scaled = self.matrix * np.sqrt(self.weights)
        if len(scaled) > EXACT_DMAX_ROWS:
            span = scaled.max(axis=0) - scaled.min(axis=0)
            best = float(np.sqrt(np.dot(span, span)))
        else:
            sq = np.einsum("ij,ij->i", scaled, scaled)
            best = 0.0
            for start in range(0, len(scaled), 512):
                block = scaled[start : start + 512]
                d2 = sq[start : start + 512, None] + sq[None, :] - 2.0 * block @ scaled.T
                best = max(best, float(np.sqrt(max(d2.max(), 0.0))))
        return best if best > 0 else 1.0

    def positions(self, shape_ids: np.ndarray) -> np.ndarray:
        """Row positions of shape ids; raises KeyError for unknown ids."""
        shape_ids = np.asarray(shape_ids, dtype=np.int64)
        at = np.searchsorted(self._sorted_ids, shape_ids)
        at = np.minimum(at, len(self._sorted_ids) - 1)
        if len(shape_ids) and not np.array_equal(self._sorted_ids[at], shape_ids):
            raise KeyError("answer names a shape the corpus does not hold")
        return self._sorted_pos[at]

    def distances(self, query: np.ndarray) -> np.ndarray:
        """Weighted Euclidean distance (Eq. 4.3) from ``query`` to every row."""
        diff = self.matrix - np.asarray(query, dtype=np.float64)
        return np.sqrt(np.einsum("ij,j,ij->i", diff, self.weights, diff))


def _tol(scale: float) -> float:
    return REL_TOL * max(1.0, abs(scale))


def _candidates(space: Space, query: np.ndarray, exclude: Optional[int]):
    """Recomputed distances and a mask of rows an answer may contain."""
    dist = space.distances(query)
    allowed = np.ones(len(dist), dtype=bool)
    if exclude is not None:
        allowed[space.ids == exclude] = False
    return dist, allowed


def _common(
    space: Space,
    answer: Answer,
    dist: np.ndarray,
    allowed: np.ndarray,
    exclude: Optional[int],
) -> Optional[str]:
    """The checks every answer shares: distinct known ids, ranks 1..n,
    distances equal to the recomputed ones in ascending order, and
    similarities equal to 1 - d/d_max."""
    n = len(answer)
    if exclude is not None and exclude in set(answer.ids.tolist()):
        return "the query shape is in its own answer"
    if len(np.unique(answer.ids)) != n:
        return "an id is returned twice"
    if not np.array_equal(answer.ranks, np.arange(1, n + 1)):
        return "ranks are not 1..n"
    try:
        pos = space.positions(answer.ids)
    except KeyError as exc:
        return str(exc)
    true = dist[pos]
    if not np.allclose(answer.distances, true, rtol=REL_TOL, atol=_tol(0.0)):
        worst = int(np.argmax(np.abs(answer.distances - true)))
        return (
            f"distance of rank {worst + 1} is {answer.distances[worst]!r}, "
            f"recomputed {true[worst]!r}"
        )
    if n > 1 and np.any(np.diff(true) < -_tol(true.max())):
        return "hits are not in ascending distance order"
    expected_sim = np.clip(1.0 - true / space.d_max, 0.0, 1.0)
    if not np.allclose(answer.similarities, expected_sim, rtol=0.0, atol=1e-9):
        return "a similarity is not 1 - d/d_max"
    return None


def _nearest_set_error(
    dist: np.ndarray, allowed: np.ndarray, pos: np.ndarray, k: int
) -> Optional[str]:
    """Whether the rows ``pos`` are the ``k`` nearest allowed rows, any
    member of a tie at the cut-off being acceptable."""
    pool = dist[allowed]
    kth = np.partition(pool, k - 1)[k - 1]
    got = dist[pos]
    if got.max() > kth + _tol(kth):
        return "a returned shape is farther than the k-th nearest"
    closer = np.flatnonzero(allowed & (dist < got.max() - _tol(got.max())))
    if not set(closer.tolist()) <= set(pos.tolist()):
        return "a nearer shape is missing from the answer"
    return None


def check_knn(
    space: Space,
    query: np.ndarray,
    answer: Answer,
    k: int,
    exclude: Optional[int] = None,
) -> Optional[str]:
    """The ids carry the ``k`` smallest recomputed distances."""
    dist, allowed = _candidates(space, query, exclude)
    want = min(k, int(allowed.sum()))
    if len(answer) != want:
        return f"{len(answer)} hits, expected {want}"
    reason = _common(space, answer, dist, allowed, exclude)
    if reason or want == 0:
        return reason
    return _nearest_set_error(dist, allowed, space.positions(answer.ids), want)


def check_threshold(
    space: Space,
    query: np.ndarray,
    answer: Answer,
    threshold: float,
    exclude: Optional[int] = None,
) -> Optional[str]:
    """The hits are a prefix of the recomputed ranking that holds every
    shape within the largest returned distance; each reaches the
    threshold and the next shape in the ranking falls below it."""
    dist, allowed = _candidates(space, query, exclude)
    reason = _common(space, answer, dist, allowed, exclude)
    if reason:
        return reason
    if np.any(answer.similarities < threshold - 1e-12):
        return "a hit is below the threshold"
    pos = space.positions(answer.ids)
    inside = np.zeros(len(dist), dtype=bool)
    inside[pos] = True
    if len(answer):
        far = dist[pos].max()
        closer = allowed & (dist < far - _tol(far)) & ~inside
        if closer.any():
            return f"{int(closer.sum())} shapes nearer than the last hit are missing"
    rest = dist[allowed & ~inside]
    if len(rest):
        nearest_rest = rest.min()
        if 1.0 - nearest_rest / space.d_max >= threshold + 1e-12:
            return "the next shape in the ranking still reaches the threshold"
    return None


def check_ranked(
    space: Space,
    query: np.ndarray,
    answer: Answer,
    k: int,
    exclude: Optional[int] = None,
) -> Optional[str]:
    """A cascade answer: ``k`` distinct shapes sorted by their recomputed
    exact distances (the pruning pass may legitimately miss neighbours)."""
    dist, allowed = _candidates(space, query, exclude)
    want = min(k, int(allowed.sum()))
    if len(answer) != want:
        return f"{len(answer)} hits, expected {want}"
    return _common(space, answer, dist, allowed, exclude)


def check_multistep(
    scan_space: Space,
    scan_query: np.ndarray,
    rank_space: Space,
    rank_query: np.ndarray,
    answer: Answer,
    pool: int,
    k: int,
) -> Optional[str]:
    """The ``k`` hits are the nearest under ``rank_space`` among the
    ``pool`` nearest under ``scan_space`` (the paper's multi-step plan).
    Both spaces must list the same shapes in the same row order."""
    if not np.array_equal(scan_space.ids, rank_space.ids):
        raise ValueError("scan and rank spaces must share their rows")
    scan, allowed = _candidates(scan_space, scan_query, None)
    rank, _ = _candidates(rank_space, rank_query, None)
    want = min(k, pool, len(scan))
    if len(answer) != want:
        return f"{len(answer)} hits, expected {want}"
    reason = _common(rank_space, answer, rank, allowed, None)
    if reason or want == 0:
        return reason
    cut = np.partition(scan, min(pool, len(scan)) - 1)[min(pool, len(scan)) - 1]
    certain = scan < cut - _tol(cut)
    eligible = scan <= cut + _tol(cut)
    pos = rank_space.positions(answer.ids)
    if not eligible[pos].all():
        return "a hit is outside the first-step pool"
    chosen = np.zeros(len(scan), dtype=bool)
    chosen[pos] = True
    worst = rank[pos].max()
    if np.any(certain & ~chosen & (rank < worst - _tol(worst))):
        return "a pool member nearer in the second step is missing"
    return None


def recall_at_k(
    space: Space,
    query: np.ndarray,
    answer: Answer,
    k: int,
    exclude: Optional[int] = None,
) -> float:
    """Share of the recomputed top ``k`` the answer holds (ties count)."""
    dist, allowed = _candidates(space, query, exclude)
    want = min(k, int(allowed.sum()))
    if want == 0:
        return 1.0
    kth = np.partition(dist[allowed], want - 1)[want - 1]
    try:
        pos = space.positions(answer.ids)
    except KeyError:
        return 0.0
    good = int(np.sum(allowed[pos] & (dist[pos] <= kth + _tol(kth))))
    return min(good, want) / want


def multistep_recall(
    scan_space: Space,
    scan_query: np.ndarray,
    rank_space: Space,
    rank_query: np.ndarray,
    answer: Answer,
    pool: int,
    k: int,
) -> float:
    """Share of the recomputed multi-step top ``k`` the answer holds."""
    scan = scan_space.distances(scan_query)
    kept = np.argsort(scan, kind="stable")[:pool]
    rank = rank_space.distances(rank_query)[kept]
    top = kept[np.argsort(rank, kind="stable")[:k]]
    expected = set(rank_space.ids[top].tolist())
    if not expected:
        return 1.0
    return len(expected & set(answer.ids.tolist())) / len(expected)
