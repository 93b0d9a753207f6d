"""Multidimensional indexing: R-tree, linear baseline."""

from .bruteforce import LinearScanIndex
from .rect import Rect, bounding_rect
from .rtree import DEFAULT_MAX_ENTRIES, RTree

__all__ = [
    "Rect",
    "bounding_rect",
    "RTree",
    "LinearScanIndex",
    "DEFAULT_MAX_ENTRIES",
]
