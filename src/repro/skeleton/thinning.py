"""Topology-preserving 3D thinning (Section 3.3 of the paper).

Iteratively peels border voxels in six directional subiterations (U, D, N,
S, E, W), deleting only *simple* points that are not curve endpoints.
Deletions within a subiteration are applied sequentially with the
neighborhood re-examined before each removal, which is the standard safe
variant that guarantees topology preservation for (26, 6) connectivity.

:func:`thin` packs every voxel's 3x3x3 neighborhood into a 26-bit mask
in one NumPy pass — a shifted-array accumulation into a uint32 volume —
and keeps the packed volume current by clearing one bit in each of the
26 neighbor masks whenever a voxel is deleted.  The per-candidate work
drops to an array load plus a memoized simple-point lookup, which is
what makes ``build-db`` fast at higher resolutions.

``_thin_reference`` is the original per-voxel loop
(:func:`~repro.skeleton.simple_point.neighborhood_mask` per candidate),
kept as the correctness oracle: both re-check a candidate's mask against
the *current* occupancy before deleting, so their outputs are bitwise
identical (asserted by the test suite).

The result is a one-voxel-wide curve skeleton suitable for skeletal-graph
construction; like the thinning algorithm the paper uses, it preserves the
topology of the original model but is not perfectly invariant to rotation.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..obs import get_registry
from ..robust.errors import SkeletonizationError
from ..voxel.grid import VoxelGrid
from .simple_point import (
    NEIGHBOR_OFFSETS,
    count_object_neighbors,
    is_simple_mask,
    neighborhood_mask,
)

_DIRECTIONS: Tuple[Tuple[int, int, int], ...] = (
    (0, 0, 1),
    (0, 0, -1),
    (0, 1, 0),
    (0, -1, 0),
    (1, 0, 0),
    (-1, 0, 0),
)

_OFFSET_INDEX = {off: i for i, off in enumerate(NEIGHBOR_OFFSETS)}

#: Neighbor offsets as arrays, for fancy-indexed packed-mask updates.
_NBR_DX = np.array([off[0] for off in NEIGHBOR_OFFSETS], dtype=np.intp)
_NBR_DY = np.array([off[1] for off in NEIGHBOR_OFFSETS], dtype=np.intp)
_NBR_DZ = np.array([off[2] for off in NEIGHBOR_OFFSETS], dtype=np.intp)

#: For the neighbor at offset o, the deleted center sits at offset -o; this
#: is the AND-mask that clears the corresponding bit of that neighbor's
#: packed neighborhood.
_OPPOSITE_CLEAR = np.array(
    [
        ~np.uint32(1 << _OFFSET_INDEX[(-dx, -dy, -dz)])
        for (dx, dy, dz) in NEIGHBOR_OFFSETS
    ],
    dtype=np.uint32,
)


def _border_candidates(
    occ: np.ndarray, direction: Tuple[int, int, int]
) -> np.ndarray:
    """Voxels whose neighbor in ``direction`` is background."""
    shifted = np.zeros_like(occ)
    dx, dy, dz = direction
    src = [slice(None)] * 3
    dst = [slice(None)] * 3
    for axis, d in enumerate((dx, dy, dz)):
        if d == 1:
            src[axis] = slice(1, None)
            dst[axis] = slice(None, -1)
        elif d == -1:
            src[axis] = slice(None, -1)
            dst[axis] = slice(1, None)
    shifted[tuple(dst)] = occ[tuple(src)]
    return occ & ~shifted


def pack_volume(occ: np.ndarray) -> np.ndarray:
    """Packed 26-bit neighborhood masks for every voxel, in one pass.

    Returns a uint32 array padded by one voxel on every side (so a voxel
    at grid index (x, y, z) lives at (x+1, y+1, z+1)); the pad ring keeps
    neighbor updates branch-free at the grid boundary.  Bit *i* of a mask
    is the occupancy of the neighbor at ``NEIGHBOR_OFFSETS[i]``, matching
    :func:`~repro.skeleton.simple_point.neighborhood_mask` exactly.
    """
    nx, ny, nz = occ.shape
    padded = np.zeros((nx + 2, ny + 2, nz + 2), dtype=np.uint32)
    padded[1:-1, 1:-1, 1:-1] = occ
    packed = np.zeros_like(padded)
    interior = packed[1:-1, 1:-1, 1:-1]
    for i, (dx, dy, dz) in enumerate(NEIGHBOR_OFFSETS):
        interior |= (
            padded[1 + dx : nx + 1 + dx, 1 + dy : ny + 1 + dy, 1 + dz : nz + 1 + dz]
            << np.uint32(i)
        )
    return packed


def _thin_batched(
    occ: np.ndarray, preserve_endpoints: bool, max_iterations: int
) -> np.ndarray:
    packed = pack_volume(occ)
    flat = packed.ravel()
    # Flat-index strides of the padded volume, so each candidate costs one
    # integer index instead of a 3-tuple fancy index.
    sy = packed.shape[2]
    sx = packed.shape[1] * sy
    nbr_flat = (_NBR_DX * sx + _NBR_DY * sy + _NBR_DZ).astype(np.intp)
    base_off = sx + sy + 1  # grid (0, 0, 0) -> padded (1, 1, 1)
    simple = is_simple_mask
    for _ in range(max_iterations):
        deleted_this_sweep = 0
        for direction in _DIRECTIONS:
            candidates = np.argwhere(_border_candidates(occ, direction))
            flat_idx = (
                candidates[:, 0] * sx + candidates[:, 1] * sy + candidates[:, 2]
                + base_off
            ).tolist()
            # Candidates are distinct voxels and only visited voxels are
            # deleted, so — exactly as in the reference kernel — no
            # candidate can lose its occupancy before its own visit; the
            # packed mask alone carries the current neighborhood state.
            for pos, idx in zip(candidates.tolist(), flat_idx):
                mask = int(flat[idx])
                if preserve_endpoints and (mask & (mask - 1)) == 0:
                    continue  # <= 1 object neighbor: endpoint (or isolated)
                if simple(mask):
                    occ[pos[0], pos[1], pos[2]] = False
                    flat[idx + nbr_flat] &= _OPPOSITE_CLEAR
                    deleted_this_sweep += 1
        if not deleted_this_sweep:
            return occ
    raise SkeletonizationError(
        "thinning did not converge within max_iterations",
        code="skeleton.no_convergence",
    )


def _thin_reference(
    occ: np.ndarray, preserve_endpoints: bool, max_iterations: int
) -> np.ndarray:
    for _ in range(max_iterations):
        deleted_this_sweep = 0
        for direction in _DIRECTIONS:
            candidates = np.argwhere(_border_candidates(occ, direction))
            for x, y, z in candidates:
                if not occ[x, y, z]:
                    continue  # removed earlier in this subiteration
                mask = neighborhood_mask(occ, x, y, z)
                n_obj = count_object_neighbors(mask)
                if preserve_endpoints and n_obj <= 1:
                    continue
                if is_simple_mask(mask):
                    occ[x, y, z] = False
                    deleted_this_sweep += 1
        if not deleted_this_sweep:
            return occ
    raise SkeletonizationError(
        "thinning did not converge within max_iterations",
        code="skeleton.no_convergence",
    )


def thin(
    grid: VoxelGrid,
    preserve_endpoints: bool = True,
    max_iterations: int = 10_000,
) -> VoxelGrid:
    """Thin a solid voxel model to its curve skeleton.

    Parameters
    ----------
    preserve_endpoints:
        Keep voxels with at most one object neighbor (curve endpoints),
        producing a curve skeleton.  With False the object shrinks to a
        minimal topology-preserving set (a point per ball, a cycle per
        handle).
    max_iterations:
        Safety bound on full sweeps (each sweep = 6 subiterations).
    """
    metrics = get_registry()
    with metrics.timed("skeleton.thin"):
        occ = _thin_batched(grid.occupancy.copy(), preserve_endpoints, max_iterations)
    return VoxelGrid(occ, origin=grid.origin.copy(), spacing=grid.spacing)


def skeletonize(
    grid: VoxelGrid, preserve_endpoints: bool = True
) -> VoxelGrid:
    """Alias for :func:`thin` matching the paper's terminology."""
    return thin(grid, preserve_endpoints=preserve_endpoints)


def skeleton_points(grid: VoxelGrid) -> np.ndarray:
    """Skeleton voxel indices, shape (k, 3)."""
    return grid.occupied_indices()
