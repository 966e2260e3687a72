"""Tile-based zero removing strategy (Sec. III-A, Table I).

The feature map is divided into tiles of a fixed configurable size; fully
sparse tiles are removed before any per-voxel processing, because the
submanifold convolution of an all-zero region is identically zero.  Only
the remaining *active tiles* are scanned by the SDMU, which is where the
strategy saves time: the number of sparse receptive fields judged drops
from the full grid volume to ``active_tiles * tile_volume``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.sparse.coo import SparseTensor3D
from repro.sparse.hashmap import pack_coords, unpack_coords

TileIndex = Tuple[int, int, int]


def _tile_keys(coords: np.ndarray, tile_shape: Tuple[int, int, int]) -> np.ndarray:
    """Packed key of the tile holding each site (``coords // tile_shape``).

    Key order is tile scan order: x-major, then y, then z.
    """
    tile_arr = np.asarray(tile_shape, dtype=np.int64)
    return pack_coords(np.asarray(coords, dtype=np.int64) // tile_arr)


def count_active_tiles(
    coords: np.ndarray, tile_shape: Tuple[int, int, int]
) -> int:
    """Number of tiles holding at least one site.

    Equals ``TileGrid(tensor, tile_shape).num_active_tiles`` for a tensor
    with these coordinates, without building the grid.
    """
    return int(np.unique(_tile_keys(coords, tile_shape)).size)


@dataclass(frozen=True)
class Tile:
    """One active tile of the feature map.

    Attributes
    ----------
    index:
        Tile grid index ``(tx, ty, tz)``.
    origin:
        Voxel coordinate of the tile's minimum corner.
    rows:
        Row indices (into the parent tensor) of the active sites inside
        this tile, in the parent's lexicographic order.
    """

    index: TileIndex
    origin: Tuple[int, int, int]
    rows: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.rows)


class TileGrid:
    """Partition of a sparse tensor into fixed-size tiles.

    Parameters
    ----------
    tensor:
        The feature map to partition.
    tile_shape:
        Tile extents ``(N, M, L)``; the paper sweeps cubic 4/8/12/16 and
        deploys ``8^3``.  Grid dimensions are rounded up, so shapes that
        do not divide evenly are supported (edge tiles are smaller).
    """

    def __init__(self, tensor: SparseTensor3D, tile_shape: Tuple[int, int, int]):
        if len(tile_shape) != 3 or any(int(t) <= 0 for t in tile_shape):
            raise ValueError(f"tile_shape must be 3 positive ints, got {tile_shape}")
        self.tensor = tensor
        self.tile_shape = (int(tile_shape[0]), int(tile_shape[1]), int(tile_shape[2]))
        self.grid_dims = tuple(
            -(-tensor.shape[axis] // self.tile_shape[axis]) for axis in range(3)
        )
        self._tiles: Dict[TileIndex, Tile] = {}
        if tensor.nnz:
            keys, inverse = np.unique(
                _tile_keys(tensor.coords, self.tile_shape), return_inverse=True
            )
            unique = unpack_coords(keys)
            order = np.argsort(inverse, kind="stable")
            boundaries = np.searchsorted(inverse[order], np.arange(len(unique)))
            boundaries = np.append(boundaries, len(inverse))
            for i, tile_index in enumerate(map(tuple, unique.tolist())):
                rows = np.sort(order[boundaries[i]:boundaries[i + 1]])
                origin = tuple(
                    int(tile_index[axis] * self.tile_shape[axis]) for axis in range(3)
                )
                self._tiles[tile_index] = Tile(
                    index=tile_index, origin=origin, rows=rows
                )

    @property
    def total_tiles(self) -> int:
        """Number of tiles covering the full grid ("All Tiles" in Table I)."""
        return int(np.prod(self.grid_dims))

    @property
    def active_tiles(self) -> List[Tile]:
        """Tiles containing at least one nonzero activation, in scan order."""
        return [self._tiles[key] for key in sorted(self._tiles)]

    @property
    def num_active_tiles(self) -> int:
        return len(self._tiles)

    def tile_at(self, index: TileIndex) -> Tile | None:
        return self._tiles.get(tuple(int(v) for v in index))

    def is_active(self, index: TileIndex) -> bool:
        return tuple(int(v) for v in index) in self._tiles

    def tile_volume(self) -> int:
        return self.tile_shape[0] * self.tile_shape[1] * self.tile_shape[2]

    def scanned_positions(self) -> int:
        """Voxel positions the SDMU must judge after zero removing."""
        return self.num_active_tiles * self.tile_volume()


@dataclass(frozen=True)
class ZeroRemovalResult:
    """Outcome of the zero removing strategy for one feature map."""

    tile_shape: Tuple[int, int, int]
    active_tiles: int
    total_tiles: int
    grid: TileGrid

    @property
    def removing_ratio(self) -> float:
        """Fraction of tiles removed — the "Removing Ratio" of Table I."""
        if self.total_tiles == 0:
            return 0.0
        return 1.0 - self.active_tiles / self.total_tiles

    @property
    def scanned_positions(self) -> int:
        return self.grid.scanned_positions()

    @property
    def scan_reduction(self) -> float:
        """Ratio of full-grid positions to positions actually scanned."""
        scanned = self.scanned_positions
        if scanned == 0:
            return float("inf")
        return self.grid.tensor.volume / scanned


class ZeroRemover:
    """Applies the tile-based zero removing strategy."""

    def __init__(self, tile_shape: Tuple[int, int, int] = (8, 8, 8)) -> None:
        self.tile_shape = tile_shape

    def remove(self, tensor: SparseTensor3D) -> ZeroRemovalResult:
        """Partition ``tensor`` and drop fully sparse tiles.

        Removal is lossless by construction: every nonzero site lies in an
        active tile, so the concatenation of active-tile sites equals the
        original site set (asserted by the test suite, and guaranteed by
        the submanifold property for the convolution output as well).
        """
        grid = TileGrid(tensor, self.tile_shape)
        return ZeroRemovalResult(
            tile_shape=grid.tile_shape,
            active_tiles=grid.num_active_tiles,
            total_tiles=grid.total_tiles,
            grid=grid,
        )

    def sweep(
        self, tensor: SparseTensor3D, tile_sizes: Tuple[int, ...] = (4, 8, 12, 16)
    ) -> List[ZeroRemovalResult]:
        """Run the Table I sweep over cubic tile sizes."""
        return [self.remove_cubic(tensor, size) for size in tile_sizes]

    def remove_cubic(self, tensor: SparseTensor3D, size: int) -> ZeroRemovalResult:
        return ZeroRemover((size, size, size)).remove(tensor)
