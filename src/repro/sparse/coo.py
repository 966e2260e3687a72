"""COO sparse 3D tensor with multi-channel features.

:class:`SparseTensor3D` is the common currency of the repository: the
voxelizer produces one, the sparse-NN reference transforms them, and the
accelerator encoder consumes them.  Coordinates are unique ``(x, y, z)``
integer triples inside a bounded ``shape``; each coordinate carries a
``(C,)`` feature vector.

Coordinates are canonicalized by their packed ``int64`` key
(:func:`repro.sparse.hashmap.pack_coords`): sorting, deduplication and
duplicate detection all run on one integer per site instead of on rows.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Tuple

import numpy as np

from repro.sparse.hashmap import pack_coords, unpack_coords

Coord = Tuple[int, int, int]


def _checked_shape(coords: np.ndarray, shape) -> Tuple[int, int, int]:
    """Validate ``(N, 3)`` coords against ``shape``; return the int shape."""
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError(f"coords must be (N, 3), got {coords.shape}")
    if len(shape) != 3 or any(int(s) <= 0 for s in shape):
        raise ValueError(f"shape must be three positive extents, got {shape}")
    shape = (int(shape[0]), int(shape[1]), int(shape[2]))
    if coords.size:
        if coords.min() < 0:
            raise ValueError("coordinates must be non-negative")
        if (coords >= np.asarray(shape, dtype=np.int64)).any():
            raise ValueError("coordinates out of bounds for shape")
    return shape


class SparseTensor3D:
    """A sparse rank-3 tensor with ``C`` feature channels per active site.

    Parameters
    ----------
    coords:
        ``(N, 3)`` integer array of active-site coordinates.  Duplicates
        are rejected; use :meth:`from_points` to aggregate duplicates.
    features:
        ``(N, C)`` feature array (a 1D array is promoted to one channel).
    shape:
        Bounds ``(X, Y, Z)``; every coordinate must satisfy
        ``0 <= coord < shape`` per axis.

    Rows are stored in ascending packed-key order
    (:func:`repro.sparse.hashmap.pack_coords`, x most significant), which
    is lexicographic ``(x, y, z)`` order.  Packing gives each axis 21
    bits, so coordinates are limited to ``[0, 2**21)`` per axis — the
    limit rulebook matching has always had.
    """

    def __init__(
        self,
        coords: np.ndarray,
        features: np.ndarray,
        shape: Tuple[int, int, int],
    ) -> None:
        coords = np.asarray(coords, dtype=np.int64)
        if coords.size == 0:
            coords = coords.reshape(0, 3)
        shape = _checked_shape(coords, shape)
        features = np.asarray(features)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        if features.size == 0:
            features = features.reshape(0, features.shape[1] if features.ndim == 2 else 1)
        if features.ndim != 2:
            raise ValueError(f"features must be (N, C), got {features.shape}")
        if len(features) != len(coords):
            raise ValueError(
                f"coords ({len(coords)}) and features ({len(features)}) disagree"
            )

        keys = pack_coords(coords)
        order = np.argsort(keys, kind="stable")
        self.coords = np.ascontiguousarray(coords[order])
        self.features = np.ascontiguousarray(features[order])
        self.shape = shape

        # Keys are sorted, so duplicates are adjacent — detected
        # vectorized here; the per-coordinate lookup dict is built lazily
        # (constructing one per tensor made with_features a hot-path cost).
        keys = keys[order]
        repeated = keys[1:] == keys[:-1]
        if repeated.any():
            row = int(np.argmax(repeated)) + 1
            key = tuple(int(v) for v in self.coords[row])
            raise ValueError(f"duplicate coordinate {key}")
        self._index: Optional[Dict[Coord, int]] = None
        self._coords_digest: Optional[bytes] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of active (nonzero) sites."""
        return len(self.coords)

    @property
    def num_channels(self) -> int:
        return int(self.features.shape[1])

    @property
    def volume(self) -> int:
        return self.shape[0] * self.shape[1] * self.shape[2]

    @property
    def sparsity(self) -> float:
        """Fraction of *zero* sites, as quoted by the paper (~99.9 %)."""
        if self.volume == 0:
            return 0.0
        return 1.0 - self.nnz / self.volume

    def coords_digest(self) -> bytes:
        """Stable 16-byte digest of the active-site set.

        Coordinates are stored canonically (lexicographically sorted,
        contiguous ``int64``), so two tensors share a digest exactly when
        they share an active-site set.  :class:`repro.nn.rulebook.RulebookCache`
        uses this as its cache key; the tensor is treated as immutable
        (every transformation constructs a new instance), so the digest is
        computed once and memoized.
        """
        if self._coords_digest is None:
            self._coords_digest = hashlib.blake2b(
                self.coords.tobytes(), digest_size=16
            ).digest()
        return self._coords_digest

    @property
    def _coord_index(self) -> Dict[Coord, int]:
        """Lazily built coordinate -> row lookup table."""
        if self._index is None:
            self._index = {
                (x, y, z): row
                for row, (x, y, z) in enumerate(self.coords.tolist())
            }
        return self._index

    def row_of(self, coord: Coord) -> Optional[int]:
        """Row index of ``coord`` or ``None`` when the site is inactive."""
        return self._coord_index.get((int(coord[0]), int(coord[1]), int(coord[2])))

    def __contains__(self, coord: Coord) -> bool:
        return self.row_of(coord) is not None

    def feature_at(self, coord: Coord) -> Optional[np.ndarray]:
        """Feature vector at ``coord`` or ``None`` when inactive."""
        row = self.row_of(coord)
        if row is None:
            return None
        return self.features[row]

    def __repr__(self) -> str:
        return (
            f"SparseTensor3D(nnz={self.nnz}, channels={self.num_channels}, "
            f"shape={self.shape}, sparsity={self.sparsity:.4%})"
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_points(
        cls,
        coords: np.ndarray,
        features: Optional[np.ndarray],
        shape: Tuple[int, int, int],
        reduce: str = "mean",
    ) -> "SparseTensor3D":
        """Build a tensor from possibly-duplicated integer points.

        Duplicate coordinates are aggregated with ``reduce`` (``"mean"``,
        ``"sum"`` or ``"max"``).  ``features=None`` assigns a single
        occupancy channel of ones.
        """
        if reduce not in ("mean", "sum", "max"):
            raise ValueError(f"unknown reduce {reduce!r}")
        coords = np.asarray(coords, dtype=np.int64)
        if coords.size == 0:
            empty = np.zeros((0, 1 if features is None else np.asarray(features).shape[-1]))
            return cls(coords.reshape(0, 3), empty, shape)
        if features is None:
            features = np.ones((len(coords), 1), dtype=np.float64)
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        if len(features) != len(coords):
            raise ValueError(
                f"coords ({len(coords)}) and features ({len(features)}) disagree"
            )
        # Bounds are checked before packing so out-of-range input gets
        # the constructor's messages, not the packer's.
        _checked_shape(coords, shape)

        unique_keys, inverse = np.unique(pack_coords(coords), return_inverse=True)
        unique = unpack_coords(unique_keys)
        channels = features.shape[1]
        accum = np.zeros((len(unique), channels), dtype=np.float64)
        if reduce == "max":
            accum.fill(-np.inf)
            np.maximum.at(accum, inverse, features)
        else:
            np.add.at(accum, inverse, features)
            if reduce == "mean":
                counts = np.bincount(inverse, minlength=len(unique)).astype(np.float64)
                accum /= counts[:, None]
        return cls(unique, accum, shape)

    @classmethod
    def empty(cls, shape: Tuple[int, int, int], channels: int = 1) -> "SparseTensor3D":
        """An all-zero tensor with no active sites."""
        return cls(
            np.zeros((0, 3), dtype=np.int64),
            np.zeros((0, channels), dtype=np.float64),
            shape,
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_features(self, features: np.ndarray) -> "SparseTensor3D":
        """Same active sites, new features (row-aligned with ``self.coords``).

        This is the layer-output hot path (every convolution, ReLU and
        batch norm rewraps features), so it bypasses the constructor:
        the coordinates are already canonically sorted and
        duplicate-free, and tensors are immutable by convention, so the
        coordinate array, the memoized digest, and the lazy coordinate
        index are shared with the source tensor — rulebook-cache lookups
        on layer outputs stay hash-free and no re-sorting happens.  The
        feature array is copied, preserving the constructor's ownership
        semantics: the new tensor never aliases the caller's buffer (or
        a batch-output stack), so later mutation of the input cannot
        corrupt it.
        """
        features = np.asarray(features)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        if features.ndim != 2 or len(features) != self.nnz:
            raise ValueError(
                f"features must be ({self.nnz}, C), got {features.shape}"
            )
        out = SparseTensor3D.__new__(SparseTensor3D)
        out.coords = self.coords
        out.features = np.array(features, order="C", copy=True)
        out.shape = self.shape
        out._index = self._index
        out._coords_digest = self._coords_digest
        return out

    def map_features(self, fn) -> "SparseTensor3D":
        """Apply ``fn`` to the feature matrix and rewrap."""
        return self.with_features(fn(self.features))

    def occupancy(self) -> "SparseTensor3D":
        """Tensor with the same sites and a single all-ones channel."""
        return self.with_features(np.ones((self.nnz, 1), dtype=np.float64))

    def dense(self) -> np.ndarray:
        """Materialize as a dense ``(X, Y, Z, C)`` array."""
        out = np.zeros(self.shape + (self.num_channels,), dtype=self.features.dtype)
        if self.nnz:
            out[self.coords[:, 0], self.coords[:, 1], self.coords[:, 2]] = self.features
        return out

    def crop(self, lo: Coord, hi: Coord) -> "SparseTensor3D":
        """Sites with ``lo <= coord < hi``, re-based to origin ``lo``."""
        lo_arr = np.asarray(lo, dtype=np.int64)
        hi_arr = np.asarray(hi, dtype=np.int64)
        if (hi_arr <= lo_arr).any():
            raise ValueError("crop bounds must satisfy lo < hi per axis")
        keep = np.all((self.coords >= lo_arr) & (self.coords < hi_arr), axis=1)
        new_shape = tuple(int(v) for v in (hi_arr - lo_arr))
        return SparseTensor3D(
            self.coords[keep] - lo_arr, self.features[keep], new_shape
        )

    def translate(self, offset: Coord, shape: Optional[Tuple[int, int, int]] = None) -> "SparseTensor3D":
        """Shift every site by ``offset`` (new shape defaults to current)."""
        moved = self.coords + np.asarray(offset, dtype=np.int64)
        return SparseTensor3D(moved, self.features.copy(), shape or self.shape)
