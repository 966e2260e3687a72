"""Rulebook construction — the reference "matching operation".

A *rulebook* lists, for every kernel offset, the (input row, output row)
pairs that participate in the sparse convolution.  For the submanifold
convolution this is exactly the paper's matching operation (Sec. III-B/C):
each nonzero activation is located and its nonzero neighbors are searched;
each pair corresponds to one *match* ``(A_a, W_b)_c`` in Fig. 5.

Construction is vectorized over the sorted packed coordinate keys, which
doubles as a correctness oracle for the hardware SDMU model.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Tuple

import numpy as np

from repro.sparse.coo import SparseTensor3D
from repro.sparse.hashmap import pack_coords, unpack_coords


def kernel_offsets(kernel_size: int, center: bool = True) -> np.ndarray:
    """All ``(K^3, 3)`` integer offsets of a cubic kernel.

    With ``center=True`` the offsets span ``[-K//2, K//2]`` per axis (odd
    ``K``), the convention of submanifold convolution; otherwise they span
    ``[0, K)`` as used by strided sparse convolution.
    """
    if kernel_size <= 0:
        raise ValueError(f"kernel_size must be positive, got {kernel_size}")
    if center and kernel_size % 2 == 0:
        raise ValueError("centered kernels require odd kernel_size")
    base = np.arange(kernel_size)
    if center:
        base = base - kernel_size // 2
    grid = np.stack(np.meshgrid(base, base, base, indexing="ij"), axis=-1)
    return grid.reshape(-1, 3)


@dataclass(frozen=True)
class GatherScatterPlan:
    """Feature-independent execution plan of a rulebook.

    Precomputes everything the fused gather-GEMM-scatter evaluation in
    :func:`repro.nn.functional.apply_rulebook` needs beyond the features
    and weights: the concatenated (offset-major) input rows for one big
    gather, per-offset segment boundaries into that concatenation, and
    contiguous per-offset output-row arrays for the scatter.  Because the
    plan depends only on the matching result it is built once per rulebook
    and amortized across every layer (and frame) that reuses the rulebook.

    A key structural invariant makes the fast scatter possible: within one
    kernel offset every output row appears *at most once* (an output site
    has at most one neighbor per offset), so ``out[rows] += contribution``
    is well-defined without :func:`np.add.at` buffering.
    """

    in_rows: np.ndarray
    segment_starts: np.ndarray
    out_rows: List[np.ndarray]
    active_offsets: List[int]
    total_matches: int


@dataclass
class Rulebook:
    """Matching result of one sparse convolution.

    Attributes
    ----------
    kernel_size:
        Cubic kernel side length ``K``.
    offsets:
        ``(K^3, 3)`` kernel offsets, in the same order as ``rules``.
    rules:
        One ``(n_k, 2)`` int array per offset: columns are
        ``(input_row, output_row)``.
    num_inputs / num_outputs:
        Row counts of the input/output tensors.
    """

    kernel_size: int
    offsets: np.ndarray
    rules: List[np.ndarray]
    num_inputs: int
    num_outputs: int
    _plan: Optional[GatherScatterPlan] = field(
        default=None, repr=False, compare=False
    )
    _transposed: Optional["Rulebook"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def total_matches(self) -> int:
        """Total number of (activation, weight) matches — the effective work."""
        return int(sum(len(rule) for rule in self.rules))

    def matches_per_output(self) -> np.ndarray:
        """Histogram: number of matches landing on each output row.

        Vectorized as a single :func:`np.bincount` over the concatenated
        output rows of every offset (each offset's rows are unique, but
        rows repeat *across* offsets — bincount handles both).
        """
        per_offset = [rule[:, 1] for rule in self.rules if len(rule)]
        if not per_offset:
            return np.zeros(self.num_outputs, dtype=np.int64)
        return np.bincount(
            np.concatenate(per_offset), minlength=self.num_outputs
        ).astype(np.int64)

    def plan(self) -> GatherScatterPlan:
        """The memoized :class:`GatherScatterPlan` for this rulebook."""
        if self._plan is None:
            sizes = [len(rule) for rule in self.rules]
            total = int(sum(sizes))
            segment_starts = np.zeros(len(self.rules) + 1, dtype=np.int64)
            np.cumsum(sizes, out=segment_starts[1:])
            if total:
                in_rows = np.concatenate(
                    [rule[:, 0] for rule in self.rules if len(rule)]
                )
            else:
                in_rows = np.zeros(0, dtype=np.int64)
            out_rows = [np.ascontiguousarray(rule[:, 1]) for rule in self.rules]
            active = [k for k, size in enumerate(sizes) if size]
            self._plan = GatherScatterPlan(
                in_rows=in_rows,
                segment_starts=segment_starts,
                out_rows=out_rows,
                active_offsets=active,
                total_matches=total,
            )
        return self._plan

    def transposed(self) -> "Rulebook":
        """The rulebook with input and output roles swapped (memoized).

        Evaluating the transposed rulebook is exactly the transposed
        strided convolution: forward rule ``p -> q`` under offset ``d``
        becomes ``q -> p``.  The ``offsets`` array is kept as the forward
        offsets (it indexes the shared weight tensor), only the row roles
        swap.  Output-row uniqueness per offset is preserved, because each
        forward input row appears at most once per offset.
        """
        if self._transposed is None:
            self._transposed = Rulebook(
                kernel_size=self.kernel_size,
                offsets=self.offsets,
                rules=[
                    np.ascontiguousarray(rule[:, ::-1]) for rule in self.rules
                ],
                num_inputs=self.num_outputs,
                num_outputs=self.num_inputs,
            )
        return self._transposed

    def effective_macs(self, in_channels: int, out_channels: int) -> int:
        """Number of scalar multiply-accumulates implied by the rulebook."""
        return self.total_matches * int(in_channels) * int(out_channels)

    def effective_ops(self, in_channels: int, out_channels: int) -> int:
        """Effective operation count (2 ops per MAC), as reported in GOPS."""
        return 2 * self.effective_macs(in_channels, out_channels)


def lookup_rows(sorted_keys: np.ndarray, query_keys: np.ndarray) -> np.ndarray:
    """Row index of each query key in ``sorted_keys`` or -1 when absent.

    ``sorted_keys`` must be ascending and duplicate-free (the packed-key
    order of a canonical coordinate array).  Shared by the rulebook
    builders here and the delta engine (:mod:`repro.engine.delta`) —
    one implementation of the sorted-membership probe, not three.
    """
    idx = np.searchsorted(sorted_keys, query_keys)
    idx = np.clip(idx, 0, len(sorted_keys) - 1) if len(sorted_keys) else idx
    if len(sorted_keys) == 0:
        return np.full(len(query_keys), -1, dtype=np.int64)
    found = sorted_keys[idx] == query_keys
    return np.where(found, idx, -1)


def build_submanifold_rulebook(
    tensor: SparseTensor3D, kernel_size: int = 3
) -> Rulebook:
    """Matching operation for a submanifold convolution.

    The output sites equal the input sites.  For output site ``p`` and
    centered offset ``d``, an input contribution exists when ``p + d`` is
    active: ``out[p] += W[d] @ in[p + d]``.
    """
    offsets = kernel_offsets(kernel_size, center=True)
    coords = tensor.coords
    # SparseTensor3D stores coords lexicographically sorted, so the packed
    # keys are ascending and searchsorted applies directly.
    keys = pack_coords(coords) if len(coords) else np.zeros(0, dtype=np.int64)
    shape = np.asarray(tensor.shape, dtype=np.int64)
    rules: List[np.ndarray] = []
    out_rows_all = np.arange(len(coords), dtype=np.int64)
    # per-offset loop (K^3 iterations) building the rulebook's rule list;
    # each iteration is vectorized over all points
    for offset in offsets:  # repro-lint: disable=hot-path
        neighbor = coords + offset[None, :]
        in_bounds = np.all((neighbor >= 0) & (neighbor < shape[None, :]), axis=1)
        rows = np.full(len(coords), -1, dtype=np.int64)
        if in_bounds.any():
            rows[in_bounds] = lookup_rows(keys, pack_coords(neighbor[in_bounds]))
        valid = rows >= 0
        rules.append(
            np.stack([rows[valid], out_rows_all[valid]], axis=1).astype(np.int64)
        )
    return Rulebook(
        kernel_size=kernel_size,
        offsets=offsets,
        rules=rules,
        num_inputs=len(coords),
        num_outputs=len(coords),
    )


def downsampled_coords(
    coords: np.ndarray, kernel_size: int, stride: int
) -> np.ndarray:
    """Output coordinates of a strided sparse convolution (sorted, unique).

    An output site ``q`` exists when any input ``p`` satisfies
    ``q * stride <= p < q * stride + K`` per axis.  With the usual
    ``K == stride`` downsampling this is just ``unique(p // stride)``.
    """
    if kernel_size == stride:
        return unpack_coords(np.unique(pack_coords(coords // stride)))
    if not len(coords):
        return np.zeros((0, 3), dtype=np.int64)
    # An input p activates q = p // stride - s per axis for the shifts s
    # with s * stride < K, i.e. s < ceil(K / stride): one vectorized pass
    # over all points per shift instead of a Python loop per point.
    base = coords // stride
    reach = -(-kernel_size // stride)
    cells = []
    # per-shift loop (<= reach^3 iterations), not per-element
    for shift in np.ndindex(reach, reach, reach):  # repro-lint: disable=hot-path
        q = base - np.asarray(shift, dtype=np.int64)[None, :]
        valid = np.all(q >= 0, axis=1) & np.all(
            q * stride + kernel_size > coords, axis=1
        )
        if valid.any():
            cells.append(q[valid])
    if not cells:
        return np.zeros((0, 3), dtype=np.int64)
    keys = pack_coords(np.concatenate(cells, axis=0))
    return unpack_coords(np.unique(keys))


def build_sparse_conv_rulebook(
    tensor: SparseTensor3D, kernel_size: int = 2, stride: int = 2
) -> Tuple[Rulebook, np.ndarray]:
    """Matching for a strided (non-submanifold) sparse convolution.

    Returns the rulebook and the output coordinates.  Offsets are
    corner-based (``[0, K)``): input ``p`` contributes to output ``q``
    under offset ``d`` when ``p == q * stride + d``.
    """
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    coords = tensor.coords
    out_coords = downsampled_coords(coords, kernel_size, stride)
    out_keys = (
        pack_coords(out_coords) if len(out_coords) else np.zeros(0, dtype=np.int64)
    )
    offsets = kernel_offsets(kernel_size, center=False)
    rules: List[np.ndarray] = []
    in_rows_all = np.arange(len(coords), dtype=np.int64)
    # per-offset loop (K^3 iterations) building the rulebook's rule list;
    # each iteration is vectorized over all points
    for offset in offsets:  # repro-lint: disable=hot-path
        shifted = coords - offset[None, :]
        aligned = np.all(shifted % stride == 0, axis=1) & np.all(shifted >= 0, axis=1)
        q = shifted[aligned] // stride
        rows = lookup_rows(out_keys, pack_coords(q)) if len(q) else np.zeros(0, np.int64)
        valid = rows >= 0
        rules.append(
            np.stack(
                [in_rows_all[aligned][valid], rows[valid]], axis=1
            ).astype(np.int64)
        )
    rulebook = Rulebook(
        kernel_size=kernel_size,
        offsets=offsets,
        rules=rules,
        num_inputs=len(coords),
        num_outputs=len(out_coords),
    )
    return rulebook, out_coords


def get_submanifold_rulebook(
    tensor: SparseTensor3D,
    kernel_size: int = 3,
    cache: Optional["RulebookCache"] = None,
) -> Rulebook:
    """Cache-or-build dispatch for submanifold matching.

    The single place that encodes "a ``None`` cache means build fresh" —
    every consumer (functional convs, the analytical model) goes through
    here so future lookup-semantics changes happen once.
    """
    if cache is not None:
        return cache.submanifold(tensor, kernel_size)
    return build_submanifold_rulebook(tensor, kernel_size)


def get_sparse_conv_rulebook(
    tensor: SparseTensor3D,
    kernel_size: int = 2,
    stride: int = 2,
    cache: Optional["RulebookCache"] = None,
) -> Tuple[Rulebook, np.ndarray]:
    """Cache-or-build dispatch for strided (and transposed) matching."""
    if cache is not None:
        return cache.sparse_conv(tensor, kernel_size, stride)
    return build_sparse_conv_rulebook(tensor, kernel_size, stride)


class RulebookCache:
    """LRU cache of rulebooks keyed on the packed coordinate set.

    The matching operation depends only on the active-site set, the grid
    shape, and the kernel geometry — not on features or weights.  Inside a
    submanifold network every layer at the same U-Net scale therefore
    shares one matching pass, and in a streaming deployment consecutive
    frames with unchanged voxel sets skip matching entirely.

    Keying / invalidation rule
    --------------------------
    The key is ``(kind, kernel_size, stride, grid shape,
    coords_digest)`` where ``coords_digest`` is the BLAKE2b digest of the
    canonically sorted coordinate array
    (:meth:`repro.sparse.coo.SparseTensor3D.coords_digest`).  Tensors are
    immutable by convention (every transformation builds a new instance),
    so there is no explicit invalidation: any operation that changes the
    site set produces a different digest and misses, while site-preserving
    operations (ReLU, folded batch norm, feature replacement) keep the
    digest and hit.

    Entries are evicted least-recently-used beyond ``capacity``.  ``hits``
    and ``misses`` count lookups since construction (or the last
    :meth:`reset_stats`).
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        """Drop every cached rulebook (statistics are kept)."""
        self._entries.clear()

    # ------------------------------------------------------------------
    # Key construction (shared with plan re-seeding)
    # ------------------------------------------------------------------
    @staticmethod
    def submanifold_key(tensor: SparseTensor3D, kernel_size: int) -> Hashable:
        """Cache key of a submanifold matching on ``tensor``."""
        return ("sub", int(kernel_size), tensor.shape, tensor.coords_digest())

    @staticmethod
    def sparse_conv_key(
        tensor: SparseTensor3D, kernel_size: int, stride: int
    ) -> Hashable:
        """Cache key of a strided (and transposed) matching on ``tensor``."""
        return (
            "down",
            int(kernel_size),
            int(stride),
            tensor.shape,
            tensor.coords_digest(),
        )

    def _insert(self, key: Hashable, entry: object) -> None:
        """Insert ``entry`` as most-recently-used, evicting beyond capacity."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def ensure(self, key: Hashable, entry: object) -> None:
        """Insert ``entry`` under ``key`` without counting a lookup.

        Used by :class:`repro.engine.session.PlanCache` to re-seed
        rulebooks held by a cached network plan, so a warm session stays
        all-hits even after intervening LRU pressure evicted entries.
        """
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._insert(key, entry)

    def _lookup(self, key: Hashable, builder):
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        entry = builder()
        self._insert(key, entry)
        return entry

    def submanifold(
        self, tensor: SparseTensor3D, kernel_size: int = 3
    ) -> Rulebook:
        """Cached :func:`build_submanifold_rulebook`."""
        key = self.submanifold_key(tensor, kernel_size)
        return self._lookup(
            key, lambda: build_submanifold_rulebook(tensor, kernel_size)
        )

    def sparse_conv(
        self, tensor: SparseTensor3D, kernel_size: int = 2, stride: int = 2
    ) -> Tuple[Rulebook, np.ndarray]:
        """Cached :func:`build_sparse_conv_rulebook`.

        The entry is shared between the downsampling convolution and the
        transposed convolution that reverses it (which calls this with the
        *reference* tensor), so one matching pass serves both directions.
        """
        key = self.sparse_conv_key(tensor, kernel_size, stride)
        return self._lookup(
            key,
            lambda: build_sparse_conv_rulebook(tensor, kernel_size, stride),
        )
