"""Sorting-based mapping operators: kNN, ball query, FPS, grouping.

The source paper accelerates the *convolution* half of point-cloud
inference; PointAcc (PAPERS.md) showed that the other half — the mapping
operations point-based networks spend their time in — reduces to one
unified sorting dataflow: bucket points by voxel cell (a radix sort over
packed cell keys), then answer every neighborhood query by merging the
handful of sorted buckets that can intersect it.  This module is the
software analogue of that datapath:

* :func:`knn` — expanding-shell search over the bucket grid.  Each round
  merges one more Chebyshev shell of buckets into the per-query candidate
  list; a query retires once its ``k``-th candidate is provably closer
  than any unscanned bucket.
* :func:`ball_query` — single-shell merge with the cell size tied to the
  query radius, capped at ``max_samples`` per query.
* :func:`farthest_point_sample` — the inherently sequential greedy picker,
  vectorized across points per iteration.
* :func:`group_points` — the gather stage: neighbor tables to dense
  ``(queries, k, channels)`` feature stacks.

Every operator returns a typed :class:`MappingResult` and is bit-identical
to its ``*_bruteforce`` reference: both paths evaluate squared distances
with the same elementwise expression, order candidates by ``(d^2, point
index)``, and pad short rows with ``-1`` indices / ``inf`` distances.
Integer inputs (voxel coordinates) are widened to float64 — exact for the
21-bit grids the packing supports — so cached results can be delta-spliced
(:mod:`repro.engine.mapping_delta`) without precision drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.sparse.hashmap import pack_coords

#: Cap on grid cells per axis; keeps packed keys in range and bounds the
#: cell-assignment rounding slop well inside the 0.5-cell retirement margin.
_MAX_CELLS_F64 = 1 << 20
_MAX_CELLS_F32 = 1 << 12


@dataclass(frozen=True)
class MappingStats:
    """Workload counters for one mapping-operator invocation.

    ``candidates`` counts (query, point) distance evaluations — the merge
    phase's work; ``matches`` counts valid entries in the result — the
    gather phase's work; ``cells`` is the occupied-bucket count of the
    sort phase; ``shells`` the number of Chebyshev shells merged (kNN).
    """

    op: str
    method: str
    num_points: int
    num_queries: int
    candidates: int
    matches: int
    cells: int
    shells: int


@dataclass(frozen=True, eq=False)
class MappingResult:
    """Typed result of a mapping operator.

    ``indices`` is ``(Q, k)`` (or ``(S,)`` for FPS) into the point array,
    padded with ``-1``; ``distances`` carries squared distances aligned
    with ``indices`` (``inf`` padding); ``counts`` the number of valid
    neighbors per query; ``grouped`` the gathered values (grouping only).
    """

    indices: np.ndarray
    distances: Optional[np.ndarray]
    counts: Optional[np.ndarray]
    grouped: Optional[np.ndarray]
    stats: MappingStats

    @property
    def op(self) -> str:
        return self.stats.op


def as_point_array(points) -> np.ndarray:
    """Coerce a point set (array or sparse tensor) to ``(N, 3)`` float rows.

    Integer voxel coordinates widen to float64, which represents the
    packable 21-bit range (and its squared distances) exactly.  Float
    coordinates must be finite: a NaN or inf distance has no ordering
    the bucket kernels and the brute-force references could agree on.
    """
    pts = np.asarray(getattr(points, "coords", points))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got shape {pts.shape}")
    if pts.dtype.kind != "f":
        pts = pts.astype(np.float64)
    elif not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite (got NaN or inf)")
    return np.ascontiguousarray(pts)


def _columns(points: np.ndarray) -> np.ndarray:
    """``(3, N)`` contiguous per-axis rows of an ``(N, 3)`` point array."""
    return np.ascontiguousarray(points.T)


def _sum_squares(diff: np.ndarray) -> np.ndarray:
    """``(dx*dx + dy*dy) + dz*dz`` over the leading axis of a ``(3, ...)``
    difference array, evaluated in place; returns a view of ``diff[0]``.

    This left-to-right expression is the one squared distance every
    kernel and every ``*_bruteforce`` reference evaluates, so their
    results agree bit for bit.
    """
    np.multiply(diff, diff, out=diff)
    total = np.add(diff[0], diff[1], out=diff[0])
    return np.add(total, diff[2], out=total)


def _pair_distances(
    qcols: np.ndarray, qidx: np.ndarray, pcols: np.ndarray, cand: np.ndarray
) -> np.ndarray:
    """Squared distances for candidate pairs, gathered from the
    :func:`_columns` of the queries and of the points."""
    diff = np.take(qcols, qidx, axis=1)
    np.subtract(diff, np.take(pcols, cand, axis=1), out=diff)
    return _sum_squares(diff)


def _distance_matrix(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Dense ``(Q, N)`` squared distances between two point arrays."""
    qcols, pcols = _columns(queries), _columns(points)
    return _sum_squares(qcols[:, :, None] - pcols[:, None, :])


def _cube_offsets(radius: int) -> np.ndarray:
    axis = np.arange(-radius, radius + 1, dtype=np.int64)
    grid = np.meshgrid(axis, axis, axis, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, 3)


def _shell_offsets(radius: int) -> np.ndarray:
    """Cells at Chebyshev distance exactly ``radius`` (the full cube at 1)."""
    cube = _cube_offsets(radius)
    if radius <= 1:
        return cube
    return cube[np.abs(cube).max(axis=1) == radius]


@dataclass(frozen=True, eq=False)
class _BucketGrid:
    """Points radix-sorted into voxel buckets — the sort phase's output."""

    origin: np.ndarray
    cell_size: float
    ncells: np.ndarray
    order: np.ndarray
    cell_keys: np.ndarray
    starts: np.ndarray

    @property
    def num_cells(self) -> int:
        return int(len(self.cell_keys))

    def mean_population(self) -> float:
        if not len(self.cell_keys):
            return 0.0
        return float(len(self.order)) / float(len(self.cell_keys))


def _max_cells(dtype: np.dtype) -> int:
    return _MAX_CELLS_F32 if dtype == np.float32 else _MAX_CELLS_F64


def _build_grid(points: np.ndarray, cell_size: float) -> _BucketGrid:
    origin = points.min(axis=0)
    limit = float(_max_cells(points.dtype) - 1)
    cells = np.clip(
        np.floor((points - origin) / points.dtype.type(cell_size)), 0.0, limit
    ).astype(np.int64)
    ncells = cells.max(axis=0) + 1
    keys = pack_coords(cells)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    fresh = np.empty(len(sorted_keys), dtype=bool)
    fresh[:1] = True
    fresh[1:] = sorted_keys[1:] != sorted_keys[:-1]
    boundaries = np.flatnonzero(fresh)
    starts = np.concatenate([boundaries, [len(sorted_keys)]])
    return _BucketGrid(
        origin=origin,
        cell_size=float(cell_size),
        ncells=ncells,
        order=order,
        cell_keys=sorted_keys[boundaries],
        starts=starts,
    )


def _query_cells(grid: _BucketGrid, queries: np.ndarray) -> np.ndarray:
    """Per-query search-center cells, clamped into the occupied grid.

    Clamping keeps far-away queries' shells anchored to the point set
    (and overflows impossible) without weakening the distance bound: on
    any clamped axis the query lies strictly outside the grid, so points
    in unscanned cells are even farther than the in-grid bound promises.
    """
    scaled = np.floor((queries - grid.origin) / queries.dtype.type(grid.cell_size))
    top = (grid.ncells - 1).astype(np.float64)
    return np.clip(scaled, 0.0, top).astype(np.int64)


def _gather_candidates(
    grid: _BucketGrid, centers: np.ndarray, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge the buckets at ``centers + offsets`` into flat candidate pairs.

    Returns ``(qidx, cand)``: for every (local) query, the indices of all
    points whose cell is one of its offset cells.  Cells outside the grid
    contribute nothing; each (query, point) pair appears at most once
    because offset cells are distinct per query.
    """
    num_queries = len(centers)
    if num_queries == 0 or grid.num_cells == 0 or len(offsets) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    inside = np.ones((num_queries, len(offsets)), dtype=bool)
    for axis in range(3):
        cell = np.add.outer(centers[:, axis], offsets[:, axis])
        inside &= (cell >= 0) & (cell < grid.ncells[axis])
    # Packing is linear in each axis, so an in-grid cell's key is its
    # center's key plus the offset's (signed) packed step.
    steps = offsets @ pack_coords(np.eye(3, dtype=np.int64))
    keys = np.where(inside, np.add.outer(pack_coords(centers), steps), -1).ravel()
    pos = np.minimum(np.searchsorted(grid.cell_keys, keys), grid.num_cells - 1)
    found = np.take(grid.cell_keys, pos) == keys
    bucket_start = np.where(found, np.take(grid.starts, pos), 0)
    counts = np.where(found, np.take(grid.starts, pos + 1), 0) - bucket_start
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    per_query = counts.reshape(num_queries, -1).sum(axis=1)
    qidx = np.repeat(np.arange(num_queries, dtype=np.int64), per_query)
    seg_starts = np.cumsum(counts) - counts
    slots = np.repeat(bucket_start - seg_starts, counts) + np.arange(total)
    return qidx, np.take(grid.order, slots)


def _knn_grid(points: np.ndarray, k: int) -> _BucketGrid:
    """Bucket grid whose cell size targets O(k) points per 27-cell
    neighborhood.

    One density estimate from the bounding box, then a bounded number of
    refinements against the *measured* bucket population so lower-
    dimensional clouds (surfaces, lines) converge too.  The last grid
    built while measuring is returned when its size is the final one.
    """
    extent = points.max(axis=0) - points.min(axis=0)
    span = float(extent.max())
    if span <= 0.0:
        return _build_grid(points, 1.0)
    floor_size = span / float(_max_cells(points.dtype))
    volume = float(np.prod(np.maximum(extent, span * 1e-3)))
    target = max(1.0, float(k))
    size = max(floor_size, (volume * target / float(len(points))) ** (1.0 / 3.0))
    for _ in range(2):
        grid = _build_grid(points, size)
        mean = grid.mean_population()
        if mean <= 0.0 or 0.25 * target <= mean <= 4.0 * target:
            break
        size = max(floor_size, size * float((target / mean) ** (1.0 / 3.0)))
    size = min(size, span)
    return grid if grid.cell_size == size else _build_grid(points, size)


def _kth_bound(
    qidx: np.ndarray, d2: np.ndarray, num_queries: int, k: int
) -> np.ndarray:
    """Each query's k-th smallest candidate ``d^2`` (``inf`` for queries
    with at most ``k`` candidates).

    Queries with more than ``k`` candidates are laid out as the rows of
    an ``inf``-padded ``(rows, width)`` table, and one row-wise
    ``np.partition`` selects the k-th value of each.
    """
    counts = np.bincount(qidx, minlength=num_queries)
    bound = np.full(num_queries, np.inf, dtype=d2.dtype)
    full = counts > k
    rows = np.flatnonzero(full)
    if not rows.size:
        return bound
    widths = np.where(full, counts, 0)
    width = int(widths.max())
    # A candidate's flat table slot is its query's offset plus its
    # position in the query-ordered candidate list.
    offset = (np.cumsum(full) - 1) * width - (np.cumsum(widths) - widths)
    picked = np.flatnonzero(np.take(full, qidx))
    picked = picked[np.argsort(np.take(qidx, picked), kind="stable")]
    slots = np.take(offset, np.take(qidx, picked)) + np.arange(len(picked))
    table = np.full((len(rows), width), np.inf, dtype=d2.dtype)
    np.put(table, slots, np.take(d2, picked))
    table.partition(k - 1, axis=1)
    bound[rows] = table[:, k - 1]
    return bound


def _topk_rows(
    qidx: np.ndarray,
    cand: np.ndarray,
    d2: np.ndarray,
    num_queries: int,
    k: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort candidate pairs by ``(query, d^2, index)`` and keep each
    query's first ``k``.  Returns the kept ``(qidx, cand, d2, rank)`` plus
    each query's k-th distance (``inf`` while fewer than ``k`` kept).

    Only candidates at or inside their query's k-th smallest ``d^2`` are
    sorted: every pair that can rank below ``k`` survives the filter,
    ties at the boundary included, so ranks match a full sort.
    """
    near = d2 <= np.take(_kth_bound(qidx, d2, num_queries, k), qidx)
    qidx, cand, d2 = qidx[near], cand[near], d2[near]
    order = np.lexsort((cand, d2, qidx))
    sq, sc, sd = qidx[order], cand[order], d2[order]
    counts = np.bincount(sq, minlength=num_queries)
    seg_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    rank = np.arange(len(sq), dtype=np.int64) - seg_starts[sq]
    keep = rank < k
    sq, sc, sd, rank = sq[keep], sc[keep], sd[keep], rank[keep]
    kth = np.full(num_queries, np.inf)
    last = rank == (k - 1)
    kth[sq[last]] = sd[last]
    return sq, sc, sd, rank, kth


def knn(points, queries=None, *, k: int) -> MappingResult:
    """``k`` nearest neighbors by expanding-shell search over the grid.

    ``queries=None`` queries the point set against itself (every point is
    then its own nearest neighbor at distance 0).  Ties at equal squared
    distance resolve to the smaller point index; rows with fewer than
    ``k`` reachable points pad with ``-1`` / ``inf``.
    """
    pts = as_point_array(points)
    qs = pts if queries is None else as_point_array(queries)
    k = int(k)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    num_queries, num_points = len(qs), len(pts)
    indices = np.full((num_queries, k), -1, dtype=np.int64)
    dists = np.full((num_queries, k), np.inf, dtype=pts.dtype)
    counts = np.full(num_queries, min(k, num_points), dtype=np.int64)
    if num_queries == 0 or num_points == 0 or k == 0:
        stats = MappingStats("knn", "bucket", num_points, num_queries, 0, 0, 0, 0)
        return MappingResult(indices, dists, counts, None, stats)

    grid = _knn_grid(pts, k)
    centers = _query_cells(grid, qs)
    max_shell = int(grid.ncells.max())
    pcols = _columns(pts)
    qcols = pcols if queries is None else _columns(qs)
    pending = np.arange(num_queries, dtype=np.int64)
    is_pending = np.ones(num_queries, dtype=bool)
    acc_q = np.empty(0, dtype=np.int64)
    acc_c = np.empty(0, dtype=np.int64)
    acc_d = np.empty(0, dtype=pts.dtype)
    examined = 0
    shell = 1
    while pending.size:
        local_q, cand = _gather_candidates(
            grid, centers[pending], _shell_offsets(shell)
        )
        examined += len(cand)
        owner = np.take(pending, local_q)
        acc_q = np.concatenate([acc_q, owner])
        acc_c = np.concatenate([acc_c, cand])
        acc_d = np.concatenate([acc_d, _pair_distances(qcols, owner, pcols, cand)])
        sq, sc, sd, rank, kth = _topk_rows(acc_q, acc_c, acc_d, num_queries, k)
        # Unscanned buckets lie at Chebyshev distance > shell, hence at
        # Euclidean distance >= shell * cell_size; the half-cell margin
        # absorbs cell-assignment rounding.
        limit = ((shell - 0.5) * grid.cell_size) ** 2
        done = (kth[pending] < limit) | (shell >= max_shell)
        if done.any():
            is_pending[pending[done]] = False
            emit = ~is_pending[sq]
            indices[sq[emit], rank[emit]] = sc[emit]
            dists[sq[emit], rank[emit]] = sd[emit]
        pending = pending[~done]
        live = is_pending[sq]
        acc_q, acc_c, acc_d = sq[live], sc[live], sd[live]
        shell += 1
    stats = MappingStats(
        "knn",
        "bucket",
        num_points,
        num_queries,
        examined,
        int((indices >= 0).sum()),
        grid.num_cells,
        shell - 1,
    )
    return MappingResult(indices, dists, counts, None, stats)


def knn_bruteforce(points, queries=None, *, k: int) -> MappingResult:
    """Dense-distance-matrix reference for :func:`knn` (same contract)."""
    pts = as_point_array(points)
    qs = pts if queries is None else as_point_array(queries)
    k = int(k)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    num_queries, num_points = len(qs), len(pts)
    indices = np.full((num_queries, k), -1, dtype=np.int64)
    dists = np.full((num_queries, k), np.inf, dtype=pts.dtype)
    counts = np.full(num_queries, min(k, num_points), dtype=np.int64)
    examined = 0
    if num_queries and num_points and k:
        d2 = _distance_matrix(qs, pts)
        examined = d2.size
        take = min(k, num_points)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :take]
        indices[:, :take] = nearest
        dists[:, :take] = np.take_along_axis(d2, nearest, axis=1)
    stats = MappingStats(
        "knn",
        "bruteforce",
        num_points,
        num_queries,
        examined,
        int((indices >= 0).sum()),
        0,
        0,
    )
    return MappingResult(indices, dists, counts, None, stats)


def _cap_rows(
    qidx: np.ndarray,
    cand: np.ndarray,
    d2: np.ndarray,
    num_queries: int,
    max_samples: int,
    dtype,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack per-query candidate lists (sorted by point index) into dense
    ``(Q, max_samples)`` tables, ``-1`` / ``inf`` padded."""
    indices = np.full((num_queries, max_samples), -1, dtype=np.int64)
    dists = np.full((num_queries, max_samples), np.inf, dtype=dtype)
    counts = np.bincount(qidx, minlength=num_queries)
    seg_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    rank = np.arange(len(qidx), dtype=np.int64) - seg_starts[qidx]
    keep = rank < max_samples
    indices[qidx[keep], rank[keep]] = cand[keep]
    dists[qidx[keep], rank[keep]] = d2[keep]
    return indices, dists, np.minimum(counts, max_samples).astype(np.int64)


def ball_query(points, queries=None, *, radius: float, max_samples: int) -> MappingResult:
    """Neighbors within ``radius``, in point-index order, ``max_samples`` max.

    The cell size equals the radius, so the 27-cell neighborhood of a
    query's cell covers its whole ball; one merge pass answers every
    query.  A zero radius matches only exact duplicates (and the query
    itself in self-query mode).
    """
    pts = as_point_array(points)
    qs = pts if queries is None else as_point_array(queries)
    radius = float(radius)
    max_samples = int(max_samples)
    if not radius >= 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if max_samples < 1:
        raise ValueError(f"max_samples must be positive, got {max_samples}")
    num_queries, num_points = len(qs), len(pts)
    if num_queries == 0 or num_points == 0:
        indices = np.full((num_queries, max_samples), -1, dtype=np.int64)
        dists = np.full((num_queries, max_samples), np.inf, dtype=pts.dtype)
        stats = MappingStats(
            "ball_query", "bucket", num_points, num_queries, 0, 0, 0, 0
        )
        return MappingResult(
            indices, dists, np.zeros(num_queries, dtype=np.int64), None, stats
        )

    extent = pts.max(axis=0) - pts.min(axis=0)
    span = float(extent.max())
    floor_size = span / float(_max_cells(pts.dtype)) if span > 0 else 1.0
    cell_size = max(radius, floor_size)
    grid = _build_grid(pts, cell_size)
    qidx, cand = _gather_candidates(grid, _query_cells(grid, qs), _cube_offsets(1))
    examined = len(cand)
    d2 = _pair_distances(_columns(qs), qidx, _columns(pts), cand)
    within = d2 <= radius * radius
    qidx, cand, d2 = qidx[within], cand[within], d2[within]
    order = np.lexsort((cand, qidx))
    indices, dists, counts = _cap_rows(
        qidx[order], cand[order], d2[order], num_queries, max_samples, pts.dtype
    )
    stats = MappingStats(
        "ball_query",
        "bucket",
        num_points,
        num_queries,
        examined,
        int((indices >= 0).sum()),
        grid.num_cells,
        1,
    )
    return MappingResult(indices, dists, counts, None, stats)


def ball_query_bruteforce(
    points, queries=None, *, radius: float, max_samples: int
) -> MappingResult:
    """Dense-distance-matrix reference for :func:`ball_query`."""
    pts = as_point_array(points)
    qs = pts if queries is None else as_point_array(queries)
    radius = float(radius)
    max_samples = int(max_samples)
    if not radius >= 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if max_samples < 1:
        raise ValueError(f"max_samples must be positive, got {max_samples}")
    num_queries, num_points = len(qs), len(pts)
    if num_queries == 0 or num_points == 0:
        indices = np.full((num_queries, max_samples), -1, dtype=np.int64)
        dists = np.full((num_queries, max_samples), np.inf, dtype=pts.dtype)
        stats = MappingStats(
            "ball_query", "bruteforce", num_points, num_queries, 0, 0, 0, 0
        )
        return MappingResult(
            indices, dists, np.zeros(num_queries, dtype=np.int64), None, stats
        )
    d2 = _distance_matrix(qs, pts)
    qidx, cand = np.nonzero(d2 <= radius * radius)
    indices, dists, counts = _cap_rows(
        qidx.astype(np.int64),
        cand.astype(np.int64),
        d2[qidx, cand],
        num_queries,
        max_samples,
        pts.dtype,
    )
    stats = MappingStats(
        "ball_query",
        "bruteforce",
        num_points,
        num_queries,
        int(d2.size),
        int((indices >= 0).sum()),
        0,
        1,
    )
    return MappingResult(indices, dists, counts, None, stats)


def _distances_to(cols: np.ndarray, index: int, diff: np.ndarray) -> np.ndarray:
    """Squared distances from every point of the ``(3, N)`` columns to
    point ``index``, computed in the ``(3, N)`` scratch ``diff``; returns
    a view of ``diff[0]``."""
    np.subtract(cols, cols[:, index : index + 1], out=diff)
    return _sum_squares(diff)


def farthest_point_sample(points, num_samples: int) -> MappingResult:
    """Greedy farthest-point sampling: start at index 0, then repeatedly
    take the point farthest from the selected set (ties to the smaller
    index).  Pads with ``-1`` when ``num_samples`` exceeds the points."""
    pts = as_point_array(points)
    num_samples = int(num_samples)
    if num_samples < 0:
        raise ValueError(f"num_samples must be non-negative, got {num_samples}")
    num_points = len(pts)
    indices = np.full(num_samples, -1, dtype=np.int64)
    take = min(num_samples, num_points)
    examined = 0
    if take > 0:
        cols = _columns(pts)
        diff = np.empty_like(cols)
        indices[0] = 0
        best = _distances_to(cols, 0, diff).copy()
        for step in range(1, take):
            far = int(best.argmax())
            indices[step] = far
            np.minimum(best, _distances_to(cols, far, diff), out=best)
        examined = take * num_points
    counts = np.asarray([take], dtype=np.int64)
    stats = MappingStats(
        "farthest_point_sample",
        "bucket",
        num_points,
        num_samples,
        examined,
        take,
        0,
        0,
    )
    return MappingResult(indices, None, counts, None, stats)


def farthest_point_sample_bruteforce(points, num_samples: int) -> MappingResult:
    """Reference FPS: full pairwise matrix, min over the whole selected
    set each step (no running minimum).  Same picks bit-for-bit."""
    pts = as_point_array(points)
    num_samples = int(num_samples)
    if num_samples < 0:
        raise ValueError(f"num_samples must be non-negative, got {num_samples}")
    num_points = len(pts)
    indices = np.full(num_samples, -1, dtype=np.int64)
    take = min(num_samples, num_points)
    examined = 0
    if take > 0:
        d2 = _distance_matrix(pts, pts)
        examined = d2.size
        indices[0] = 0
        for step in range(1, take):
            best = d2[:, indices[:step]].min(axis=1)
            indices[step] = int(np.argmax(best))
    counts = np.asarray([take], dtype=np.int64)
    stats = MappingStats(
        "farthest_point_sample",
        "bruteforce",
        num_points,
        num_samples,
        examined,
        take,
        0,
        0,
    )
    return MappingResult(indices, None, counts, None, stats)


def group_points(values, indices) -> MappingResult:
    """Gather ``values`` rows by a ``(Q, k)`` neighbor table; ``-1`` slots
    produce zero rows.  This is the gather phase every set-abstraction
    block runs after its neighborhood search."""
    vals = np.asarray(values)
    idx = np.asarray(indices, dtype=np.int64)
    if vals.ndim != 2:
        raise ValueError(f"expected (N, C) values, got shape {vals.shape}")
    if idx.ndim != 2:
        raise ValueError(f"expected (Q, k) indices, got shape {idx.shape}")
    if idx.size and (idx.max() >= len(vals) or idx.min() < -1):
        raise ValueError("neighbor index out of range for the value rows")
    safe = np.where(idx < 0, 0, idx)
    grouped = vals[safe]
    grouped[idx < 0] = 0
    stats = MappingStats(
        "group_points",
        "gather",
        len(vals),
        len(idx),
        int(idx.size),
        int((idx >= 0).sum()),
        0,
        0,
    )
    return MappingResult(idx, None, None, grouped, stats)
