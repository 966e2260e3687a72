"""Property tests for the sorting-based mapping operators.

Acceptance (tentpole): every mapping op — kNN, ball query, FPS,
grouping — must be bit-identical to its brute-force reference across
randomized clouds, duplicate points, ``k > N``, empty-radius queries,
and both float dtypes.  The bucket kernels share their distance
expression and ``(d^2, index)`` ordering with the references, so the
comparisons below are exact equality, never approximate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import mapping as M
from tests.conftest import table_voxels

SEEDS = (0, 1, 2, 3)


def random_cloud(seed, n=None, dtype=np.float64):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 700)) if n is None else n
    pts = rng.normal(size=(n, 3)) * rng.uniform(0.5, 20.0)
    return pts.astype(dtype)


def voxel_cloud(seed, n=2000, resolution=96):
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, resolution, size=(n, 3)).astype(np.int64)
    return np.unique(coords, axis=0)


def assert_knn_identical(got, want):
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.distances, want.distances)
    assert np.array_equal(got.counts, want.counts)


def assert_ball_identical(got, want):
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.distances, want.distances)
    assert np.array_equal(got.counts, want.counts)


# ---------------------------------------------------------------------------
# kNN
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_knn_bit_identical_random_clouds(seed, dtype):
    pts = random_cloud(seed, dtype=dtype)
    qs = random_cloud(seed + 100, n=41, dtype=dtype)
    for k in (1, 5, 17):
        got = M.knn(pts, qs, k=k)
        want = M.knn_bruteforce(pts, qs, k=k)
        assert_knn_identical(got, want)
        assert got.stats.method == "bucket"
        assert want.stats.method == "bruteforce"


@pytest.mark.parametrize("seed", SEEDS)
def test_knn_self_query_voxel_coords(seed):
    coords = voxel_cloud(seed)
    got = M.knn(coords, k=8)
    want = M.knn_bruteforce(coords, k=8)
    assert_knn_identical(got, want)
    # Self-query: every point is its own nearest neighbor at distance 0.
    assert np.array_equal(got.indices[:, 0], np.arange(len(coords)))
    assert np.all(got.distances[:, 0] == 0.0)


def test_knn_duplicate_points_tie_break_by_index():
    pts = np.array(
        [[0.0, 0.0, 0.0]] * 4 + [[1.0, 0.0, 0.0]] * 3 + [[5.0, 5.0, 5.0]]
    )
    got = M.knn(pts, k=6)
    want = M.knn_bruteforce(pts, k=6)
    assert_knn_identical(got, want)
    # Ties at d^2 == 0 resolve to ascending point index.
    assert np.array_equal(got.indices[0, :4], [0, 1, 2, 3])


def test_knn_k_exceeds_points_pads():
    pts = random_cloud(7, n=5)
    got = M.knn(pts, k=9)
    want = M.knn_bruteforce(pts, k=9)
    assert_knn_identical(got, want)
    assert np.all(got.indices[:, 5:] == -1)
    assert np.all(np.isinf(got.distances[:, 5:]))
    assert np.all(got.counts == 5)


def test_knn_empty_and_zero_k():
    empty = np.empty((0, 3))
    pts = random_cloud(3, n=10)
    for result in (M.knn(empty, k=3), M.knn_bruteforce(empty, k=3)):
        assert result.indices.shape == (0, 3)
    got = M.knn(pts, k=0)
    want = M.knn_bruteforce(pts, k=0)
    assert_knn_identical(got, want)
    assert got.indices.shape == (len(pts), 0)
    got = M.knn(pts, empty, k=3)
    assert got.indices.shape == (0, 3)


def test_knn_rejects_negative_k_and_bad_shapes():
    pts = random_cloud(0, n=8)
    with pytest.raises(ValueError, match="non-negative"):
        M.knn(pts, k=-1)
    with pytest.raises(ValueError, match="expected \\(N, 3\\)"):
        M.knn(np.zeros((4, 2)), k=1)


def test_knn_far_outside_queries():
    """Queries far off the grid exercise the clamped-cell distance bound."""
    pts = random_cloud(11, n=300)
    qs = np.array([[1e4, -1e4, 1e4], [50.0, 50.0, 50.0], [0.0, 0.0, 0.0]])
    assert_knn_identical(M.knn(pts, qs, k=4), M.knn_bruteforce(pts, qs, k=4))


def test_knn_degenerate_geometry():
    """Planes and lines (lower-dimensional clouds) stress the adaptive
    cell-size refinement; identical points stress the zero-span path."""
    rng = np.random.default_rng(5)
    plane = np.concatenate(
        [rng.normal(size=(400, 2)), np.zeros((400, 1))], axis=1
    )
    assert_knn_identical(M.knn(plane, k=6), M.knn_bruteforce(plane, k=6))
    line = np.concatenate(
        [rng.normal(size=(200, 1)), np.zeros((200, 2))], axis=1
    )
    assert_knn_identical(M.knn(line, k=3), M.knn_bruteforce(line, k=3))
    same = np.ones((7, 3))
    assert_knn_identical(M.knn(same, k=4), M.knn_bruteforce(same, k=4))


# ---------------------------------------------------------------------------
# Ball query
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_ball_query_bit_identical_random_clouds(seed, dtype):
    pts = random_cloud(seed, dtype=dtype)
    qs = random_cloud(seed + 200, n=29, dtype=dtype)
    span = float(np.abs(pts).max())
    for radius in (span * 0.05, span * 0.5):
        got = M.ball_query(pts, qs, radius=radius, max_samples=8)
        want = M.ball_query_bruteforce(pts, qs, radius=radius, max_samples=8)
        assert_ball_identical(got, want)


@pytest.mark.parametrize("seed", SEEDS)
def test_ball_query_self_query_voxel_coords(seed):
    coords = voxel_cloud(seed)
    got = M.ball_query(coords, radius=2.0, max_samples=16)
    want = M.ball_query_bruteforce(coords, radius=2.0, max_samples=16)
    assert_ball_identical(got, want)
    # Radius boundary is inclusive, so each point sees itself.
    assert np.all(got.counts >= 1)


def test_ball_query_zero_radius_matches_duplicates_only():
    pts = np.array(
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
    )
    got = M.ball_query(pts, radius=0.0, max_samples=4)
    want = M.ball_query_bruteforce(pts, radius=0.0, max_samples=4)
    assert_ball_identical(got, want)
    assert np.array_equal(got.counts, [2, 2, 1, 1])
    # A radius matching nothing at all: rows pad entirely.
    far = np.array([[100.0, 100.0, 100.0]])
    res = M.ball_query(pts, far, radius=0.5, max_samples=4)
    ref = M.ball_query_bruteforce(pts, far, radius=0.5, max_samples=4)
    assert_ball_identical(res, ref)
    assert res.counts[0] == 0 and np.all(res.indices[0] == -1)


def test_ball_query_cap_keeps_lowest_indices():
    pts = np.zeros((10, 3))
    got = M.ball_query(pts, radius=1.0, max_samples=3)
    want = M.ball_query_bruteforce(pts, radius=1.0, max_samples=3)
    assert_ball_identical(got, want)
    assert np.array_equal(got.indices[0], [0, 1, 2])
    assert np.all(got.counts == 3)


def test_ball_query_validation():
    pts = random_cloud(1, n=6)
    with pytest.raises(ValueError, match="radius"):
        M.ball_query(pts, radius=-1.0, max_samples=4)
    with pytest.raises(ValueError, match="max_samples"):
        M.ball_query(pts, radius=1.0, max_samples=0)


@pytest.mark.parametrize("op", [M.ball_query, M.ball_query_bruteforce])
def test_ball_query_rejects_nan_radius(op):
    pts = voxel_cloud(1, n=40)
    with pytest.raises(ValueError, match="non-negative"):
        op(pts, radius=float("nan"), max_samples=4)


# ---------------------------------------------------------------------------
# Farthest-point sampling
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fps_bit_identical(seed, dtype):
    pts = random_cloud(seed, n=257, dtype=dtype)
    got = M.farthest_point_sample(pts, 32)
    want = M.farthest_point_sample_bruteforce(pts, 32)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.counts, want.counts)


def test_fps_oversample_pads_and_duplicates():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    got = M.farthest_point_sample(pts, 5)
    want = M.farthest_point_sample_bruteforce(pts, 5)
    assert np.array_equal(got.indices, want.indices)
    assert np.all(got.indices[3:] == -1)
    assert got.counts[0] == 3
    # First pick is canonical: index 0; second is the farthest point.
    assert got.indices[0] == 0 and got.indices[1] == 1


def test_fps_spreads_over_clusters():
    rng = np.random.default_rng(9)
    clusters = np.concatenate(
        [rng.normal(loc=center, scale=0.05, size=(50, 3))
         for center in ([0, 0, 0], [10, 0, 0], [0, 10, 0], [0, 0, 10])]
    )
    picks = M.farthest_point_sample(clusters, 4).indices
    assert len({int(p) // 50 for p in picks}) == 4  # one pick per cluster


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------
def test_group_points_gathers_and_zeroes_padding():
    values = np.arange(12, dtype=np.float64).reshape(6, 2)
    idx = np.array([[0, 5, -1], [2, -1, -1]])
    result = M.group_points(values, idx)
    assert result.grouped.shape == (2, 3, 2)
    assert np.array_equal(result.grouped[0, 0], values[0])
    assert np.array_equal(result.grouped[0, 1], values[5])
    assert np.all(result.grouped[0, 2] == 0)
    assert np.all(result.grouped[1, 1:] == 0)
    assert result.stats.matches == 3
    assert result.stats.op == "group_points"


def test_group_points_validation():
    values = np.zeros((4, 2))
    with pytest.raises(ValueError, match="out of range"):
        M.group_points(values, np.array([[0, 4]]))
    # Only -1 marks padding; any other negative index is out of range.
    with pytest.raises(ValueError, match="out of range"):
        M.group_points(values, np.array([[-5, 1]]))
    with pytest.raises(ValueError, match="\\(N, C\\)"):
        M.group_points(np.zeros(4), np.array([[0]]))
    with pytest.raises(ValueError, match="\\(Q, k\\)"):
        M.group_points(values, np.array([0, 1]))


# ---------------------------------------------------------------------------
# Result/stats surface
# ---------------------------------------------------------------------------
def test_mapping_result_and_stats_shape():
    pts = voxel_cloud(0, n=500)
    result = M.knn(pts, k=4)
    assert result.op == "knn"
    stats = result.stats
    assert stats.num_points == stats.num_queries == len(pts)
    assert stats.matches == int((result.indices >= 0).sum())
    assert stats.cells > 0 and stats.shells >= 1
    # The bucket search must examine far fewer pairs than brute force on
    # a cloud this size — that is the point of the sorting dataflow.
    brute = M.knn_bruteforce(pts, k=4)
    assert stats.candidates < brute.stats.candidates


def test_as_point_array_accepts_tensors_and_widens_ints():
    from repro.sparse.coo import SparseTensor3D

    coords = voxel_cloud(2, n=50)
    tensor = SparseTensor3D(
        coords, np.ones((len(coords), 1)), (96, 96, 96)
    )
    via_tensor = M.as_point_array(tensor)
    via_array = M.as_point_array(coords)
    assert via_tensor.dtype == np.float64
    assert np.array_equal(via_tensor, via_array)
    # Mapping ops accept the tensor directly.
    assert_knn_identical(M.knn(tensor, k=3), M.knn(coords, k=3))


# ---------------------------------------------------------------------------
# Non-finite coordinates
# ---------------------------------------------------------------------------
NON_FINITE_OPS = {
    "knn": lambda pts, qs: M.knn(pts, qs, k=2),
    "knn_bruteforce": lambda pts, qs: M.knn_bruteforce(pts, qs, k=2),
    "ball_query": lambda pts, qs: M.ball_query(
        pts, qs, radius=1.0, max_samples=2
    ),
    "ball_query_bruteforce": lambda pts, qs: M.ball_query_bruteforce(
        pts, qs, radius=1.0, max_samples=2
    ),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_OPS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_searches_reject_non_finite_points_and_queries(name, bad, dtype):
    op = NON_FINITE_OPS[name]
    pts = np.array([[0, 0, 0], [1, 0, 0], [2, 2, 2]], dtype=dtype)
    broken = np.array([[bad, 0, 0]], dtype=dtype)
    with pytest.raises(ValueError, match="finite"):
        op(pts, broken)
    with pytest.raises(ValueError, match="finite"):
        op(np.concatenate([pts, broken]), pts)
    with pytest.raises(ValueError, match="finite"):
        op(np.concatenate([pts, broken]), None)


@pytest.mark.parametrize(
    "op", [M.farthest_point_sample, M.farthest_point_sample_bruteforce]
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fps_rejects_non_finite_points(op, bad):
    pts = np.array([[0.0, 0.0, 0.0], [bad, 0.0, 0.0], [1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        op(pts, 3)


# ---------------------------------------------------------------------------
# Pinned workload counters
# ---------------------------------------------------------------------------
def counters(result):
    stats = result.stats
    return stats.candidates, stats.matches, stats.cells, stats.shells


def test_mapping_stats_pinned_on_table_cloud():
    """``MappingCostModel`` prices these counters, so a kernel rewrite
    must reproduce them exactly; the numbers were recorded on the
    kernels that predate the column-wise distances and the prefiltered
    top-k."""
    coords = table_voxels().coords
    assert len(coords) == 1285
    fps = M.farthest_point_sample(coords, 64)
    assert counters(fps) == (82240, 64, 0, 0)
    centroids = coords[fps.indices]
    assert counters(M.knn(coords, centroids, k=8)) == (10251, 512, 54, 2)
    assert counters(M.knn(coords, k=8)) == (198556, 10280, 54, 2)
    ball = M.ball_query(coords, centroids, radius=3.0, max_samples=16)
    assert counters(ball) == (4639, 998, 154, 1)
    self_ball = M.ball_query(coords, radius=2.0, max_samples=16)
    assert counters(self_ball) == (48135, 17592, 387, 1)


# ---------------------------------------------------------------------------
# Prefiltered top-k
# ---------------------------------------------------------------------------
def topk_rows_reference(qidx, cand, d2, num_queries, k):
    """Full ``(query, d^2, index)`` sort of every candidate, first ``k``
    kept — the selection ``_topk_rows`` makes without sorting them all."""
    order = np.lexsort((cand, d2, qidx))
    sq, sc, sd = qidx[order], cand[order], d2[order]
    counts = np.bincount(sq, minlength=num_queries)
    rank = np.arange(len(sq)) - (np.cumsum(counts) - counts)[sq]
    keep = rank < k
    sq, sc, sd, rank = sq[keep], sc[keep], sd[keep], rank[keep]
    kth = np.full(num_queries, np.inf)
    last = rank == k - 1
    kth[sq[last]] = sd[last]
    return sq, sc, sd, rank, kth


@st.composite
def candidate_lists(draw):
    """Unordered per-query candidate lists with distinct point indices.

    Distances come from a tiny integer range, so ties are everywhere —
    including exactly at rank ``k``; row lengths run from empty to well
    past ``k``; a large scale stands in for far-off queries.
    """
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    k = draw(st.integers(1, 6))
    num_queries = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1.0, 0.25, 1e6, 1e30]))
    qidx, cand, d2 = [], [], []
    for query in range(num_queries):
        points = draw(
            st.lists(st.integers(0, 40), max_size=3 * k + 2, unique=True)
        )
        levels = draw(
            st.lists(
                st.integers(0, 4), min_size=len(points), max_size=len(points)
            )
        )
        qidx += [query] * len(points)
        cand += points
        d2 += levels
    shuffle = draw(st.permutations(range(len(qidx))))
    qidx = np.asarray(qidx, dtype=np.int64)[list(shuffle)]
    cand = np.asarray(cand, dtype=np.int64)[list(shuffle)]
    d2 = (np.asarray(d2, dtype=np.float64)[list(shuffle)] * scale).astype(dtype)
    return qidx, cand, d2, num_queries, k


@settings(max_examples=200, deadline=None)
@given(candidate_lists())
def test_topk_rows_matches_full_sort(case):
    got = M._topk_rows(*case)
    want = topk_rows_reference(*case)
    for got_part, want_part in zip(got, want):
        assert np.array_equal(got_part, want_part)


def test_topk_rows_keeps_ties_at_rank_k():
    # Query 0: three candidates tie with its 2nd-smallest distance.
    qidx = np.array([0, 0, 0, 0, 0, 1], dtype=np.int64)
    cand = np.array([9, 7, 3, 5, 1, 2], dtype=np.int64)
    d2 = np.array([2.0, 1.0, 1.0, 4.0, 1.0, 0.0])
    sq, sc, sd, rank, kth = M._topk_rows(qidx, cand, d2, 2, 2)
    assert np.array_equal(sq, [0, 0, 1])
    assert np.array_equal(sc, [1, 3, 2])
    assert np.array_equal(rank, [0, 1, 0])
    assert np.array_equal(kth, [1.0, np.inf])


@st.composite
def grid_clouds(draw):
    """Small integer grids full of equal distances, some duplicate points,
    and queries that may sit far outside the grid."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    coord = st.integers(0, 5)
    point = st.tuples(coord, coord, coord)
    pts = draw(st.lists(point, min_size=1, max_size=60))
    far = st.tuples(*([st.sampled_from([-300, 0, 2, 300])] * 3))
    qs = draw(st.lists(st.one_of(point, far), min_size=1, max_size=12))
    return np.asarray(pts, dtype=dtype), np.asarray(qs, dtype=dtype)


@settings(max_examples=60, deadline=None)
@given(grid_clouds(), st.integers(1, 9))
def test_knn_matches_bruteforce_on_tied_grids(cloud, k):
    pts, qs = cloud
    assert_knn_identical(M.knn(pts, qs, k=k), M.knn_bruteforce(pts, qs, k=k))
    assert_knn_identical(M.knn(pts, k=k), M.knn_bruteforce(pts, k=k))


@settings(max_examples=60, deadline=None)
@given(grid_clouds(), st.integers(1, 70))
def test_fps_matches_bruteforce_on_duplicate_points(cloud, num_samples):
    pts, _ = cloud
    got = M.farthest_point_sample(pts, num_samples)
    want = M.farthest_point_sample_bruteforce(pts, num_samples)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.counts, want.counts)
    # One full distance sweep per pick.
    assert got.stats.candidates == got.stats.matches * len(pts)


def test_column_distances_match_row_sums():
    """The shared ``(dx*dx + dy*dy) + dz*dz`` equals numpy's length-3
    row ``sum`` bit for bit, in both float widths."""
    rng = np.random.default_rng(4)
    for dtype in (np.float64, np.float32):
        queries = (rng.normal(size=(300, 3)) * 1e3).astype(dtype)
        points = (rng.normal(size=(200, 3)) * 1e-2).astype(dtype)
        diff = queries[:, None, :] - points[None, :, :]
        want = (diff * diff).sum(axis=2)
        assert np.array_equal(M._distance_matrix(queries, points), want)
