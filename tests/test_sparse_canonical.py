"""Packed-key canonicalization against row-wise ``np.unique`` references.

Coordinates are sorted, deduplicated and counted by their packed
``int64`` key.  Each packed-key path is checked here against a reference
that does the same work on ``(N, 3)`` rows with ``np.unique(axis=0)``,
on coordinates at 0, at ``shape - 1`` and near the ``2**21 - 1`` packing
limit, plus empty and all-duplicate inputs.  The analytical estimate of
a fixed 192^3 scene is pinned to values recorded before the change.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import AcceleratorConfig, AnalyticalModel, TileGrid, count_active_tiles
from repro.engine import InferenceSession
from repro.geometry.synthetic import make_shapenet_like_cloud
from repro.geometry.voxelizer import Voxelizer
from repro.nn import UNetConfig
from repro.nn.rulebook import downsampled_coords
from repro.sparse import SparseTensor3D

LIMIT = 2 ** 21


# ----------------------------------------------------------------------
# Row-wise references
# ----------------------------------------------------------------------
def ref_from_points(coords, features, reduce):
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    if features is None:
        features = np.ones((len(coords), 1))
    features = np.asarray(features, dtype=np.float64)
    unique, inverse = np.unique(coords, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    accum = np.zeros((len(unique), features.shape[1]))
    if reduce == "max":
        accum.fill(-np.inf)
        np.maximum.at(accum, inverse, features)
    else:
        np.add.at(accum, inverse, features)
        if reduce == "mean":
            accum /= np.bincount(inverse, minlength=len(unique))[:, None]
    return unique, accum


def ref_downsampled(coords, kernel_size, stride):
    """Every q with ``q * stride <= p < q * stride + K`` for some input p."""
    cells = []
    for p in np.asarray(coords, dtype=np.int64).tolist():
        ranges = [
            range(max(0, -(-(v - kernel_size + 1) // stride)), v // stride + 1)
            for v in p
        ]
        cells.extend(itertools.product(*ranges))
    if not cells:
        return np.zeros((0, 3), dtype=np.int64)
    return np.unique(np.asarray(cells, dtype=np.int64), axis=0)


def ref_tiles(tensor, tile_shape):
    """``[(tile_index, rows), ...]`` in lexicographic tile order."""
    if not tensor.nnz:
        return []
    tile_of_site = tensor.coords // np.asarray(tile_shape, dtype=np.int64)
    unique, inverse = np.unique(tile_of_site, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    return [
        (tuple(index), np.flatnonzero(inverse == i))
        for i, index in enumerate(unique.tolist())
    ]


# ----------------------------------------------------------------------
# Strategies: coordinates hugging 0, shape - 1 and the packing limit
# ----------------------------------------------------------------------
SHAPES = st.sampled_from([(6, 7, 5), (1, 1, 1), (40, 3, 64), (LIMIT, LIMIT, LIMIT)])


def axis_value(extent):
    return st.one_of(
        st.integers(0, min(3, extent - 1)),
        st.integers(max(0, extent - 4), extent - 1),
    )


@st.composite
def point_sets(draw, max_points=40):
    """``(coords, shape)`` with repeats: distinct sites drawn near the
    edges of ``shape``, then sampled with replacement."""
    shape = draw(SHAPES)
    site = st.tuples(*(axis_value(extent) for extent in shape))
    sites = draw(st.lists(site, min_size=1, max_size=12))
    picks = draw(
        st.lists(st.integers(0, len(sites) - 1), min_size=0, max_size=max_points)
    )
    coords = np.asarray([sites[i] for i in picks], dtype=np.int64).reshape(-1, 3)
    return coords, shape


@st.composite
def tensors(draw):
    coords, shape = draw(point_sets())
    coords = np.unique(coords, axis=0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    return SparseTensor3D(rng.permutation(coords), np.arange(len(coords)), shape)


# ----------------------------------------------------------------------
# SparseTensor3D construction
# ----------------------------------------------------------------------
@given(point_sets(), st.sampled_from(["mean", "sum", "max"]), st.integers(0, 3),
       st.integers(0, 2 ** 16))
@settings(max_examples=80, deadline=None)
def test_from_points_matches_rowwise_unique(points, reduce, channels, seed):
    coords, shape = points
    features = (
        None if channels == 0
        else np.random.default_rng(seed).standard_normal((len(coords), channels))
    )
    tensor = SparseTensor3D.from_points(coords, features, shape, reduce=reduce)
    unique, accum = ref_from_points(coords, features, reduce)
    assert np.array_equal(tensor.coords, unique)
    assert np.array_equal(tensor.features, accum)
    assert tensor.num_channels == max(channels, 1)


def test_from_points_all_duplicates():
    coords = np.tile([[LIMIT - 1, 0, LIMIT - 1]], (5, 1))
    features = np.arange(10.0).reshape(5, 2)
    tensor = SparseTensor3D.from_points(coords, features, (LIMIT,) * 3)
    assert tensor.coords.tolist() == [[LIMIT - 1, 0, LIMIT - 1]]
    assert tensor.features.tolist() == [[4.0, 5.0]]


@pytest.mark.parametrize("features, channels", [(None, 1), (np.zeros((0, 3)), 3)])
def test_from_points_empty(features, channels):
    tensor = SparseTensor3D.from_points(np.zeros((0, 3)), features, (4, 4, 4))
    assert tensor.nnz == 0
    assert tensor.coords.shape == (0, 3)
    assert tensor.num_channels == channels


def test_from_points_rejects_wrong_length_features():
    coords = [[0, 0, 0], [1, 1, 1], [1, 1, 1]]
    with pytest.raises(ValueError, match="disagree"):
        SparseTensor3D.from_points(coords, [[5.0]], (4, 4, 4))


def test_from_points_validates_reduce_on_empty_input():
    with pytest.raises(ValueError, match="unknown reduce"):
        SparseTensor3D.from_points(np.zeros((0, 3)), None, (4, 4, 4), reduce="bogus")


def test_from_points_checks_bounds_before_packing():
    with pytest.raises(ValueError, match="non-negative"):
        SparseTensor3D.from_points([[0, -1, 0]], None, (4, 4, 4))
    with pytest.raises(ValueError, match="bounds"):
        SparseTensor3D.from_points([[0, 4, 0], [0, 4, 0]], None, (4, 4, 4))


@given(point_sets(), st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_constructor_sorts_rows_lexicographically(points, seed):
    coords, shape = points
    coords = np.random.default_rng(seed).permutation(np.unique(coords, axis=0))
    tensor = SparseTensor3D(coords, np.arange(len(coords)), shape)
    order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
    assert np.array_equal(tensor.coords, coords[order])
    assert np.array_equal(tensor.features[:, 0], order)


def test_constructor_detects_duplicates_near_the_packing_limit():
    coords = [[LIMIT - 1, LIMIT - 1, LIMIT - 2], [0, 0, 0], [LIMIT - 1, LIMIT - 1, LIMIT - 2]]
    with pytest.raises(ValueError, match="duplicate"):
        SparseTensor3D(coords, np.ones(3), (LIMIT,) * 3)


def test_coordinates_beyond_the_packing_limit_are_rejected():
    with pytest.raises(ValueError, match="packing"):
        SparseTensor3D([[LIMIT, 0, 0]], np.ones(1), (LIMIT + 1, 1, 1))


# ----------------------------------------------------------------------
# Strided output coordinates
# ----------------------------------------------------------------------
@given(tensors(), st.sampled_from([(2, 2), (3, 3), (3, 2), (4, 3), (5, 2)]))
@settings(max_examples=80, deadline=None)
def test_downsampled_coords_match_rowwise_unique(tensor, kernel_stride):
    kernel_size, stride = kernel_stride
    out = downsampled_coords(tensor.coords, kernel_size, stride)
    assert out.dtype == np.int64
    assert np.array_equal(out, ref_downsampled(tensor.coords, kernel_size, stride))


@pytest.mark.parametrize("kernel_size, stride", [(2, 2), (3, 2)])
def test_downsampled_coords_empty(kernel_size, stride):
    out = downsampled_coords(np.zeros((0, 3), dtype=np.int64), kernel_size, stride)
    assert out.shape == (0, 3)


# ----------------------------------------------------------------------
# Tiles
# ----------------------------------------------------------------------
TILE_SHAPES = st.sampled_from([(1, 1, 1), (2, 2, 2), (4, 4, 4), (8, 8, 8), (3, 5, 2)])


@given(tensors(), TILE_SHAPES)
@settings(max_examples=80, deadline=None)
def test_tile_grid_matches_rowwise_unique(tensor, tile_shape):
    grid = TileGrid(tensor, tile_shape)
    expected = ref_tiles(tensor, tile_shape)
    assert [t.index for t in grid.active_tiles] == [index for index, _ in expected]
    for tile, (_, rows) in zip(grid.active_tiles, expected):
        assert np.array_equal(tile.rows, rows)


@given(tensors(), TILE_SHAPES)
@settings(max_examples=80, deadline=None)
def test_active_tile_count_matches_tile_grid(tensor, tile_shape):
    grid = TileGrid(tensor, tile_shape)
    active = count_active_tiles(tensor.coords, tile_shape)
    assert active == grid.num_active_tiles == len(ref_tiles(tensor, tile_shape))
    assert active * grid.tile_volume() == grid.scanned_positions()


def test_active_tile_count_empty():
    assert count_active_tiles(np.zeros((0, 3), dtype=np.int64), (8, 8, 8)) == 0


# ----------------------------------------------------------------------
# Analytical estimate pinned to pre-change values
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def chair_192():
    cloud = make_shapenet_like_cloud(seed=3, category="chair")
    return Voxelizer(192, normalize=False, occupancy_only=True).voxelize(cloud)


def test_chair_scene_is_the_recorded_one(chair_192):
    assert chair_192.nnz == 2042
    assert chair_192.coords_digest().hex() == "d2a21751d4ea08366bf8872b1b1176dd"


@pytest.mark.parametrize(
    "tile, scanned", [(4, 12864), (8, 19456), (12, 57024), (16, 53248)]
)
def test_scanned_positions_pinned(chair_192, tile, scanned):
    model = AnalyticalModel(AcceleratorConfig(tile_shape=(tile, tile, tile)))
    assert model.scanned_positions(chair_192) == scanned
    assert TileGrid(chair_192, (tile,) * 3).scanned_positions() == scanned


def test_estimate_per_layer_pinned(chair_192):
    session = InferenceSession(
        unet_config=UNetConfig(in_channels=1, num_classes=4, base_channels=4, levels=3)
    )
    estimate = session.estimate(chair_192)
    assert [(layer.name, layer.cycles) for layer in estimate.layers] == [
        ("enc0.conv0", 58376),
        ("enc1.conv0", 19976),
        ("bottom.conv0", 6152),
        ("dec1.conv0", 19976),
        ("dec0.conv0", 58376),
    ]
    # The overhead term consumes the mask-buffer bits.
    assert [layer.overhead_seconds for layer in estimate.layers] == [
        0.0005191333333333333,
        0.0005189066666666667,
        0.0005114933333333334,
        0.0005287333333333334,
        0.0005435866666666667,
    ]
