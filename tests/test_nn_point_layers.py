"""Point-based layers and their session integration.

Covers the PR acceptance criteria: a PointNet++-style network runs end
to end through ``InferenceSession.run`` with every mapping op routed
through the session cache, and ``session.estimate`` reports nonzero
modeled mapping-op cycles for it.
"""

import numpy as np
import pytest

from repro.arch.mapping_model import (
    MAPPING_PIPELINE_FILL_CYCLES,
    MappingCostModel,
    MappingSimulation,
)
from repro.engine import (
    DeltaMappingCache,
    InferenceSession,
    MappingCache,
    PointNetworkEstimate,
)
from repro.nn import PointNetClassifier, PointNetConfig, SetAbstraction
from repro.sparse.coo import SparseTensor3D
from tests.conftest import table_voxels

CONFIG = PointNetConfig(
    centroids=(64, 16), widths=(16, 32), neighbors=8, seed=0
)


def voxel_tensor(seed=0, n=1200, resolution=64):
    rng = np.random.default_rng(seed)
    coords = np.unique(
        rng.integers(0, resolution, size=(n, 3)).astype(np.int64), axis=0
    )
    features = np.ones((len(coords), 1), dtype=np.float64)
    return SparseTensor3D(coords, features, (resolution,) * 3)


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------
def test_classifier_is_deterministic_per_seed():
    tensor = voxel_tensor()
    a = PointNetClassifier(CONFIG)(tensor)
    b = PointNetClassifier(CONFIG)(tensor)
    assert np.array_equal(a, b)
    other = PointNetClassifier(
        PointNetConfig(
            centroids=(64, 16), widths=(16, 32), neighbors=8, seed=1
        )
    )(tensor)
    assert not np.array_equal(a, other)
    assert a.shape == (CONFIG.num_classes,)


def test_set_abstraction_reduces_rows():
    rng = np.random.default_rng(0)
    block = SetAbstraction(
        in_channels=2, out_channels=4, num_centroids=10, neighbors=4, rng=rng
    )
    coords = np.random.default_rng(1).normal(size=(50, 3))
    features = np.random.default_rng(2).normal(size=(50, 2))
    out_coords, out_features = block((coords, features))
    assert out_coords.shape == (10, 3)
    assert out_features.shape == (10, 4)
    assert np.all(np.isfinite(out_features))


def test_set_abstraction_ball_variant_and_validation():
    block = SetAbstraction(
        in_channels=1,
        out_channels=2,
        num_centroids=5,
        neighbors=4,
        radius=3.0,
    )
    coords = np.random.default_rng(3).normal(size=(30, 3)) * 2.0
    features = np.ones((30, 1))
    _, pooled = block((coords, features))
    assert pooled.shape == (5, 2)
    with pytest.raises(ValueError, match="radius"):
        SetAbstraction(1, 2, 5, 4, radius=-1.0)
    with pytest.raises(ValueError, match="num_centroids"):
        SetAbstraction(1, 2, 0, 4)
    with pytest.raises(ValueError, match="matching rows"):
        block((coords, np.ones((29, 1))))
    with pytest.raises(ValueError, match="feature channels"):
        block((coords, np.ones((30, 3))))


def test_classifier_config_validation():
    with pytest.raises(ValueError, match="equal-length"):
        PointNetClassifier(PointNetConfig(centroids=(8,), widths=(8, 16)))
    with pytest.raises(ValueError, match="radii"):
        PointNetClassifier(
            PointNetConfig(centroids=(8, 4), widths=(8, 16), radii=(1.0,))
        )


def test_classifier_empty_cloud_returns_bias():
    net = PointNetClassifier(CONFIG)
    empty = SparseTensor3D(
        np.empty((0, 3), dtype=np.int64), np.empty((0, 1)), (8, 8, 8)
    )
    logits = net(empty)
    assert np.array_equal(logits, net.head_bias.value)


def test_classifier_traces_mapping_ops():
    net = PointNetClassifier(CONFIG)
    trace = []
    net(voxel_tensor(), trace=trace)
    # Each set-abstraction block records FPS, the search, and the gather.
    assert len(trace) == 3 * len(net.blocks)
    ops = [r.stats.op for r in trace[:3]]
    assert ops == ["farthest_point_sample", "knn", "group_points"]


# ---------------------------------------------------------------------------
# Session integration
# ---------------------------------------------------------------------------
def test_session_run_matches_direct_forward():
    tensor = voxel_tensor()
    net = PointNetClassifier(CONFIG)
    direct = net(tensor)
    session = InferenceSession(net=PointNetClassifier(CONFIG))
    served = session.run(tensor)
    assert np.array_equal(served, direct)
    assert session.stats.frames_run == 1
    # The forward routed its sampling/search ops through the cache.
    assert session.stats.mapping_misses > 0
    again = session.run(tensor)
    assert np.array_equal(again, direct)
    assert session.stats.mapping_hits > 0


def test_session_estimate_reports_nonzero_mapping_cycles():
    """PR acceptance: modeled mapping-op cycles for a point-based net."""
    session = InferenceSession(net=PointNetClassifier(CONFIG))
    estimate = session.estimate(voxel_tensor())
    assert isinstance(estimate, PointNetworkEstimate)
    assert estimate.total_mapping_cycles > 0
    assert estimate.mapping_seconds > 0.0
    assert len(estimate.mapping_ops) == 6  # 2 stages x (fps, knn, group)
    for op in estimate.mapping_ops:
        assert op.total_cycles >= MAPPING_PIPELINE_FILL_CYCLES
    assert session.stats.estimates == 1


def test_session_estimate_cycles_pinned_on_table_frame():
    """Per-op modeled cycles of one fixed frame.  The cost model prices
    the kernels' own ``MappingStats`` counters, so these numbers hold
    only while every kernel keeps its counters; they were recorded on
    the kernels that predate the column-wise distances and the
    prefiltered top-k."""
    session = InferenceSession(
        net=PointNetClassifier(PointNetConfig(neighbors=8, seed=0))
    )
    estimate = session.estimate(table_voxels())
    assert [(op.op, op.total_cycles) for op in estimate.mapping_ops] == [
        ("farthest_point_sample", 11212),
        ("knn", 2382),
        ("group_points", 336),
        ("farthest_point_sample", 336),
        ("knn", 377),
        ("group_points", 96),
    ]
    assert estimate.total_mapping_cycles == 14739


def test_session_simulate_lays_out_phases():
    session = InferenceSession(net=PointNetClassifier(CONFIG))
    sim = session.simulate(voxel_tensor())
    assert isinstance(sim, MappingSimulation)
    assert sim.total_cycles > 0
    assert sim.total_seconds == sim.total_cycles / sim.clock_hz
    # Spans are disjoint and ordered on the single shared pipeline.
    cursor = 0
    for span in sim.spans:
        assert span.start >= cursor
        assert span.end > span.start
        assert span.phase in ("sort", "merge", "gather")
        cursor = span.end
    assert session.stats.simulations == 1


def test_session_batch_surfaces_for_point_networks():
    tensors = [voxel_tensor(seed) for seed in range(3)]
    session = InferenceSession(net=PointNetClassifier(CONFIG))
    outs = session.run_batch(tensors)
    assert len(outs) == 3
    singles = [
        InferenceSession(net=PointNetClassifier(CONFIG)).run(t)
        for t in tensors
    ]
    for got, want in zip(outs, singles):
        assert np.array_equal(got, want)
    estimates = session.estimate_batch(tensors)
    assert all(e.total_mapping_cycles > 0 for e in estimates)
    sims = session.simulate_batch(tensors)
    assert all(isinstance(s, MappingSimulation) for s in sims)
    assert session.stats.batches_run == 1
    assert session.stats.frames_run == 3


def test_session_warm_rejects_point_networks():
    session = InferenceSession(net=PointNetClassifier(CONFIG))
    with pytest.raises(TypeError, match="mapping cache"):
        session.warm(voxel_tensor())


def test_session_map_dispatch_and_validation():
    session = InferenceSession()
    tensor = voxel_tensor()
    knn = session.map("knn", tensor, k=4)
    assert knn.indices.shape == (tensor.nnz, 4)
    ball = session.map("ball_query", tensor, radius=2.0, max_samples=4)
    assert ball.indices.shape == (tensor.nnz, 4)
    fps = session.map("fps", tensor, num_samples=16)
    assert fps.indices.shape == (16,)
    grouped = session.map(
        "group_points", tensor.features, indices=knn.indices
    )
    assert grouped.grouped.shape == (tensor.nnz, 4, 1)
    assert session.stats.mapping_misses == 3  # group bypasses the cache
    with pytest.raises(TypeError, match="requires k="):
        session.map("knn", tensor)
    with pytest.raises(TypeError, match="unexpected parameters"):
        session.map("knn", tensor, k=4, radius=1.0)
    with pytest.raises(ValueError, match="op must be"):
        session.map("nearest", tensor, k=4)
    with pytest.raises(ValueError, match="no queries"):
        session.map("fps", tensor, queries=tensor.coords, num_samples=4)


def test_session_mapping_cache_follows_delta_posture():
    assert isinstance(InferenceSession().mapping_cache, MappingCache)
    assert not isinstance(
        InferenceSession().mapping_cache, DeltaMappingCache
    )
    delta_session = InferenceSession(delta=0.25)
    assert isinstance(delta_session.mapping_cache, DeltaMappingCache)
    assert delta_session.mapping_cache.threshold == 0.25
    injected = MappingCache(capacity=4)
    session = InferenceSession(mapping_cache=injected)
    assert session.mapping_cache is injected
    with pytest.raises(TypeError, match="MappingCache"):
        InferenceSession(mapping_cache=object())


def test_session_mapping_stats_and_reset():
    session = InferenceSession(delta=0.25)
    rng = np.random.default_rng(0)
    coords = np.unique(
        rng.integers(0, 64, size=(800, 3)).astype(np.int64), axis=0
    )
    session.map("knn", coords, k=4)
    churned = np.unique(
        np.concatenate(
            [coords[10:], rng.integers(0, 64, size=(10, 3)).astype(np.int64)]
        ),
        axis=0,
    )
    session.map("knn", churned, k=4)
    stats = session.stats
    assert stats.mapping_misses == 2
    assert stats.mapping_patches == 1
    assert stats.mapping_rebuilds == 1
    session.reset_stats()
    stats = session.stats
    assert stats.mapping_misses == 0 and stats.mapping_patches == 0


def test_mapping_cost_model_scales_with_workload():
    model = MappingCostModel()
    small = model.estimate(
        InferenceSession().map("knn", voxel_tensor(0, n=400).coords, k=4).stats
    )
    large = model.estimate(
        InferenceSession().map("knn", voxel_tensor(0, n=3000).coords, k=4).stats
    )
    assert large.sort_cycles > small.sort_cycles
    assert large.total_cycles > small.total_cycles
    assert small.phase_cycles()[0][0] == "sort"
    assert small.seconds(1e9) == small.total_cycles / 1e9
