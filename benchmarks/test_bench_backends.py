"""Backend comparison benchmark: numpy vs scipy.

Measures the two local execution backends on the default streaming
workload (192^3 occupancy grid, Sub-Conv 1->16) at the convolution
level, and on a multi-group ``run_batch`` workload at the session level.
Parity is asserted (bit-identical outputs); relative speed is *reported*
— which engine wins is workload- and machine-dependent, and the report
(``results/backend_speedup.txt``) is the artifact CI uploads.
"""

import os
import statistics
import time

import numpy as np

from repro.engine import InferenceSession, get_backend
from repro.geometry.synthetic import make_shapenet_like_cloud
from repro.geometry.voxelizer import Voxelizer
from repro.nn import RulebookCache, UNetConfig
from tests.conftest import random_sparse_tensor


def conv_workload():
    """The StreamingRunner default: occupancy grid at 192^3, Sub-Conv 1->16."""
    cloud = make_shapenet_like_cloud(seed=0, n_points=60000)
    grid = Voxelizer(resolution=192, normalize=False, occupancy_only=True).voxelize(
        cloud
    )
    weights = np.random.default_rng(0).standard_normal((27, 1, 16))
    rulebook = RulebookCache().submanifold(grid, 3)
    return grid, rulebook, weights


def median_seconds(fn, reps=15, warmup=2):
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def batch_workload(groups=4, frames_per_group=3):
    """Multi-group run_batch load: distinct site sets, repeated features."""
    cfg = UNetConfig(in_channels=2, num_classes=8, base_channels=8, levels=3)
    rng = np.random.default_rng(1)
    frames = []
    for g in range(groups):
        base = random_sparse_tensor(
            seed=100 + g, shape=(32, 32, 32), nnz=600, channels=2
        )
        frames.append(base)
        frames.extend(
            base.with_features(rng.standard_normal((base.nnz, 2)))
            for _ in range(frames_per_group - 1)
        )
    return cfg, frames


def test_bench_backend_conv_parity_and_speed(write_report):
    grid, rulebook, weights = conv_workload()
    numpy_backend = get_backend("numpy")
    scipy_backend = get_backend("scipy")
    reference = numpy_backend.execute(rulebook, grid.features, weights, grid.nnz)
    scipy_out = scipy_backend.execute(rulebook, grid.features, weights, grid.nnz)
    assert np.array_equal(scipy_out, reference)

    numpy_s = median_seconds(
        lambda: numpy_backend.execute(rulebook, grid.features, weights, grid.nnz)
    )
    scipy_s = median_seconds(
        lambda: scipy_backend.execute(rulebook, grid.features, weights, grid.nnz)
    )

    cfg, frames = batch_workload()
    local = InferenceSession(unet_config=cfg, backend="numpy")
    csr = InferenceSession(unet_config=cfg, backend="scipy")
    expected = local.run_batch(frames)
    for out, ref in zip(csr.run_batch(frames), expected):
        assert np.array_equal(out.features, ref.features)
    local_s = median_seconds(lambda: local.run_batch(frames), reps=7)
    csr_s = median_seconds(lambda: csr.run_batch(frames), reps=7)

    degraded = " (DEGRADED: scipy absent, numpy fallback)" if getattr(
        scipy_backend, "degraded", False
    ) else ""
    lines = [
        "Execution-backend comparison (bit-identical outputs asserted)",
        "",
        f"Sub-Conv 1->16 @ 192^3, nnz={grid.nnz}, "
        f"matches={rulebook.total_matches}:",
        f"  numpy  fused engine   {numpy_s * 1e3:9.3f} ms/layer",
        f"  scipy  CSR operators  {scipy_s * 1e3:9.3f} ms/layer "
        f"({numpy_s / scipy_s:5.2f}x vs numpy){degraded}",
        "",
        f"run_batch, {len(frames)} frames in 4 digest groups "
        "(3-level U-Net @ 32^3):",
        f"  numpy  fused engine   {local_s * 1e3:9.3f} ms/batch",
        f"  scipy  CSR operators  {csr_s * 1e3:9.3f} ms/batch "
        f"({local_s / csr_s:5.2f}x vs numpy){degraded}",
        "",
        f"machine: {os.cpu_count()} CPU core(s) visible",
    ]
    write_report("backend_speedup", "\n".join(lines))
    # Parity is the hard requirement; relative speed is informational.
    assert numpy_s > 0 and scipy_s > 0 and local_s > 0 and csr_s > 0
