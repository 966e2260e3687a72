"""Shared fixtures: small deterministic sparse tensors and workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse.coo import SparseTensor3D


def random_sparse_tensor(
    seed: int = 0,
    shape: tuple = (16, 16, 16),
    nnz: int = 40,
    channels: int = 4,
) -> SparseTensor3D:
    """A reproducible random sparse tensor with unique coordinates."""
    rng = np.random.default_rng(seed)
    volume = shape[0] * shape[1] * shape[2]
    nnz = min(nnz, volume)
    flat = rng.choice(volume, size=nnz, replace=False)
    coords = np.stack(np.unravel_index(flat, shape), axis=1)
    features = rng.standard_normal((nnz, channels))
    return SparseTensor3D(coords, features, shape)


def table_voxels() -> SparseTensor3D:
    """A fixed voxelized table: 1,285 occupied voxels on a 96^3 grid."""
    from repro.geometry.synthetic import make_shapenet_like_cloud
    from repro.geometry.voxelizer import Voxelizer

    cloud = make_shapenet_like_cloud(
        seed=0, category="table", n_points=8000, grid_fraction=0.3
    )
    voxelizer = Voxelizer(resolution=96, normalize=False, occupancy_only=True)
    return voxelizer.voxelize(cloud)


@pytest.fixture
def small_tensor() -> SparseTensor3D:
    return random_sparse_tensor(seed=1, shape=(12, 12, 12), nnz=30, channels=3)


@pytest.fixture
def single_channel_tensor() -> SparseTensor3D:
    return random_sparse_tensor(seed=2, shape=(10, 10, 10), nnz=25, channels=1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
