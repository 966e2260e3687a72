"""Canonical CSR lowering of :meth:`ScipySparseBackend.prepare`.

``_lower_operators`` assembles the gather directly and the scatter
through its trivial CSC form (CSC -> sorted CSR in one conversion
pass).  The operators it emits are array-for-array identical — indptr,
indices, and data, dtypes included — to the COO construction, and the
plan of a delta-spliced rulebook (whose gather/scatter plan the patcher
pre-seeds) lowers identically to that of a from-scratch rulebook.
"""

import numpy as np
import pytest

from repro.engine import coordinate_delta
from repro.engine.backend import ScipySparseBackend
from repro.nn import build_submanifold_rulebook
from tests.test_engine_backend import _assert_csr_plans_identical, _patched_pair


def _scipy_backend():
    backend = ScipySparseBackend()
    if backend.degraded:
        pytest.skip("scipy not installed")
    return backend


def test_cold_prepare_matches_coo_lowering():
    """The canonical lowering reproduces the COO fallback's operators."""
    backend = _scipy_backend()
    _, new, _, patched = _patched_pair()
    plan_gs = patched.plan()
    canonical = backend._lower_operators(
        plan_gs, patched.num_inputs, patched.num_outputs
    )
    fallback = backend._lower_operators_coo(
        plan_gs, patched.num_inputs, patched.num_outputs
    )
    assert canonical is not None
    for mine, theirs in zip(canonical, fallback):
        assert mine.shape == theirs.shape
        assert np.array_equal(
            np.asarray(mine.indptr), np.asarray(theirs.indptr)
        )
        assert np.array_equal(
            np.asarray(mine.indices), np.asarray(theirs.indices)
        )
        assert np.array_equal(mine.data, theirs.data)


def test_cold_prepared_and_spliced_plans_identical():
    """The refreshed plan of a spliced rulebook equals the cold-prepared
    plan of the from-scratch rulebook, array for array."""
    warm = _scipy_backend()
    cold = ScipySparseBackend()
    old, new, old_rulebook, patched = _patched_pair()
    warm.plan_for(old_rulebook)
    warm.refresh(
        old_rulebook, patched, coordinate_delta(old.coords, new.coords)
    )
    assert warm.plans_refreshed == 1
    prepared = cold.prepare(build_submanifold_rulebook(new, 3))
    _assert_csr_plans_identical(warm.plan_for(patched), prepared)


def test_cold_prepare_survives_missing_c_kernel(monkeypatch):
    """Without ``csc_tocsr`` the public-conversion fallback lowers the
    same sorted arrays (scipy >= 1.14 dropped the standalone kernel)."""
    backend = _scipy_backend()
    _, _, _, patched = _patched_pair()
    plan_gs = patched.plan()
    reference = backend._lower_operators(
        plan_gs, patched.num_inputs, patched.num_outputs
    )
    tools = getattr(backend._sparse, "_sparsetools", None)
    if tools is not None and hasattr(tools, "csc_tocsr"):
        monkeypatch.delattr(tools, "csc_tocsr")
    via_public = backend._lower_operators(
        plan_gs, patched.num_inputs, patched.num_outputs
    )
    for mine, theirs in zip(via_public, reference):
        assert np.array_equal(
            np.asarray(mine.indptr), np.asarray(theirs.indptr)
        )
        assert np.array_equal(
            np.asarray(mine.indices), np.asarray(theirs.indices)
        )
        assert np.array_equal(mine.data, theirs.data)
