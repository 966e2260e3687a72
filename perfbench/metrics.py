"""Metric names, units and the statistics the benchmark reports.

The names and units here are the ones ``BENCHMARK.json`` declares; the
self-test checks that the two agree.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, Sequence

END_TO_END: Dict[str, str] = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER: Dict[str, str] = {
    "geometry.voxelize_ms": "ms",
    "session.warm_ms": "ms",
    "session.run_ms": "ms",
    "session.estimate_ms": "ms",
    "session.map_ms": "ms",
    "rulebook.hits": "count/op",
    "rulebook.misses": "count/op",
    "rulebook.patches": "count/op",
    "rulebook.patch_ratio": "ratio",
    "plan.hits": "count/op",
    "plan.misses": "count/op",
    "engine.gather_ms": "ms",
    "engine.gemm_ms": "ms",
    "engine.scatter_ms": "ms",
    "engine.matches": "count/op",
    "arch.modeled_cycles": "cycles",
    "arch.modeled_mapping_cycles": "cycles",
    "mapping.hits": "count/op",
    "mapping.misses": "count/op",
    "mapping.patches": "count/op",
    "mapping.rebuilds": "count/op",
    "mapping.patch_ratio": "ratio",
    "server.queue_wait_ms": "ms",
    "server.linger_ms": "ms",
    "server.execute_ms": "ms",
    "server.batch_size": "count",
    "server.busy_ratio": "ratio",
    "server.shed": "count",
    "server.open_p50_ms": "ms",
    "server.open_tail_ms": "ms",
    "cluster.rtt_ms": "ms",
    "cluster.groups": "count/op",
    "cluster.rerouted": "count",
    "cluster.spec_syncs": "count",
    "cluster.workers_lost": "count",
    "loadgen.late_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def beyond(count: int, pct: float) -> float:
    """How many of ``count`` samples lie above the ``pct`` percentile."""
    return count * (100.0 - pct) / 100.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb(children: bool = False) -> float:
    """Maximum resident set size of this process in MiB; with
    ``children``, plus that of the largest child it has waited for."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0
