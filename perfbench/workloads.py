"""The benchmark's workloads: ``stream``, ``serve``, ``points``, ``cluster``.

Each workload builds its inputs from the seed before anything is timed,
sets the program up several times (the median is ``setup_s``), computes
a reference for every distinct input on a code path other than the
timed one, and then measures for the given number of seconds, checking
every output bit for bit against its reference as it completes.  See
``README.md`` in this directory for why each workload exists and which
end-to-end metric each layer should move.

Every layer is timed from outside, by spans around calls into the
program's public surfaces, and by the counters those surfaces expose.
In a traced run every other operation is traced; the untraced ones
give ``trace.overhead_ratio``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.engine import InferenceSession
from repro.geometry import Voxelizer, make_shapenet_like_cloud
from repro.nn import PointNetClassifier, PointNetConfig
from repro.runtime import (
    DriftingSceneSource,
    LocalWorkerFleet,
    RemoteShardBackend,
    SessionServer,
)

import load
from metrics import PER_LAYER, beyond, median, peak_rss_mb, ratio
from tracing import Tracer

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Open-loop arrival rate of ``serve``, about 40% of the 8-client
#: saturated throughput measured on a 2-core x86 container (README.md).
SERVE_RATE_HZ = 16.0
#: Length of the open-loop phase of a traced ``serve`` run, and its
#: largest share of a short run; the rest is the closed-loop phase.
SERVE_OPEN_S = 3.0
SERVE_OPEN_SHARE = 0.3
CLIENTS = 8
#: Server settings of the closed-loop phases.  A micro-batch closes as
#: soon as all clients' requests are in, and the linger only bounds the
#: wait for a straggler.  With the server's default 2 ms linger, a client
#: that resumes late (say, on a busy host) misses its batch, the clients
#: split into two cohorts that take turns, and latency jumps between one
#: batch's execution and two.
CLOSED_SERVER = {"max_batch": CLIENTS, "max_delay_s": 0.05}
#: Untimed seconds at the start of each closed-loop phase.  The server
#: executes batches on a fresh executor thread, and a phase's first
#: batches were often up to 1.7x slower than later ones.
CLOSED_WARMUP_S = 1.5
CLUSTER_WORKERS = 1
REQUEST_TIMEOUT_S = 10.0
#: Per workload, the percentile reported as ``latency_tail_ms``: the
#: highest one with at least ten samples beyond it in a 20 s run at full
#: size, also on a host at the slowest speed measured so far.  The
#: 8-client loops of ``serve`` and ``cluster`` coalesce into micro-batches
#: of 8 requests that share one latency, so there p90 keeps several
#: batches, not just ten requests, beyond the percentile.
TAIL_PERCENTILE = {"stream": 90.0, "serve": 90.0, "points": 95.0,
                   "cluster": 90.0}
#: The highest percentile with ten of the 48 open-loop requests beyond.
OPEN_TAIL_PERCENTILE = 79.0

OFF = Tracer(enabled=False)


@dataclass(frozen=True)
class Size:
    points: int       # points per generated cloud
    resolution: int   # voxel grid side
    pool: int         # distinct frames (stream, points) or scenes


SIZES: Dict[str, Dict[str, Size]] = {
    "full": {
        "stream": Size(points=20000, resolution=192, pool=25),
        "points": Size(points=20000, resolution=128, pool=17),
        "serve": Size(points=8000, resolution=96, pool=4),
    },
    "tiny": {
        "stream": Size(points=1500, resolution=48, pool=5),
        "points": Size(points=1500, resolution=48, pool=5),
        "serve": Size(points=1200, resolution=32, pool=4),
    },
}


@dataclass
class Result:
    attempted: int
    failed: int
    wrong: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    tracer: Tracer
    notes: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def drifting_clouds(
    seed: int, category: str, size: Size, churn: float
) -> list:
    """``size.pool`` frames of a drifting scene of one fixed category.

    A fixed category keeps the voxel count the same from seed to seed;
    the small jitter keeps it the same from frame to frame.
    """
    base = make_shapenet_like_cloud(
        seed=seed, category=category, n_points=size.points,
        grid_fraction=0.3,
    )
    source = DriftingSceneSource(
        base_cloud=base, num_frames=size.pool, churn=churn,
        jitter_sigma=0.001, seed=seed,
    )
    return list(source)


def zigzag(pool: int) -> List[int]:
    """Visit order over a drift chain: even frames up, odd frames down.

    Consecutive visits are at most two drift steps apart, so each one is
    a near-miss the delta caches patch; each frame recurs only after
    ``pool`` visits, beyond what the session caches hold.
    """
    return list(range(0, pool, 2)) + list(range(pool - 1 - pool % 2, 0, -2))


def scene_pool(seed: int, size: Size) -> list:
    """``size.pool`` static voxelized chairs, sampled from the seed.

    One category gives scenes of near-equal size, so how the hash ring
    happens to place them on the cluster's workers barely changes the
    work each worker gets.
    """
    voxelizer = Voxelizer(
        resolution=size.resolution, normalize=False, occupancy_only=True
    )
    return [
        voxelizer.voxelize(make_shapenet_like_cloud(
            seed=seed * size.pool + i, category="chair",
            n_points=size.points,
        ))
        for i in range(size.pool)
    ]


# ----------------------------------------------------------------------
# Shared measurement helpers
# ----------------------------------------------------------------------
def timed_setup(build: Callable[[], object], discard=None):
    """Run ``build`` SETUP_REPEATS times; keep the last, return all times."""
    made, times = None, []
    for _ in range(SETUP_REPEATS):
        if made is not None and discard is not None:
            discard(made)
        start = time.perf_counter()
        made = build()
        times.append(time.perf_counter() - start)
    return made, times


def traced(tracer: Tracer, index: int) -> Tracer:
    """Every other operation is traced; the rest measure the overhead."""
    return tracer if tracer.enabled and index % 2 == 0 else OFF


def window_seconds(outcomes: Sequence[load.Outcome]) -> float:
    return max(o.done for o in outcomes) - min(o.due for o in outcomes)


def latency_metrics(
    outcomes: Sequence[load.Outcome], tail_pct: float
) -> Dict[str, float]:
    latencies = [o.latency * 1e3 for o in outcomes if o.error is None]
    if not latencies:
        raise RuntimeError("no operation completed")
    return {
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": float(np.percentile(latencies, tail_pct)),
    }


def overhead_ratio(outcomes: Sequence[load.Outcome]) -> float:
    """Median latency of traced operations over that of untraced ones."""
    ok = [o for o in outcomes if o.error is None]
    on = [o.latency for o in ok if o.index % 2 == 0]
    off = [o.latency for o in ok if o.index % 2 == 1]
    return ratio(median(on), median(off))


def session_layers(before, after, ops: int) -> Dict[str, float]:
    """Per-operation deltas of the session's ``SessionStats`` counters."""

    def per_op(name: str) -> float:
        return ratio(getattr(after, name) - getattr(before, name), ops)

    rulebook_misses = after.rulebook_misses - before.rulebook_misses
    mapping_misses = after.mapping_misses - before.mapping_misses
    return {
        "rulebook.hits": per_op("rulebook_hits"),
        "rulebook.misses": per_op("rulebook_misses"),
        "rulebook.patches": per_op("delta_patches"),
        "rulebook.patch_ratio": ratio(
            after.delta_patches - before.delta_patches, rulebook_misses
        ),
        "plan.hits": per_op("plan_hits"),
        "plan.misses": per_op("plan_misses"),
        "engine.gather_ms": per_op("gather_seconds") * 1e3,
        "engine.gemm_ms": per_op("gemm_seconds") * 1e3,
        "engine.scatter_ms": per_op("scatter_seconds") * 1e3,
        "engine.matches": per_op("apply_matches"),
        "mapping.hits": per_op("mapping_hits"),
        "mapping.misses": per_op("mapping_misses"),
        "mapping.patches": per_op("mapping_patches"),
        "mapping.rebuilds": per_op("mapping_rebuilds"),
        "mapping.patch_ratio": ratio(
            after.mapping_patches - before.mapping_patches, mapping_misses
        ),
    }


def span_layers(tracer: Tracer, names: Dict[str, str]) -> Dict[str, float]:
    """Median self time of the named spans, as per-layer metrics."""
    medians = tracer.self_time_medians_ms()
    return {metric: medians.get(span, 0.0) for metric, span in names.items()}


def server_layers(server: SessionServer) -> Dict[str, float]:
    """Queue, linger and execute means plus batching from the server."""
    stats = server.stats
    reg = server.registry

    def mean_ms(name: str) -> float:
        hist = reg.get(name)
        return ratio(hist.sum(), hist.count()) * 1e3

    return {
        "server.queue_wait_ms": mean_ms("repro_serve_queue_wait_seconds"),
        "server.linger_ms": mean_ms("repro_serve_linger_seconds"),
        "server.execute_ms": mean_ms("repro_serve_execute_seconds"),
        "server.batch_size": stats.mean_batch_size,
        "server.busy_ratio": ratio(stats.busy_seconds, stats.wall_seconds),
        "server.shed": float(
            stats.rejected_overload + stats.rejected_deadline
            + stats.rejected_cancelled
        ),
    }


def checker(reference, same, corrupt=None) -> load.Check:
    """Replace each output by whether it equals its input's reference.

    ``corrupt`` (self-test only) damages the first output checked, so the
    self-test can show that a wrong output is counted as failed.
    """

    def check(outcome: load.Outcome) -> None:
        nonlocal corrupt
        output = outcome.output
        if corrupt is not None:
            output, corrupt = corrupt(output), None
        outcome.output = same(output, reference[outcome.choice])

    return check


def count_wrong(outcomes: Sequence[load.Outcome]) -> int:
    return sum(1 for o in outcomes if o.error is None and not o.output)


def tensors_equal(a, b) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.coords, b.coords)
        and np.array_equal(a.features, b.features)
    )


def shifted_features(tensor):
    return tensor.with_features(tensor.features + 1.0)


def finish(outcomes, end_to_end, per_layer, tracer, notes=()) -> Result:
    wrong = count_wrong(outcomes)
    failed = sum(1 for o in outcomes if o.error is not None) + wrong
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update(per_layer)
    errors = sorted({o.error for o in outcomes if o.error is not None})
    return Result(
        attempted=len(outcomes),
        failed=failed,
        wrong=wrong,
        end_to_end=end_to_end,
        per_layer=layers,
        tracer=tracer,
        notes=list(notes) + [f"error: {e}" for e in errors[:5]],
    )


# ----------------------------------------------------------------------
# stream: voxelize -> warm -> run -> estimate on a drifting scene
# ----------------------------------------------------------------------
def stream(seed: int, seconds: float, trace: bool, size: str = "full",
           corrupt: bool = False) -> Result:
    cfg = SIZES[size]["stream"]
    clouds = drifting_clouds(seed, "chair", cfg, churn=0.02)
    order = zigzag(cfg.pool)
    voxelizer = Voxelizer(
        resolution=cfg.resolution, normalize=False, occupancy_only=True
    )

    def frame(session, tr: Tracer, index: int, choice: int):
        with tr.span("frame", index):
            with tr.span("voxelize"):
                tensor = voxelizer.voxelize(clouds[choice])
            with tr.span("warm"):
                session.warm(tensor)
            with tr.span("run"):
                out = session.run(tensor)
            with tr.span("estimate"):
                est = session.estimate(tensor)
        return out, est

    def build():
        session = InferenceSession(delta=True)
        # One pass over the pool lets caches and the heap reach their
        # steady state; the first pass runs markedly slower.
        for choice in order:
            frame(session, OFF, -1, choice)
        return session

    session, setup_times = timed_setup(build)

    # Reference: a fresh, cold float64 numpy session per frame, delta off.
    reference = {}
    for choice, cloud in enumerate(clouds):
        cold = InferenceSession(net=session.net, backend="numpy", delta=False)
        tensor = voxelizer.voxelize(cloud)
        reference[choice] = (cold.run(tensor), cold.estimate(tensor))

    def layer_cycles(est) -> list:
        return [[layer.name, layer.cycles] for layer in est.layers]

    def same(got, want) -> bool:
        (out, est), (ref_out, ref_est) = got, want
        return tensors_equal(out, ref_out) and (
            layer_cycles(est) == layer_cycles(ref_est)
        )

    check = checker(
        reference, same,
        corrupt=(lambda o: (shifted_features(o[0]), o[1])) if corrupt else None,
    )
    tracer = Tracer(enabled=trace)

    def annotate_and_check(outcome: load.Outcome) -> None:
        if traced(tracer, outcome.index).enabled:
            tracer.annotate(
                "estimate", outcome.index,
                layers=layer_cycles(outcome.output[1]),
            )
        check(outcome)

    before = session.stats
    outcomes = load.sequential(
        lambda i, c: frame(session, traced(tracer, i), i, c),
        order, seconds, annotate_and_check,
    )
    after = session.stats
    window = window_seconds(outcomes)
    ok = sum(1 for o in outcomes if o.error is None)
    end_to_end = {
        "throughput_rps": ok / window,
        **latency_metrics(outcomes, TAIL_PERCENTILE["stream"]),
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    per_layer = {
        **span_layers(tracer, {
            "geometry.voxelize_ms": "voxelize",
            "session.warm_ms": "warm",
            "session.run_ms": "run",
            "session.estimate_ms": "estimate",
        }),
        **session_layers(before, after, len(outcomes)),
        "arch.modeled_cycles": float(sum(
            est.total_cycles for _, est in reference.values()
        )),
        "trace.overhead_ratio": overhead_ratio(outcomes),
    }
    notes = [
        f"{len(outcomes)} frames over {window:.2f} s, pool of {len(clouds)} "
        f"frames, median {median([reference[c][0].nnz for c in reference]):.0f} voxels",
        f"tail = p{TAIL_PERCENTILE['stream']:g} "
        f"({beyond(ok, TAIL_PERCENTILE['stream']):.1f} samples beyond)",
    ]
    return finish(outcomes, end_to_end, per_layer, tracer, notes)


# ----------------------------------------------------------------------
# points: PointNet run -> self-query kNN map -> estimate, drifting scene
# ----------------------------------------------------------------------
POINTNET = PointNetConfig(neighbors=8, seed=0)


def points(seed: int, seconds: float, trace: bool, size: str = "full",
           corrupt: bool = False) -> Result:
    cfg = SIZES[size]["points"]
    clouds = drifting_clouds(seed, "table", cfg, churn=0.01)
    order = zigzag(cfg.pool)
    voxelizer = Voxelizer(
        resolution=cfg.resolution, normalize=False, occupancy_only=True
    )

    def frame(session, tr: Tracer, index: int, choice: int):
        with tr.span("frame", index):
            with tr.span("voxelize"):
                tensor = voxelizer.voxelize(clouds[choice])
            with tr.span("run"):
                logits = session.run(tensor)
            with tr.span("map"):
                table = session.map("knn", tensor, k=POINTNET.neighbors)
            with tr.span("estimate"):
                est = session.estimate(tensor)
        return logits, table, est

    def build():
        session = InferenceSession(
            net=PointNetClassifier(POINTNET), delta=0.25
        )
        # One pass over the pool lets caches and the heap reach their
        # steady state; the first pass runs markedly slower.
        for choice in order:
            frame(session, OFF, -1, choice)
        return session

    session, setup_times = timed_setup(build)

    # Reference: one session with delta matching and splicing off.
    cold = InferenceSession(net=PointNetClassifier(POINTNET), delta=False)
    reference = {}
    for choice, cloud in enumerate(clouds):
        tensor = voxelizer.voxelize(cloud)
        reference[choice] = (
            cold.run(tensor),
            cold.map("knn", tensor, k=POINTNET.neighbors),
            cold.estimate(tensor),
        )

    def cycles(est) -> List[int]:
        return [op.total_cycles for op in est.mapping_ops]

    def same(got, want) -> bool:
        (logits, table, est), (ref_logits, ref_table, ref_est) = got, want
        return (
            np.array_equal(logits, ref_logits)
            and np.array_equal(table.indices, ref_table.indices)
            and np.array_equal(table.distances, ref_table.distances)
            and cycles(est) == cycles(ref_est)
        )

    check = checker(
        reference, same,
        corrupt=(lambda o: (o[0] + 1.0, o[1], o[2])) if corrupt else None,
    )
    tracer = Tracer(enabled=trace)
    before = session.stats
    outcomes = load.sequential(
        lambda i, c: frame(session, traced(tracer, i), i, c),
        order, seconds, check,
    )
    after = session.stats
    window = window_seconds(outcomes)
    ok = sum(1 for o in outcomes if o.error is None)
    modeled = float(sum(
        est.total_mapping_cycles for _, _, est in reference.values()
    ))
    end_to_end = {
        "throughput_rps": ok / window,
        **latency_metrics(outcomes, TAIL_PERCENTILE["points"]),
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    per_layer = {
        **span_layers(tracer, {
            "geometry.voxelize_ms": "voxelize",
            "session.run_ms": "run",
            "session.map_ms": "map",
            "session.estimate_ms": "estimate",
        }),
        **session_layers(before, after, len(outcomes)),
        "arch.modeled_cycles": modeled,
        "arch.modeled_mapping_cycles": modeled,
        "trace.overhead_ratio": overhead_ratio(outcomes),
    }
    notes = [
        f"{len(outcomes)} frames over {window:.2f} s, pool of {len(clouds)} "
        f"frames, median {median([r[1].indices.shape[0] for r in reference.values()]):.0f} voxels",
        f"tail = p{TAIL_PERCENTILE['points']:g} "
        f"({beyond(ok, TAIL_PERCENTILE['points']):.1f} samples beyond)",
    ]
    return finish(outcomes, end_to_end, per_layer, tracer, notes)


# ----------------------------------------------------------------------
# serve / cluster: SessionServer over a pool of static scenes
# ----------------------------------------------------------------------
async def _serve_phase(
    session, scenes, tracer: Tracer, drive, **server_args
) -> Tuple[list, SessionServer]:
    """Run one load phase against a fresh server (fresh server counters)."""
    server = SessionServer(session, **server_args)

    async def send(index: int, choice: int, due: float):
        tr = traced(tracer, index)
        with tr.span("request", index, start=due):
            with tr.span("submit"):
                return await server.submit(scenes[choice])

    async with server:
        outcomes = await drive(send)
    return outcomes, server


def scene_check(session, scenes, corrupt: bool) -> load.Check:
    """Check against each scene run through a fresh, cold in-process
    numpy session at the served precision."""
    reference = {
        choice: InferenceSession(
            net=session.net, precision=session.precision, backend="numpy",
            delta=False,
        ).run(scene)
        for choice, scene in enumerate(scenes)
    }
    return checker(
        reference, tensors_equal,
        corrupt=shifted_features if corrupt else None,
    )


def closed_clients(sequences, seconds: float, check: load.Check):
    """Closed-loop clients after a warm-up: returns all outcomes, and
    the timed ones apart."""

    async def drive(send):
        timed, warmup = await load.closed_loop(
            sequences, send, seconds, REQUEST_TIMEOUT_S, check,
            warmup_s=CLOSED_WARMUP_S,
        )
        return warmup + timed, timed

    return drive


def serve(seed: int, seconds: float, trace: bool, size: str = "full",
          corrupt: bool = False) -> Result:
    cfg = SIZES[size]["serve"]
    scenes = scene_pool(seed, cfg)
    rng = np.random.default_rng(seed)
    # The open loop gives only per-layer metrics, so untraced runs skip it.
    open_s = min(SERVE_OPEN_S, seconds * SERVE_OPEN_SHARE) if trace else 0.0
    schedule = load.poisson_schedule(rng, SERVE_RATE_HZ, open_s, len(scenes))
    sequences = load.client_sequences(rng, CLIENTS, 1024, len(scenes))

    def build():
        session = InferenceSession(precision="int", backend="scipy")
        for scene in scenes:
            session.warm(scene)
        session.run_batch(scenes)
        return session

    session, setup_times = timed_setup(build)
    check = scene_check(session, scenes, corrupt)
    tracer = Tracer(enabled=trace)
    open_out, per_layer = [], {}
    if trace:
        before = session.stats
        open_out, open_server = asyncio.run(_serve_phase(
            session, scenes, tracer,
            lambda send: load.open_loop(
                schedule, send, REQUEST_TIMEOUT_S, check
            ),
        ))
        after = session.stats
        open_latency = latency_metrics(open_out, OPEN_TAIL_PERCENTILE)
        per_layer = {
            **session_layers(before, after, len(open_out)),
            **server_layers(open_server),
            "server.open_p50_ms": open_latency["latency_p50_ms"],
            "server.open_tail_ms": open_latency["latency_tail_ms"],
            "loadgen.late_ms": median([o.late * 1e3 for o in open_out]),
            "trace.overhead_ratio": overhead_ratio(open_out),
        }
    (outcomes, closed_out), _ = asyncio.run(_serve_phase(
        session, scenes, OFF,
        closed_clients(sequences, seconds - open_s, check), **CLOSED_SERVER
    ))
    outcomes = open_out + outcomes

    closed_ok = sum(1 for o in closed_out if o.error is None)
    end_to_end = {
        "throughput_rps": closed_ok / window_seconds(closed_out),
        **latency_metrics(closed_out, TAIL_PERCENTILE["serve"]),
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"open loop: {len(open_out)} requests at {SERVE_RATE_HZ:g} Hz over "
        f"{open_s:.1f} s (tail p{OPEN_TAIL_PERCENTILE:g}); closed loop: "
        f"{len(closed_out)} timed requests from {CLIENTS} clients",
        f"scenes of {[scene.nnz for scene in scenes]} voxels",
        f"tail = p{TAIL_PERCENTILE['serve']:g} "
        f"({beyond(closed_ok, TAIL_PERCENTILE['serve']):.1f} samples beyond)",
    ]
    return finish(outcomes, end_to_end, per_layer, tracer, notes)


def cluster(seed: int, seconds: float, trace: bool, size: str = "full",
            corrupt: bool = False) -> Result:
    cfg = SIZES[size]["serve"]
    scenes = scene_pool(seed, cfg)
    rng = np.random.default_rng(seed)
    sequences = load.client_sequences(rng, CLIENTS, 1024, len(scenes))

    def build():
        fleet = LocalWorkerFleet.spawn(CLUSTER_WORKERS)
        try:
            backend = RemoteShardBackend(workers=fleet.addresses)
            session = InferenceSession(precision="int", backend=backend)
            # Ships the spec blob and warms the worker's plans.
            session.run_batch(scenes)
        except BaseException:
            fleet.terminate()
            raise
        return fleet, backend, session

    def discard(made) -> None:
        fleet, backend, _ = made
        backend.close()
        fleet.terminate()

    made = None
    try:
        made, setup_times = timed_setup(build, discard)
        _, backend, session = made
        check = scene_check(session, scenes, corrupt)
        tracer = Tracer(enabled=trace)
        before = session.stats
        cluster_before = _cluster_counters(backend)
        (outcomes, timed), server = asyncio.run(_serve_phase(
            session, scenes, tracer, closed_clients(sequences, seconds, check),
            **CLOSED_SERVER
        ))
        after = session.stats
        cluster_after = _cluster_counters(backend)
    finally:
        if made is not None:
            discard(made)

    ok = sum(1 for o in timed if o.error is None)
    delta = {k: cluster_after[k] - cluster_before[k] for k in cluster_after}
    end_to_end = {
        "throughput_rps": ok / window_seconds(timed),
        **latency_metrics(timed, TAIL_PERCENTILE["cluster"]),
        "setup_s": median(setup_times),
        # The coordinator plus the largest worker it waited for.
        "peak_rss_mb": peak_rss_mb(children=True),
    }
    per_layer = {
        **session_layers(before, after, len(outcomes)),
        **server_layers(server),
        "cluster.rtt_ms": ratio(delta["rtt_sum"], delta["rtt_count"]) * 1e3,
        "cluster.groups": ratio(delta["groups"], len(outcomes)),
        "cluster.rerouted": delta["rerouted"],
        "cluster.spec_syncs": delta["spec_syncs"],
        "cluster.workers_lost": delta["workers_lost"],
        "trace.overhead_ratio": overhead_ratio(timed),
    }
    notes = [
        f"{len(timed)} timed requests from {CLIENTS} clients over "
        f"{CLUSTER_WORKERS} worker(s), scenes of "
        f"{[scene.nnz for scene in scenes]} voxels",
        f"tail = p{TAIL_PERCENTILE['cluster']:g} "
        f"({beyond(ok, TAIL_PERCENTILE['cluster']):.1f} samples beyond)",
    ]
    return finish(outcomes, end_to_end, per_layer, tracer, notes)


def _cluster_counters(backend: RemoteShardBackend) -> Dict[str, float]:
    """ClusterStats plus the summed RTT histogram, for before/after deltas."""
    stats = backend.stats
    rtt = backend.registry.get("repro_cluster_rtt_seconds").summaries()
    return {
        "groups": float(stats.groups_dispatched),
        "rerouted": float(stats.groups_rerouted),
        "spec_syncs": float(stats.spec_syncs),
        "workers_lost": float(stats.workers_lost),
        "rtt_sum": sum(s["sum"] for s in rtt.values()),
        "rtt_count": float(sum(s["count"] for s in rtt.values())),
    }


WORKLOADS = {
    "stream": stream,
    "serve": serve,
    "points": points,
    "cluster": cluster,
}
