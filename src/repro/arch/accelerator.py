"""Top-level ESCA accelerator simulator (Fig. 9).

:class:`EscaAccelerator` runs one submanifold-convolution layer (or a
whole SS U-Net) through the cycle-accurate SDMU + computing-core
pipeline, under the main-controller schedule: active tiles in order, SRFs
in scan order, matches in calculation order.  Outputs are integer-exact
against the quantized reference (:mod:`repro.quant`).

:class:`AnalyticalModel` provides a closed-form cycle estimate (validated
against the simulator in the test suite) used for fast design-space
sweeps and for the no-zero-removing ablation, where simulating all
``192^3`` positions cycle-by-cycle would be pointless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.computing_core import ComputingCore, OutputWriter
from repro.arch.config import AcceleratorConfig
from repro.arch.encoding import EncodedFeatureMap
from repro.arch.overhead import (
    SystemOverheadModel,
    TransferVolume,
    layer_transfer_volume,
)
from repro.arch.host import HostExecutionModel, HostLayerRun
from repro.arch.sdmu import Sdmu
from repro.arch.tiling import count_active_tiles
from repro.nn.init import conv_weight
from repro.nn.functional import normalize_weights
from repro.nn.rulebook import build_submanifold_rulebook, get_submanifold_rulebook
from repro.nn.unet import SSUNet, collect_all_executions
from repro.quant.fixed_point import ACT_INT16, WEIGHT_INT8
from repro.quant.quantizer import quantize_tensor
from repro.sim.kernel import Component, SimulationKernel
from repro.sparse.coo import SparseTensor3D


@dataclass
class LayerRunResult:
    """Outcome of simulating one Sub-Conv layer."""

    layer_name: str
    config: AcceleratorConfig
    total_cycles: int
    matches: int
    active_srfs: int
    scanned_positions: int
    in_channels: int
    out_channels: int
    accumulators: np.ndarray
    output: SparseTensor3D
    act_scale: float
    weight_scale: float
    sdmu_stats: Dict[str, int]
    cc_stats: Dict[str, int]
    cc_utilization: float
    fifo_max_occupancy: int
    fetch_fifo_stalls: int
    transfer: TransferVolume
    overhead_seconds: float

    @property
    def effective_macs(self) -> int:
        return self.matches * self.in_channels * self.out_channels

    @property
    def effective_ops(self) -> int:
        """Nonzero MACs only, 2 ops each — the paper's GOPS convention."""
        return 2 * self.effective_macs

    @property
    def saturated_accumulators(self) -> int:
        """Output values exceeding the accumulator's integer range.

        The simulator accumulates in int64 so correctness checks stay
        exact; this reports how many outputs would have clipped in the
        configured hardware accumulator (0 for calibrated inputs).
        """
        bits = self.config.accumulator_bits
        limit = 1 << (bits - 1)
        return int(
            ((self.accumulators >= limit) | (self.accumulators < -limit)).sum()
        )

    @property
    def time_seconds(self) -> float:
        """On-chip pipeline time (the idealized-core view)."""
        return self.total_cycles / self.config.clock_hz

    @property
    def total_seconds(self) -> float:
        """End-to-end layer time including system overheads."""
        return self.time_seconds + self.overhead_seconds

    def effective_gops(self) -> float:
        """Core throughput: effective ops over pipeline time."""
        if self.total_cycles == 0:
            return 0.0
        return self.effective_ops / self.time_seconds / 1e9

    def system_gops(self) -> float:
        """End-to-end throughput, the quantity Table III reports."""
        if self.total_seconds == 0.0:
            return 0.0
        return self.effective_ops / self.total_seconds / 1e9


@dataclass
class NetworkRunResult:
    """Aggregate of per-layer runs over a whole network.

    ``layers`` are the accelerated Sub-Conv executions; ``host_layers``
    (populated with ``include_host_layers=True``) are the PS-side
    strided/transposed/pointwise layers the paper's design leaves to the
    ARM cores.
    """

    layers: List[LayerRunResult] = field(default_factory=list)
    host_layers: List[HostLayerRun] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return sum(layer.total_cycles for layer in self.layers)

    @property
    def effective_ops(self) -> int:
        return sum(layer.effective_ops for layer in self.layers)

    @property
    def time_seconds(self) -> float:
        """Pipeline time only (idealized core)."""
        return sum(layer.time_seconds for layer in self.layers)

    @property
    def total_seconds(self) -> float:
        """End-to-end time including per-layer system overheads."""
        return sum(layer.total_seconds for layer in self.layers)

    @property
    def host_seconds(self) -> float:
        """Estimated PS-side time for the non-accelerated layers."""
        return sum(run.seconds for run in self.host_layers)

    @property
    def end_to_end_seconds(self) -> float:
        """Accelerated layers (with overheads) plus host-side layers."""
        return self.total_seconds + self.host_seconds

    def effective_gops(self) -> float:
        if self.time_seconds == 0:
            return 0.0
        return self.effective_ops / self.time_seconds / 1e9

    def system_gops(self) -> float:
        if self.total_seconds == 0:
            return 0.0
        return self.effective_ops / self.total_seconds / 1e9


@dataclass
class PlannedLayerRunResult:
    """Outcome of executing a layer under a compiler plan."""

    layer_name: str
    config: AcceleratorConfig
    plan: "LayerPlan"
    total_cycles: int
    matches: int
    in_channels: int
    out_channels: int
    accumulators: np.ndarray
    output: SparseTensor3D
    act_scale: float
    weight_scale: float
    overhead_seconds: float

    @property
    def effective_ops(self) -> int:
        return 2 * self.matches * self.in_channels * self.out_channels

    @property
    def time_seconds(self) -> float:
        return self.total_cycles / self.config.clock_hz

    @property
    def total_seconds(self) -> float:
        return self.time_seconds + self.overhead_seconds

    def effective_gops(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.effective_ops / self.time_seconds / 1e9


class _EscaPipeline(Component):
    """Main-controller view: SDMU and CC executed in pipeline.

    Advancement is in reverse pipeline order (writer, core, MUX handoff,
    SDMU), which yields synchronous one-cycle-register semantics without
    extra staging state.
    """

    name = "esca-pipeline"

    def __init__(
        self,
        sdmu: Sdmu,
        core: ComputingCore,
        writer: OutputWriter,
    ) -> None:
        self.sdmu = sdmu
        self.core = core
        self.writer = writer
        self._group_remaining: Dict[int, int] = {}
        self._group_rows: Dict[int, int] = {}
        self._pending_rows: List[int] = []
        self._writer_queue_depth = 4
        self.writer_stalls = 0

    def commit(self, cycle: int) -> None:
        self.writer.tick()
        if self._pending_rows and self.writer.can_accept:
            self._pending_rows.pop(0)
            self.writer.accept_row()
        self.core.tick()
        if self.core.can_accept and len(self._pending_rows) < self._writer_queue_depth:
            popped = self.sdmu.pop_match()
            if popped is not None:
                match, group = popped
                seq = group.srf_seq
                if seq not in self._group_remaining:
                    self._group_remaining[seq] = group.total_matches
                    self._group_rows[seq] = group.output_row
                self.core.accept(match, output_row=group.output_row)
                self._group_remaining[seq] -= 1
                if self._group_remaining[seq] == 0:
                    self._pending_rows.append(self._group_rows[seq])
                    del self._group_remaining[seq]
                    del self._group_rows[seq]
        elif not self.core.can_accept:
            pass
        else:
            self.writer_stalls += 1 if self._pending_rows else 0
        self.sdmu.advance(cycle)

    def is_idle(self) -> bool:
        return (
            self.sdmu.is_idle()
            and self.core.is_idle()
            and self.writer.is_idle()
            and not self._pending_rows
            and not self._group_remaining
        )


class EscaAccelerator:
    """The ESCA accelerator: encode, match, compute — cycle-accurately."""

    def __init__(
        self,
        config: Optional[AcceleratorConfig] = None,
        overheads: Optional[SystemOverheadModel] = None,
    ) -> None:
        self.config = config or AcceleratorConfig()
        self.overheads = overheads if overheads is not None else SystemOverheadModel()

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, tensor: SparseTensor3D) -> EncodedFeatureMap:
        """Zero removing + index-mask/valid-data encoding of a feature map."""
        return EncodedFeatureMap(
            tensor,
            self.config.tile_shape,
            kernel_size=self.config.kernel_size,
            activation_bits=self.config.activation_bits,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_layer(
        self,
        tensor: SparseTensor3D,
        weights: Optional[np.ndarray] = None,
        out_channels: Optional[int] = None,
        seed: int = 0,
        layer_name: str = "subconv",
        verify: bool = False,
        max_cycles: int = 50_000_000,
    ) -> LayerRunResult:
        """Simulate one Sub-Conv layer on ``tensor``.

        Either real-valued ``weights`` (``(K^3, Cin, Cout)`` or 5D) are
        supplied, or ``out_channels`` is given and weights are generated
        deterministically from ``seed``.  With ``verify=True`` the
        accumulator memory is checked bit-exactly against the quantized
        reference rulebook implementation before returning.
        """
        cfg = self.config
        if weights is None:
            if out_channels is None:
                raise ValueError("provide either weights or out_channels")
            rng = np.random.default_rng(seed)
            weights = conv_weight(
                rng, cfg.kernel_size ** 3, tensor.num_channels, int(out_channels)
            )
        weights = normalize_weights(weights, cfg.kernel_size)
        if weights.shape[1] != tensor.num_channels:
            raise ValueError(
                f"weights expect Cin={weights.shape[1]}, tensor has "
                f"{tensor.num_channels}"
            )

        weights_q = quantize_tensor(weights, WEIGHT_INT8)
        acts_q = quantize_tensor(tensor.features, ACT_INT16)

        encoded = self.encode(tensor)
        cycles, sdmu, core = self._simulate_pass(
            encoded, acts_q.data, weights_q.data, tensor.nnz,
            max_cycles=max_cycles,
        )

        if verify:
            self._verify_against_reference(
                tensor, acts_q.data, weights_q.data, core.accumulators
            )

        transfer = layer_transfer_volume(
            nnz_in=tensor.nnz,
            nnz_out=tensor.nnz,
            in_channels=int(weights.shape[1]),
            out_channels=int(weights.shape[2]),
            kernel_volume=cfg.kernel_size ** 3,
            mask_bits=encoded.storage_report().mask_bits,
            weight_bits=cfg.weight_bits,
            activation_bits=cfg.activation_bits,
        )
        overhead_seconds = self.overheads.layer_overhead_seconds(
            transfer, compute_seconds=cycles / cfg.clock_hz
        )

        acc_scale = acts_q.scale * weights_q.scale
        output = tensor.with_features(core.accumulators.astype(np.float64) * acc_scale)
        return LayerRunResult(
            layer_name=layer_name,
            config=cfg,
            total_cycles=cycles,
            matches=core.stats.get("matches_processed"),
            active_srfs=sdmu.stats.get("srf_active"),
            scanned_positions=encoded.grid.scanned_positions(),
            in_channels=int(weights.shape[1]),
            out_channels=int(weights.shape[2]),
            accumulators=core.accumulators.copy(),
            output=output,
            act_scale=acts_q.scale,
            weight_scale=weights_q.scale,
            sdmu_stats=sdmu.stats.as_dict(),
            cc_stats=core.stats.as_dict(),
            cc_utilization=core.util.fraction,
            fifo_max_occupancy=sdmu.fifo_max_occupancy(),
            fetch_fifo_stalls=sdmu.stats.get("fetch_fifo_stalls"),
            transfer=transfer,
            overhead_seconds=overhead_seconds,
        )

    def _simulate_pass(
        self,
        encoded: EncodedFeatureMap,
        acts_q: np.ndarray,
        weights_q: np.ndarray,
        num_outputs: int,
        tile_subset: Optional[List[int]] = None,
        max_cycles: int = 50_000_000,
    ) -> Tuple[int, Sdmu, ComputingCore]:
        """Run one SDMU + CC pass and return ``(cycles, sdmu, core)``."""
        sdmu = Sdmu(encoded, self.config, tile_subset=tile_subset)
        core = ComputingCore(
            self.config, acts_q, weights_q, num_outputs=num_outputs
        )
        writer = OutputWriter(self.config, out_channels=weights_q.shape[2])
        pipeline = _EscaPipeline(sdmu, core, writer)
        kernel = SimulationKernel([pipeline], max_cycles=max_cycles)
        kernel.run_until_idle(settle_cycles=0)
        return kernel.cycle, sdmu, core

    def run_planned_layer(
        self,
        tensor: SparseTensor3D,
        weights: Optional[np.ndarray] = None,
        out_channels: Optional[int] = None,
        seed: int = 0,
        layer_name: str = "subconv",
        compiler: Optional["NetworkCompiler"] = None,
        verify: bool = False,
        max_cycles: int = 50_000_000,
        rulebook_cache=None,
    ) -> "PlannedLayerRunResult":
        """Execute a layer under a compiler plan (chunks x channel passes).

        Each tile chunk is scanned separately while the *global* encoding
        stays visible, so halo neighbors in other chunks are matched
        correctly; channel passes slice the quantized weights and
        activations and re-accumulate integer partial sums.  The combined
        accumulators are therefore bit-identical to a monolithic
        :meth:`run_layer` (asserted with ``verify=True``).
        """
        from repro.arch.compiler import NetworkCompiler  # local: avoid cycle

        cfg = self.config
        if weights is None:
            if out_channels is None:
                raise ValueError("provide either weights or out_channels")
            rng = np.random.default_rng(seed)
            weights = conv_weight(
                rng, cfg.kernel_size ** 3, tensor.num_channels, int(out_channels)
            )
        weights = normalize_weights(weights, cfg.kernel_size)
        if weights.shape[1] != tensor.num_channels:
            raise ValueError(
                f"weights expect Cin={weights.shape[1]}, tensor has "
                f"{tensor.num_channels}"
            )
        compiler = compiler or NetworkCompiler(cfg, rulebook_cache=rulebook_cache)
        plan = compiler.plan_layer(
            tensor, int(weights.shape[2]), name=layer_name
        )

        weights_q = quantize_tensor(weights, WEIGHT_INT8)
        acts_q = quantize_tensor(tensor.features, ACT_INT16)
        encoded = self.encode(tensor)

        out_ch = int(weights.shape[2])
        accumulators = np.zeros((tensor.nnz, out_ch), dtype=np.int64)
        total_cycles = 0
        total_matches = 0
        for chunk in plan.chunks:
            for pass_id, channel_pass in enumerate(plan.passes):
                act_slice = acts_q.data[
                    :, channel_pass.ic_start:channel_pass.ic_stop
                ]
                weight_slice = weights_q.data[
                    :,
                    channel_pass.ic_start:channel_pass.ic_stop,
                    channel_pass.oc_start:channel_pass.oc_stop,
                ]
                cycles, _, core = self._simulate_pass(
                    encoded,
                    act_slice,
                    weight_slice,
                    tensor.nnz,
                    tile_subset=chunk.tile_indices,
                    max_cycles=max_cycles,
                )
                accumulators[
                    :, channel_pass.oc_start:channel_pass.oc_stop
                ] += core.accumulators
                total_cycles += cycles
                if pass_id == 0:
                    total_matches += core.stats.get("matches_processed")

        if verify:
            self._verify_against_reference(
                tensor, acts_q.data, weights_q.data, accumulators
            )

        core_seconds = total_cycles / cfg.clock_hz
        overhead_seconds = 0.0
        if self.overheads.enabled:
            transfer_seconds = (
                plan.total_bytes / self.overheads.effective_bandwidth_bytes_per_s
            )
            if self.overheads.overlap_transfers:
                transfer_seconds = max(0.0, transfer_seconds - core_seconds)
            overhead_seconds = self.overheads.host_sync_seconds + transfer_seconds

        acc_scale = acts_q.scale * weights_q.scale
        output = tensor.with_features(accumulators.astype(np.float64) * acc_scale)
        return PlannedLayerRunResult(
            layer_name=layer_name,
            config=cfg,
            plan=plan,
            total_cycles=total_cycles,
            matches=total_matches,
            in_channels=int(weights.shape[1]),
            out_channels=out_ch,
            accumulators=accumulators,
            output=output,
            act_scale=acts_q.scale,
            weight_scale=weights_q.scale,
            overhead_seconds=overhead_seconds,
        )

    @staticmethod
    def _verify_against_reference(
        tensor: SparseTensor3D,
        acts_q: np.ndarray,
        weights_q: np.ndarray,
        accumulators: np.ndarray,
    ) -> None:
        rulebook = build_submanifold_rulebook(tensor, round(len(weights_q) ** (1 / 3)))
        expected = np.zeros_like(accumulators)
        for k, rule in enumerate(rulebook.rules):
            if len(rule) == 0:
                continue
            contribution = acts_q[rule[:, 0]].astype(np.int64) @ weights_q[k]
            np.add.at(expected, rule[:, 1], contribution)
        if not np.array_equal(expected, accumulators):
            bad = int((expected != accumulators).any(axis=1).sum())
            raise AssertionError(
                f"accelerator accumulators mismatch reference on {bad} rows"
            )

    def run_network(
        self,
        net: SSUNet,
        tensor: SparseTensor3D,
        verify: bool = False,
        include_host_layers: bool = False,
        host_model: Optional[HostExecutionModel] = None,
        rulebook_cache=None,
    ) -> NetworkRunResult:
        """Simulate every Sub-Conv execution of ``net`` applied to ``tensor``.

        Every ``K^3`` Sub-Conv layer runs through the cycle-accurate
        pipeline with the network's own (quantized) weights.  The strided
        downsampling/upsampling layers and the pointwise head are not
        Sub-Conv workloads; with ``include_host_layers=True`` their
        PS-side cost is estimated by :class:`HostExecutionModel` and
        reported in ``host_layers`` (an end-to-end extension beyond the
        paper's published accounting).

        ``rulebook_cache`` (typically session-owned, see
        :class:`repro.engine.session.InferenceSession`) is threaded
        through both the recording forward pass and the host model, so
        no consumer rebuilds a matching the session already holds.
        """
        executions = collect_all_executions(net, tensor, cache=rulebook_cache)
        workloads = [
            ex
            for ex in executions
            if ex.kind == "subconv" and ex.kernel_size == self.config.kernel_size
        ]
        result = NetworkRunResult()
        if include_host_layers:
            model = host_model or HostExecutionModel()
            host_side = [
                ex
                for ex in executions
                if not (
                    ex.kind == "subconv"
                    and ex.kernel_size == self.config.kernel_size
                )
            ]
            result.host_layers = model.run_layers(host_side, cache=rulebook_cache)
        for workload in workloads:
            layer = self._find_layer(net, workload.name)
            run = self.run_layer(
                workload.input_tensor,
                weights=layer.weight.value,
                layer_name=workload.name,
                verify=verify,
            )
            result.layers.append(run)
        return result

    @staticmethod
    def _find_layer(net: SSUNet, name: str):
        stack = [net]
        while stack:
            module = stack.pop()
            if getattr(module, "name", None) == name:
                return module
            stack.extend(child for _, child in module.named_children())
        raise KeyError(f"layer {name!r} not found in network")


class AnalyticalModel:
    """Closed-form cycle estimate of the ESCA pipeline.

    The pipeline throughput is governed by its slowest stage:

    * SDMU issue: ``scanned_positions * srf_cadence`` cycles;
    * MUX drain: one match per cycle;
    * computing core: ``matches * ceil(Cin/16) * ceil(Cout/16)`` cycles.

    A small constant covers pipeline fill/drain.  The estimate is
    validated against the cycle-accurate simulator in the test suite.
    """

    PIPELINE_FILL_CYCLES = 8

    def __init__(self, config: Optional[AcceleratorConfig] = None) -> None:
        self.config = config or AcceleratorConfig()

    def matching(self, tensor: SparseTensor3D, cache=None):
        """The submanifold rulebook for ``tensor`` at the configured kernel.

        ``cache`` (a :class:`repro.nn.rulebook.RulebookCache`) lets
        repeated estimates over the same site set — e.g. consecutive
        frames of a static scene — skip the matching pass entirely.
        """
        return get_submanifold_rulebook(
            tensor, self.config.kernel_size, cache=cache
        )

    def scanned_positions(self, tensor: SparseTensor3D) -> int:
        """Positions the SDMU scans under the zero-removing tiling.

        Equals ``TileGrid(tensor, tile_shape).scanned_positions()``,
        counted from packed tile keys without building the grid.
        """
        tile = self.config.tile_shape
        active = count_active_tiles(tensor.coords, tile)
        return active * tile[0] * tile[1] * tile[2]

    def workload_statistics(
        self, tensor: SparseTensor3D, cache=None
    ) -> Tuple[int, int]:
        """``(scanned_positions, total_matches)`` for ``tensor``."""
        return (
            self.scanned_positions(tensor),
            self.matching(tensor, cache=cache).total_matches,
        )

    def estimate_cycles(
        self,
        scanned_positions: int,
        total_matches: int,
        in_channels: int,
        out_channels: int,
    ) -> int:
        cfg = self.config
        sdmu_cycles = scanned_positions * cfg.srf_cadence
        mux_cycles = total_matches
        cc_cycles = total_matches * cfg.cc_cycles_per_match(
            in_channels, out_channels
        )
        return max(sdmu_cycles, mux_cycles, cc_cycles) + self.PIPELINE_FILL_CYCLES

    def estimate_layer(
        self,
        tensor: SparseTensor3D,
        in_channels: int,
        out_channels: int,
        cache=None,
    ) -> int:
        scanned, matches = self.workload_statistics(tensor, cache=cache)
        return self.estimate_cycles(scanned, matches, in_channels, out_channels)

    def estimate_layer_without_zero_removing(
        self,
        tensor: SparseTensor3D,
        in_channels: int,
        out_channels: int,
    ) -> int:
        """Ablation: scan the *full* grid instead of the active tiles."""
        rulebook = build_submanifold_rulebook(tensor, self.config.kernel_size)
        return self.estimate_cycles(
            tensor.volume, rulebook.total_matches, in_channels, out_channels
        )
