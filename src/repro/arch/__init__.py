"""The ESCA accelerator model — the paper's contribution.

Subpackages map one-to-one onto Fig. 9 of the paper:

* :mod:`repro.arch.config` — architecture parameters (tile size, kernel
  size, 16x16 computing-array parallelism, FIFO depths, clock).
* :mod:`repro.arch.tiling` — the tile-based zero removing strategy
  (Sec. III-A, Table I).
* :mod:`repro.arch.encoding` — the index-mask / valid-data encoding
  scheme (Sec. III-B, Fig. 4), including the column store that gives the
  state indexes ``(A, B)`` their addressing semantics.
* :mod:`repro.arch.sdmu` — the sparse data matching unit (Sec. III-C,
  Figs. 6-7): mask judger, state index generator, address generator,
  FIFO group and MUX, as a cycle-accurate pipeline.
* :mod:`repro.arch.computing_core` — the computing core (Sec. III-D,
  Fig. 8): a 16x16 multiply-accumulate array plus accumulator.
* :mod:`repro.arch.buffers` — on-chip buffer models feeding the
  resource estimation of Table II.
* :mod:`repro.arch.accelerator` — the top-level simulator
  (:class:`EscaAccelerator`) and the analytical performance model.
"""

from repro.arch.config import AcceleratorConfig, SdmuTiming
from repro.arch.tiling import (
    Tile,
    TileGrid,
    ZeroRemovalResult,
    ZeroRemover,
    count_active_tiles,
)
from repro.arch.encoding import ColumnStore, EncodedFeatureMap, IndexMask
from repro.arch.sdmu import Match, MatchGroup, Sdmu
from repro.arch.computing_core import ComputingCore, OutputWriter
from repro.arch.buffers import BufferModel
from repro.arch.host import HostExecutionModel, HostLayerRun
from repro.arch.timeline import MatchingTimeline, StageSpan
from repro.arch.compiler import (
    BufferBudget,
    ChannelPass,
    Command,
    CompilationError,
    LayerPlan,
    NetworkCompiler,
    TileChunk,
)
from repro.arch.mapping_model import (
    GATHER_PORTS,
    MAPPING_PIPELINE_FILL_CYCLES,
    MappingCostModel,
    MappingOpEstimate,
    MappingPhaseSpan,
    MappingSimulation,
)
from repro.arch.overhead import (
    SystemOverheadModel,
    TransferVolume,
    layer_transfer_volume,
)
from repro.arch.accelerator import (
    AnalyticalModel,
    EscaAccelerator,
    LayerRunResult,
    NetworkRunResult,
    PlannedLayerRunResult,
)

__all__ = [
    "AcceleratorConfig",
    "SdmuTiming",
    "Tile",
    "TileGrid",
    "ZeroRemover",
    "ZeroRemovalResult",
    "count_active_tiles",
    "IndexMask",
    "ColumnStore",
    "EncodedFeatureMap",
    "Match",
    "MatchGroup",
    "Sdmu",
    "ComputingCore",
    "OutputWriter",
    "BufferModel",
    "HostExecutionModel",
    "HostLayerRun",
    "MatchingTimeline",
    "StageSpan",
    "NetworkCompiler",
    "BufferBudget",
    "ChannelPass",
    "TileChunk",
    "Command",
    "LayerPlan",
    "CompilationError",
    "MappingCostModel",
    "MappingOpEstimate",
    "MappingPhaseSpan",
    "MappingSimulation",
    "MAPPING_PIPELINE_FILL_CYCLES",
    "GATHER_PORTS",
    "SystemOverheadModel",
    "TransferVolume",
    "layer_transfer_volume",
    "EscaAccelerator",
    "AnalyticalModel",
    "LayerRunResult",
    "NetworkRunResult",
    "PlannedLayerRunResult",
]
