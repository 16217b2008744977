"""The offloading engine: the paper's primary contribution.

This package reimplements FlexGen's serving loop and weight-placement
machinery from scratch, plus the paper's two proposed placement
schemes:

* :mod:`~repro.core.policy` — FlexGen's percentage policy.
* :mod:`~repro.core.placement` — the baseline allocator (Listing 2),
  HeLM (Listing 3), All-CPU, and an auto-balancing extension.
* :mod:`~repro.core.scheduler` — the zig-zag compute schedule
  (Listing 1).
* :mod:`~repro.core.timing` — the op-by-op timing executor for
  OPT-30B/175B-scale runs.
* :mod:`~repro.core.functional` — the real-numpy executor used to
  validate correctness on small models.
* :mod:`~repro.core.batching` — max-batch-size search under GPU
  memory accounting.
* :mod:`~repro.core.metrics` — TTFT / TBT / throughput.
* :mod:`~repro.core.engine` — the :class:`OffloadEngine` façade.
"""

from repro.core.policy import Policy
from repro.core.placement import (
    AllCpuPlacement,
    AutoBalancedPlacement,
    BaselinePlacement,
    HelmPlacement,
    PlacementAlgorithm,
    PlacementResult,
    placement_algorithm,
)
from repro.core.scheduler import ScheduleStep, zigzag_schedule
from repro.core.metrics import GenerationMetrics, LayerTimingRecord, Stage
from repro.core.timing import TimingExecutor
from repro.core.functional import FunctionalExecutor
from repro.core.batching import max_batch_size
from repro.core.engine import EngineSetup, OffloadEngine

__all__ = [
    "Policy",
    "PlacementAlgorithm",
    "PlacementResult",
    "BaselinePlacement",
    "HelmPlacement",
    "AllCpuPlacement",
    "AutoBalancedPlacement",
    "placement_algorithm",
    "ScheduleStep",
    "zigzag_schedule",
    "Stage",
    "LayerTimingRecord",
    "GenerationMetrics",
    "TimingExecutor",
    "FunctionalExecutor",
    "max_batch_size",
    "OffloadEngine",
    "EngineSetup",
]
