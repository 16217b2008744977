"""``repro.serve`` — request-level online serving simulation.

The paper (and this repo's closed-loop core) measures fixed batches;
this package models what a *deployment* of those placements sees: an
open arrival stream, continuous batching at iteration boundaries,
multi-tenant QoS classes, and per-request latency percentiles.

Entry points:

* :func:`simulate_serving` — one placement under open-loop load.
* ``repro-serve`` — the CLI wrapper (:mod:`repro.serve.cli`).
"""

from repro.serve.arrivals import (
    DiurnalProcess,
    FlashCrowdProcess,
    MmppProcess,
    PoissonProcess,
    TraceReplay,
    assign_prefix_groups,
    generate_requests,
    load_trace,
    save_trace,
)
from repro.serve.costs import FixedCostModel, IterationCostModel
from repro.serve.metrics import (
    ClassReport,
    LatencyStats,
    ServingMetrics,
    build_metrics,
)
from repro.serve.request import (
    BATCH,
    DEFAULT_CLASSES,
    INTERACTIVE,
    STANDARD,
    QosClass,
    RequestRecord,
    RequestSpec,
    ShedRecord,
)
from repro.serve.resilience import (
    DEFAULT_RESILIENCE,
    NO_RESILIENCE,
    ReplanOutcome,
    ResiliencePolicy,
    engine_replanner,
)
from repro.serve.scheduler import (
    ContinuousBatchingScheduler,
    FaultSummary,
    SchedulerDrive,
    SchedulerRun,
)
from repro.serve.state import (
    CheckpointPlan,
    IterationSample,
    SchedulerState,
)
from repro.serve.simulator import (
    ServingResult,
    make_arrival_process,
    simulate_serving,
)
from repro.workloads.lengths import LengthDistribution

__all__ = [
    "PoissonProcess",
    "MmppProcess",
    "DiurnalProcess",
    "FlashCrowdProcess",
    "TraceReplay",
    "assign_prefix_groups",
    "generate_requests",
    "save_trace",
    "load_trace",
    "IterationCostModel",
    "FixedCostModel",
    "QosClass",
    "RequestSpec",
    "RequestRecord",
    "INTERACTIVE",
    "BATCH",
    "STANDARD",
    "DEFAULT_CLASSES",
    "ContinuousBatchingScheduler",
    "SchedulerDrive",
    "SchedulerRun",
    "FaultSummary",
    "CheckpointPlan",
    "IterationSample",
    "SchedulerState",
    "ShedRecord",
    "ResiliencePolicy",
    "DEFAULT_RESILIENCE",
    "NO_RESILIENCE",
    "ReplanOutcome",
    "engine_replanner",
    "LatencyStats",
    "ClassReport",
    "ServingMetrics",
    "build_metrics",
    "ServingResult",
    "simulate_serving",
    "make_arrival_process",
    "LengthDistribution",
]
