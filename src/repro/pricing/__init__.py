"""``repro.pricing`` — the single cost authority.

Everything this reproduction reports — the paper's overlap/latency
figures, the HeLM-vs-All-CPU frontier, the open-loop serving and
fault ablations — is a function of iteration prices.  This package
owns how those prices are produced:

* :class:`RunSpec` — a frozen, hashable bundle of one run
  configuration (host / placement / policy / batch / lengths / GPU /
  faults).
* :func:`build_executor` — the one place run specs become
  discrete-event :class:`~repro.core.timing.TimingExecutor` instances.
* :class:`AnalyticBackend` — the production pricer (one
  :class:`LayerCostGrid` cell per price) and :class:`EventBackend`
  (discrete-event, authoritative: whole runs, per-layer fault
  pricing, the test oracle) — exactly equal per layer for fault-free
  runs.
* :class:`PriceCache` — shared memoization of
  ``(RunSpec, stage, context bucket) -> IterationParts`` with
  observable hit/miss/eviction counters and explicit invalidation on
  placement re-planning; :meth:`PriceCache.view` gives another cache
  over the same table with its own counters.

See ``docs/pricing.md`` for the backends and the cache-keying
rules.
"""

from repro.pricing.parts import (
    FaultedIterationParts,
    IterationParts,
    KvParts,
)
from repro.pricing.spec import RunSpec
from repro.pricing.cache import CacheStats, PriceCache
from repro.pricing.backends import (
    AnalyticBackend,
    EventBackend,
    build_executor,
)
from repro.pricing.vector import CostGrid, LayerCostGrid
from repro.core.layercosts import LayerCostModel

__all__ = [
    "FaultedIterationParts",
    "IterationParts",
    "KvParts",
    "RunSpec",
    "CacheStats",
    "PriceCache",
    "AnalyticBackend",
    "EventBackend",
    "build_executor",
    "CostGrid",
    "LayerCostGrid",
    "LayerCostModel",
]
