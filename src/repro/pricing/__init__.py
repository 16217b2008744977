"""``repro.pricing`` — the single cost authority.

Everything this reproduction reports — the paper's overlap/latency
figures, the HeLM-vs-All-CPU frontier, the open-loop serving and
fault ablations — is a function of iteration prices.  This package
owns how those prices are produced:

* :class:`RunSpec` — a frozen, hashable bundle of one run
  configuration (host / placement / policy / batch / lengths / GPU /
  faults).
* :func:`build_executor` — the one place run specs become
  :class:`~repro.core.timing.TimingExecutor` instances.
* :class:`AnalyticBackend` — the production pricer (one
  :class:`LayerCostGrid` cell per price, read off a memoized bucket
  row) and :class:`EventBackend`
  (op by op, authoritative: whole runs, per-layer fault
  pricing, the test oracle) — exactly equal per layer for fault-free
  runs.

Prices are memoized by their consumer: each serving cost model
(:class:`repro.serve.costs.IterationCostModel`) keeps one price memo
with its own hit/miss counters over the backend's bucket rows.

See ``docs/pricing.md`` for the backends, the grid keys and the
price memo.
"""

from repro.pricing.parts import FaultedIterationParts, IterationParts
from repro.pricing.spec import RunSpec
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
    "RunSpec",
    "AnalyticBackend",
    "EventBackend",
    "build_executor",
    "CostGrid",
    "LayerCostGrid",
    "LayerCostModel",
]
