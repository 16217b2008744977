"""Per-iteration cost decomposition shared by every pricing backend."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple


@dataclass(frozen=True)
class IterationParts:
    """One iteration's per-layer transfer/compute decomposition.

    The fault layer needs the split because faults act on *transfers*
    (bandwidth degradation, retries) while kernels keep running at
    nominal speed; with FlexGen overlap the slowdown only shows once a
    layer's (slowed) transfer outruns its compute, which is why
    :meth:`total_s` re-applies the per-layer ``max`` instead of
    scaling the summed total.
    """

    transfers: Tuple[float, ...]
    computes: Tuple[float, ...]
    overlap: bool

    @property
    def transfer_s(self) -> float:
        return sum(self.transfers)

    @property
    def compute_s(self) -> float:
        return sum(self.computes)

    def total_s(self, transfer_scale: float = 1.0) -> float:
        if transfer_scale == 1.0:
            return self._nominal_total_s
        return self._total(transfer_scale)

    @cached_property
    def _nominal_total_s(self) -> float:
        # Cached parts are re-read on every price-cache hit; reduce
        # the unscaled total once.
        return self._total(1.0)

    def _total(self, transfer_scale: float) -> float:
        if self.overlap:
            return sum(
                max(transfer * transfer_scale, compute)
                for transfer, compute in zip(self.transfers, self.computes)
            )
        return sum(
            transfer * transfer_scale + compute
            for transfer, compute in zip(self.transfers, self.computes)
        )


@dataclass(frozen=True)
class KvParts:
    """One MHA layer's (load, store) times for the host-resident KV
    share of one iteration.

    Produced by the shared
    :func:`~repro.core.layercosts.kv_transfer_parts` arithmetic via
    ``kv_parts`` on either backend; ``repro.kv`` prices tier-resident
    reads/writes and migrations through the same solver paths.
    """

    read_s: float
    write_s: float

    @property
    def total_s(self) -> float:
        return self.read_s + self.write_s


@dataclass(frozen=True)
class FaultedIterationParts:
    """One iteration priced *through* the fault injector.

    ``parts`` carries the per-layer decomposition with every transfer
    already priced at its estimated virtual start time (slowdowns,
    retries, backoffs included); computes stay nominal — faults act on
    data movement, not kernels.
    """

    parts: IterationParts
    #: Layers whose transfer needed at least one retry.
    retried_layers: int = 0
    #: Virtual time spent in backoffs and wasted (failed) attempts.
    retry_overhead_s: float = 0.0

    def total_s(self) -> float:
        return self.parts.total_s()
