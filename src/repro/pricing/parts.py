"""Per-iteration cost decomposition shared by every pricing backend."""

from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass
from functools import reduce
from itertools import repeat
from typing import Iterable, Optional, Tuple


def sum_in_order(values: Iterable[float]) -> float:
    """``values`` added strictly left to right.

    Builtin ``sum`` compensates float rounding since Python 3.12, so
    its result depends on the interpreter; this is the plain
    sequential sum every version computes alike (and what
    ``np.add.accumulate`` computes along an axis).
    """
    return reduce(operator.add, values, 0.0)


@dataclass(frozen=True)
class IterationParts:
    """One iteration's per-layer transfer/compute decomposition.

    The fault layer needs the split because faults act on *transfers*
    (bandwidth degradation, retries) while kernels keep running at
    nominal speed; with FlexGen overlap the slowdown only shows once a
    layer's (slowed) transfer outruns its compute, which is why
    :meth:`total_s` re-applies the per-layer ``max`` instead of
    scaling the summed total.

    ``nominal_total_s`` passes in the unscaled total when the caller
    has already reduced it (a grid row reduces all its cells at once);
    it must equal what :meth:`total_s` would compute.  Otherwise the
    total is reduced here, once.  It is held in a slot, not a field,
    so equality, ``asdict`` and ``replace`` never see it.
    """

    __slots__ = ("transfers", "computes", "overlap", "_nominal_total_s")

    transfers: Tuple[float, ...]
    computes: Tuple[float, ...]
    overlap: bool
    nominal_total_s: InitVar[Optional[float]] = None

    def __post_init__(self, nominal_total_s: Optional[float]) -> None:
        if nominal_total_s is None:
            nominal_total_s = self._total(1.0)
        object.__setattr__(self, "_nominal_total_s", nominal_total_s)

    @property
    def transfer_s(self) -> float:
        return sum_in_order(self.transfers)

    @property
    def compute_s(self) -> float:
        return sum_in_order(self.computes)

    def total_s(self, transfer_scale: float = 1.0) -> float:
        if transfer_scale == 1.0:
            return self._nominal_total_s
        return self._total(transfer_scale)

    def _total(self, transfer_scale: float) -> float:
        transfers = self.transfers
        if transfer_scale != 1.0:
            transfers = map(operator.mul, transfers, repeat(transfer_scale))
        step = max if self.overlap else operator.add
        return sum_in_order(map(step, transfers, self.computes))


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
