"""Memoized iteration prices, shared across every pricing consumer.

The serving scheduler asks for the same ``(spec, stage, bucket)``
price thousands of times per run; before this cache existed each cost
model kept private ad-hoc dicts, so nothing was observable and
nothing could be invalidated.  :class:`PriceCache` is the one shared
table: hit/miss/eviction counters make pricing overhead visible in
the ``repro-serve`` report, an optional LRU bound keeps long sweeps
from growing without limit, and :meth:`invalidate` gives
re-planning (:meth:`~repro.core.engine.OffloadEngine
.replan_for_degradation`) an explicit way to drop prices that no
longer describe the hardware.

Consumers may keep a front memo over the table (the serving cost
model does) as long as they follow :attr:`PriceCache.generation`:
it changes whenever an entry leaves the table, and a memo hit is
reported back through :meth:`PriceCache.count_hit` so the counters
read as if every lookup had come here.

The entries live in a :class:`PriceTable` that several caches may
share: :meth:`PriceCache.view` hands out a new cache over the same
table with its own zeroed counters.  This is how the replicas of one
fleet configuration price through one table while each reports only
its own lookups.  Per view, a lookup counts exactly as it would
against a private table: a hit on an entry a sibling computed is a
hit, and a put's eviction or an :meth:`~PriceCache.invalidate` counts
against the view that caused it.  So over all views of one table,
misses equal ``size + evictions + invalidations``.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.metrics import Stage
from repro.errors import ConfigurationError
from repro.pricing.parts import IterationParts
from repro.pricing.spec import RunSpec

#: One memoized price's identity.
CacheKey = Tuple[RunSpec, str, int]

#: One process-wide source of generations, so two caches (or two
#: states of one cache) never share a number.
_GENERATIONS = itertools.count()


@dataclass(frozen=True)
class CacheStats:
    """Counters for one :class:`PriceCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    size: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "size": self.size,
            "hit_rate": round(self.hit_rate, 4),
        }


class PriceTable:
    """The memoized prices themselves: entries in LRU order.

    Counters live in the :class:`PriceCache` views over the table;
    the table only holds what they share.
    """

    def __init__(self, maxsize: Optional[int] = None) -> None:
        if maxsize is not None and maxsize < 1:
            raise ConfigurationError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self.entries: "OrderedDict[CacheKey, IterationParts]" = OrderedDict()
        #: Changes whenever an entry leaves the table: LRU eviction,
        #: invalidation, or a put replacing a value.
        self.generation = next(_GENERATIONS)
        #: Each telemetry-bound view's ``size`` gauge, kept equal to
        #: the table's size whichever view changed it.
        self.size_gauges: Dict["PriceCache", object] = {}

    def publish_size(self) -> None:
        size = len(self.entries)
        for gauge in self.size_gauges.values():
            gauge.set(size)


class PriceCache:
    """LRU-bounded ``(RunSpec, stage, context bucket) -> IterationParts``.

    One view of a :class:`PriceTable`: the table holds the entries,
    the view holds the hit/miss/eviction/invalidation counters.
    """

    def __init__(
        self,
        maxsize: Optional[int] = None,
        table: Optional[PriceTable] = None,
    ) -> None:
        if table is None:
            table = PriceTable(maxsize)
        elif maxsize is not None:
            raise ConfigurationError(
                "a shared price table carries its own maxsize"
            )
        self.table = table
        self.maxsize = table.maxsize
        self._entries = table.entries
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        #: Optional mirror of the counters into a telemetry registry
        #: (``pricing/cache/*``); see :meth:`bind_telemetry`.
        self._metrics = None

    def view(self) -> "PriceCache":
        """A new cache over this one's table, with zeroed counters."""
        return PriceCache(table=self.table)

    @property
    def generation(self) -> int:
        """The shared table's generation (see :class:`PriceTable`)."""
        return self.table.generation

    def bind_telemetry(self, registry) -> None:
        """Mirror this cache's counters into ``registry``.

        ``registry`` is a :class:`repro.telemetry.MetricsRegistry` (or
        a scoped view); counters land under ``pricing/cache/``.  The
        registry becomes the one place serving reports read cache
        counters from — binding also replays counts accumulated before
        the bind, so late attachment loses nothing.  The mirror holds
        this view's counters only; its ``size`` gauge follows the
        shared table.
        """
        scope = registry.scoped("pricing/cache")
        self._metrics = {
            "hits": scope.counter("hits"),
            "misses": scope.counter("misses"),
            "evictions": scope.counter("evictions"),
            "invalidations": scope.counter("invalidations"),
            "size": scope.gauge("size"),
        }
        self._metrics["hits"].inc(self._hits)
        self._metrics["misses"].inc(self._misses)
        self._metrics["evictions"].inc(self._evictions)
        self._metrics["invalidations"].inc(self._invalidations)
        self.table.size_gauges[self] = self._metrics["size"]
        self._metrics["size"].set(len(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key(spec: RunSpec, stage: Stage, bucket: int) -> CacheKey:
        return (spec, stage.value, int(bucket))

    def get(
        self, spec: RunSpec, stage: Stage, bucket: int
    ) -> Optional[IterationParts]:
        """Look one price up, counting the hit/miss."""
        key = self.key(spec, stage, bucket)
        parts = self._entries.get(key)
        if parts is None:
            self._misses += 1
            if self._metrics is not None:
                self._metrics["misses"].inc()
            return None
        self.count_hit(key)
        return parts

    def count_hit(self, key: CacheKey) -> None:
        """Count a hit on ``key`` exactly as :meth:`get` would.

        A front memo calls this for a hit it served itself; ``key``
        must come from the current :attr:`generation`, so the entry
        is still present and its LRU position can be refreshed.
        """
        self._hits += 1
        if self._metrics is not None:
            self._metrics["hits"].inc()
        if self.maxsize is not None:
            self._entries.move_to_end(key)

    def put(
        self, spec: RunSpec, stage: Stage, bucket: int, parts: IterationParts
    ) -> None:
        key = self.key(spec, stage, bucket)
        table = self.table
        if key in self._entries:
            # The old value leaves the table.
            table.generation = next(_GENERATIONS)
        self._entries[key] = parts
        self._entries.move_to_end(key)
        if self.maxsize is not None:
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                table.generation = next(_GENERATIONS)
                self._evictions += 1
                if self._metrics is not None:
                    self._metrics["evictions"].inc()
        table.publish_size()

    def get_or_compute(
        self,
        spec: RunSpec,
        stage: Stage,
        bucket: int,
        compute: Callable[[], IterationParts],
    ) -> IterationParts:
        """The memoization entry point backends are priced through."""
        parts = self.get(spec, stage, bucket)
        if parts is None:
            parts = compute()
            self.put(spec, stage, bucket, parts)
        return parts

    def invalidate(self, spec: Optional[RunSpec] = None) -> int:
        """Drop every entry (or only ``spec``'s); returns the count.

        The entries leave the shared table, so every view's next
        lookup of them misses; the count is charged to this view.

        Called by :meth:`OffloadEngine.replan_for_degradation
        <repro.core.engine.OffloadEngine.replan_for_degradation>`:
        once placement has been re-run against a degraded bandwidth
        map, previously memoized prices describe hardware that no
        longer exists.
        """
        if spec is None:
            dropped = len(self._entries)
            self._entries.clear()
        else:
            stale = [key for key in self._entries if key[0] == spec]
            for key in stale:
                del self._entries[key]
            dropped = len(stale)
        if dropped:
            self.table.generation = next(_GENERATIONS)
        self._invalidations += dropped
        if self._metrics is not None:
            self._metrics["invalidations"].inc(dropped)
        self.table.publish_size()
        return dropped

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            invalidations=self._invalidations,
            size=len(self._entries),
        )
