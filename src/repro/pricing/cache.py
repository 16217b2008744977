"""Memoized iteration prices, shared across every pricing consumer.

The serving scheduler asks for the same ``(spec, stage, bucket)``
price thousands of times per run; before this cache existed each cost
model kept private ad-hoc dicts, so nothing was observable and
nothing could be invalidated.  :class:`PriceCache` is the one shared
table: hit/miss counters make pricing overhead visible in the
``repro-serve`` report, and :meth:`invalidate` gives re-planning
(:meth:`~repro.core.engine.OffloadEngine.replan_for_degradation`) an
explicit way to drop prices that no longer describe the hardware.
The table is unbounded: a run prices a handful of shapes, and the
cost model's bucket rows hold every priced row anyway.

Consumers may keep a front memo over the table (the serving cost
model does) as long as they follow :attr:`PriceCache.generation`:
it changes when an invalidation drops entries, and a memo hit is
reported back through :meth:`PriceCache.count_hits` so the counters
read as if every lookup had come here.

The entries live in a :class:`PriceTable` that several caches may
share: :meth:`PriceCache.view` hands out a new cache over the same
table with its own zeroed counters.  This is how the replicas of one
fleet configuration price through one table while each reports only
its own lookups.  Per view, a lookup counts exactly as it would
against a private table: a hit on an entry a sibling computed is a
hit, and an :meth:`~PriceCache.invalidate` counts against the view
that asked for it.  So over all views of one table, misses equal
``size + invalidations``, and which view takes an entry's miss
follows the order the views first look it up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.metrics import Stage
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
    invalidations: int = 0
    size: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return summarize(self.hits, self.misses, self.invalidations, self.size)


def summarize(
    hits: int, misses: int, invalidations: int, size: int
) -> Dict[str, float]:
    """Cache counters as a flat dict, with the hit rate rounded to 4
    places: :meth:`CacheStats.as_dict` without building the record."""
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "invalidations": invalidations,
        "size": size,
        "hit_rate": round(hits / lookups if lookups else 0.0, 4),
    }


class PriceTable:
    """The memoized prices themselves, in a plain dict.

    Counters live in the :class:`PriceCache` views over the table;
    the table only holds what they share.
    """

    def __init__(self) -> None:
        self.entries: Dict[CacheKey, IterationParts] = {}
        #: Changes when an invalidation drops entries.
        self.generation = next(_GENERATIONS)
        #: Each telemetry-bound view's ``size`` gauge, kept equal to
        #: the table's size whichever view changed it.
        self.size_gauges: Dict["PriceCache", object] = {}

    def publish_size(self) -> None:
        size = len(self.entries)
        for gauge in self.size_gauges.values():
            gauge.set(size)


class PriceCache:
    """``(RunSpec, stage, context bucket) -> IterationParts``.

    One view of a :class:`PriceTable`: the table holds the entries,
    the view holds the hit/miss/invalidation counters.
    """

    def __init__(self, table: Optional[PriceTable] = None) -> None:
        self.table = table if table is not None else PriceTable()
        self._entries = self.table.entries
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        #: Optional mirror of the counters into a telemetry registry
        #: (``pricing/cache/*``); see :meth:`bind_telemetry`.
        self._metrics = None

    def view(self) -> "PriceCache":
        """A new cache over this one's table, with zeroed counters."""
        return PriceCache(self.table)

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
        counts = {
            "hits": self._hits,
            "misses": self._misses,
            "invalidations": self._invalidations,
        }
        self._metrics = {name: scope.counter(name) for name in counts}
        for name, count in counts.items():
            self._metrics[name].inc(count)
        size = self._metrics["size"] = scope.gauge("size")
        self.table.size_gauges[self] = size
        size.set(len(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key(spec: RunSpec, stage: Stage, bucket: int) -> CacheKey:
        return (spec, stage.value, int(bucket))

    def get(
        self, spec: RunSpec, stage: Stage, bucket: int
    ) -> Optional[IterationParts]:
        """Look one price up, counting the hit/miss."""
        parts = self._entries.get(self.key(spec, stage, bucket))
        if parts is None:
            self._misses += 1
            if self._metrics is not None:
                self._metrics["misses"].inc()
            return None
        self.count_hits()
        return parts

    def count_hits(self, n: int = 1) -> None:
        """Count ``n`` hits, as ``n`` :meth:`get` hits would.

        A front memo calls this for hits it served itself.
        """
        self._hits += n
        if self._metrics is not None:
            self._metrics["hits"].inc(n)

    def put(
        self, spec: RunSpec, stage: Stage, bucket: int, parts: IterationParts
    ) -> None:
        self._entries[self.key(spec, stage, bucket)] = parts
        self.table.publish_size()

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

    def invalidate(self) -> int:
        """Drop every entry; returns the count.

        The entries leave the shared table, so every view's next
        lookup of them misses; the count is charged to this view.

        Called by :meth:`OffloadEngine.replan_for_degradation
        <repro.core.engine.OffloadEngine.replan_for_degradation>`:
        once placement has been re-run against a degraded bandwidth
        map, previously memoized prices describe hardware that no
        longer exists.
        """
        dropped = len(self._entries)
        if dropped:
            self._entries.clear()
            self.table.generation = next(_GENERATIONS)
        self._invalidations += dropped
        if self._metrics is not None:
            self._metrics["invalidations"].inc(dropped)
        self.table.publish_size()
        return dropped

    def summary(self) -> Dict[str, float]:
        """``stats.as_dict()``, read straight off the counters."""
        return summarize(
            self._hits, self._misses, self._invalidations, len(self._entries)
        )

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            invalidations=self._invalidations,
            size=len(self._entries),
        )
