"""The metrics registry: counters, gauges, and mergeable histograms.

One :class:`MetricsRegistry` is the always-on accounting surface for a
whole run.  Instruments are named with ``/``-separated namespaces
(``"pricing/cache/hits"``, ``"serve/iterations"``) so every subsystem
— engine, pricing, faults, scheduler — lands in one table that the
exporters (:mod:`repro.telemetry.export`) can render as Prometheus
text, JSONL, or a summary.

Design constraints, in order:

* **Deterministic.**  Instruments never read wall-clock time; every
  recorded value is supplied by the caller (virtual-time durations,
  counts).  Two identical runs produce identical snapshots.
* **Cheap when disabled.**  A registry built with ``enabled=False``
  hands out shared no-op instruments; the hot path pays one method
  call that does nothing.  A disabled-registry run is bit-identical
  to one with no telemetry at all.  A publisher that derives a value
  only to write it into an instrument (the ``obs/`` observer, the
  ``slo/`` monitor's gauges, KV occupancy) checks ``enabled`` once,
  when it binds, and for a disabled registry binds and derives
  nothing.
* **Mergeable.**  Snapshots are plain JSON-able dicts; counters and
  histogram bucket counts add, gauges take the incoming value — so
  per-shard registries can be folded into one fleet view.

Every histogram here and every window of
:class:`repro.obs.WindowedHistogram` is one :class:`BucketCounts`
core: one bucket search, one fold, one quantile routine.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, TelemetryError

#: Default explicit buckets for virtual-time durations, spanning the
#: microsecond kernels of small models to the hour-long batch E2E
#: latencies of saturated serving runs (seconds).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
    300.0, 600.0, 3600.0,
)

#: Canonical (name, labels) identity of one instrument.
LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Optional[Mapping[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "labels", "help_text", "value")

    def __init__(
        self, name: str, labels: LabelItems = (), help_text: str = ""
    ) -> None:
        self.name = name
        self.labels = labels
        self.help_text = help_text
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r}: cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "help_text", "value")

    def __init__(
        self, name: str, labels: LabelItems = (), help_text: str = ""
    ) -> None:
        self.name = name
        self.labels = labels
        self.help_text = help_text
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class BucketCounts:
    """The one explicit-bucket histogram core.

    ``buckets`` are upper bounds (``le``), already validated by
    :meth:`check_buckets`; one implicit ``+Inf`` bucket catches the
    rest.  Counts, sum, and extrema are tracked so exporters can render
    both Prometheus histograms and human summaries without NaN
    sentinels (``count == 0`` means "no data").  A core reads as its
    own snapshot (``core["counts"]``), so :meth:`absorb` folds a core
    or a snapshot dict alike.
    """

    __slots__ = ("buckets", "counts", "sum", "count", "min", "max")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +Inf last
        self.sum = 0.0
        self.count = 0
        self.min = 0.0
        self.max = 0.0

    @staticmethod
    def check_buckets(owner: str, buckets) -> Tuple[float, ...]:
        """``buckets`` as floats, if strictly increasing and non-empty."""
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise TelemetryError(
                f"{owner}: buckets must be a strictly increasing "
                f"non-empty sequence, got {buckets!r}"
            )
        return tuple(float(b) for b in buckets)

    @staticmethod
    def check_counts(owner: str, buckets, counts) -> None:
        """Reject snapshot ``counts`` that do not fit ``buckets``."""
        if len(counts) != len(buckets) + 1:
            raise ConfigurationError(
                f"{owner}: malformed snapshot (bucket/count length "
                f"mismatch)"
            )

    def observe(self, value: float) -> None:
        """Count one value; callers reject non-finite ones."""
        # The first bound >= value: the `value <= le` bucket.
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        if self.count == 0:
            self.min = self.max = value
        else:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        self.count += 1

    def __getitem__(self, key: str):
        return getattr(self, key)

    def absorb(self, entry: Mapping) -> None:
        """Fold a histogram-shaped entry over the same buckets: counts
        and sum add; extrema come only from a non-empty entry."""
        counts = self.counts
        for i, count in enumerate(entry["counts"]):
            counts[i] += count
        if entry["count"]:
            if self.count == 0:
                self.min = entry["min"]
                self.max = entry["max"]
            else:
                self.min = min(self.min, entry["min"])
                self.max = max(self.max, entry["max"])
        self.sum += entry["sum"]
        self.count += entry["count"]

    def as_dict(self) -> Dict[str, object]:
        return {
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Deterministic bucket-interpolated quantile estimate.

        See :func:`bucket_quantile` — reads TTFT p99 mid-run off the
        bucket counts alone, no raw samples retained.
        """
        return bucket_quantile(
            self.buckets, self.counts, q,
            count=self.count, min_value=self.min, max_value=self.max,
        )


class Histogram(BucketCounts):
    """A named, labelled :class:`BucketCounts` over virtual-time
    values: the registry's run-long histogram."""

    kind = "histogram"
    __slots__ = ("name", "labels", "help_text")

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        help_text: str = "",
        buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        super().__init__(
            BucketCounts.check_buckets(f"histogram {name!r}", buckets)
        )
        self.name = name
        self.labels = labels
        self.help_text = help_text

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            # A NaN would poison sum/min/max and every quantile read.
            raise TelemetryError(
                f"histogram {self.name!r}: value must be finite, "
                f"got {value!r}"
            )
        BucketCounts.observe(self, value)


def bucket_quantile(
    buckets: Tuple[float, ...],
    counts: Iterable[int],
    q: float,
    count: Optional[int] = None,
    min_value: float = 0.0,
    max_value: float = 0.0,
) -> float:
    """Quantile ``q`` estimated from explicit-bucket counts.

    Linear interpolation inside the bucket where the cumulative count
    crosses ``q * count``, with the interpolation interval clamped to
    the observed ``[min, max]`` — so single-bucket mass degrades
    gracefully instead of answering the bucket edge, and the +Inf
    bucket answers ``max`` rather than infinity.  Pure integer/float
    arithmetic over the snapshot: deterministic, mergeable, and
    identical whether computed live or from an exported bundle.
    """
    if not 0.0 <= q <= 1.0:
        raise TelemetryError(f"quantile must be in [0, 1], got {q}")
    counts = list(counts)
    if count is None:
        count = sum(counts)
    if count <= 0:
        return 0.0
    rank = q * count
    cumulative = 0
    lower = min_value
    for bound, bucket_count in zip(buckets, counts):
        upper = min(float(bound), max_value)
        if bucket_count:
            if cumulative + bucket_count >= rank:
                lo = max(lower, min_value)
                hi = max(upper, lo)
                fraction = (rank - cumulative) / bucket_count
                return lo + fraction * (hi - lo)
            cumulative += bucket_count
        lower = max(lower, upper)
    return max_value


_Instrument = (Counter, Gauge, Histogram)


class _NullInstrument:
    """Shared no-op stand-in handed out by disabled registries."""

    kind = "null"
    name = ""
    labels: LabelItems = ()
    help_text = ""
    value = 0.0
    sum = 0.0
    count = 0
    mean = 0.0
    min = 0.0
    max = 0.0
    buckets: Tuple[float, ...] = ()
    counts: List[int] = []

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Namespaced instrument table for one run."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: "Dict[Tuple[str, LabelItems], object]" = {}

    # -- instrument access ---------------------------------------------

    def _get(
        self,
        kind: type,
        name: str,
        labels: Optional[Mapping[str, str]],
        help_text: str,
        **kwargs,
    ):
        if not self.enabled:
            return _NULL_INSTRUMENT
        if not name:
            raise TelemetryError("instruments need a non-empty name")
        key = (name, _label_items(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = kind(
                name, labels=key[1], help_text=help_text, **kwargs
            )
            self._instruments[key] = instrument
        elif not isinstance(instrument, kind):
            raise TelemetryError(
                f"instrument {name!r} already registered as "
                f"{instrument.kind}, requested {kind.kind}"
            )
        return instrument

    def counter(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help_text: str = "",
    ) -> Counter:
        return self._get(Counter, name, labels, help_text)

    def gauge(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help_text: str = "",
    ) -> Gauge:
        return self._get(Gauge, name, labels, help_text)

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help_text: str = "",
        buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        return self._get(
            Histogram, name, labels, help_text, buckets=buckets
        )

    def scoped(self, namespace: str) -> "ScopedRegistry":
        """A view that prefixes every instrument name."""
        return ScopedRegistry(self, namespace)

    # -- inspection -----------------------------------------------------

    def instruments(self) -> Tuple[object, ...]:
        """All instruments, sorted by (name, labels) for determinism."""
        return tuple(
            self._instruments[key] for key in sorted(self._instruments)
        )

    def value(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[float]:
        """A counter/gauge's current value, or None if never created."""
        instrument = self._instruments.get((name, _label_items(labels)))
        if instrument is None or isinstance(instrument, Histogram):
            return None
        return instrument.value

    def __len__(self) -> int:
        return len(self._instruments)

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> Dict[str, List[Dict[str, object]]]:
        """The registry as a JSON-able dict (see module docstring)."""
        snap: Dict[str, List[Dict[str, object]]] = {
            "counters": [],
            "gauges": [],
            "histograms": [],
        }
        for instrument in self.instruments():
            entry: Dict[str, object] = {
                "name": instrument.name,
                "labels": dict(instrument.labels),
            }
            if instrument.help_text:
                entry["help"] = instrument.help_text
            if isinstance(instrument, Histogram):
                entry.update(
                    buckets=list(instrument.buckets), **instrument.as_dict()
                )
                snap["histograms"].append(entry)
            else:
                entry["value"] = instrument.value
                snap[f"{instrument.kind}s"].append(entry)
        return snap

    def merge(
        self,
        snapshot: Mapping[str, Iterable[Mapping]],
        extra_labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram bucket counts add; gauges take the
        incoming value.  ``extra_labels`` are stamped onto every
        incoming instrument (the fleet roll-up tags each replica's
        snapshot with ``{"replica": "<i>"}`` so same-named series stay
        distinguishable).

        The whole snapshot is validated *before* anything is mutated:
        a histogram whose buckets differ from the already-registered
        instrument's, or whose counts don't match its buckets, raises
        :class:`~repro.errors.ConfigurationError` and leaves this
        registry untouched — a half-applied merge would silently
        corrupt every series that happened to sort earlier.
        """
        if not self.enabled:
            return

        def _merged_labels(entry: Mapping) -> Dict[str, str]:
            labels = dict(entry.get("labels") or {})
            if extra_labels:
                labels.update(extra_labels)
            return labels

        pending = []
        for entry in snapshot.get("histograms", ()):
            labels = _merged_labels(entry)
            buckets = tuple(entry["buckets"])
            BucketCounts.check_counts(
                f"histogram {entry['name']!r}", buckets, entry["counts"]
            )
            existing = self._instruments.get(
                (entry["name"], _label_items(labels))
            )
            if isinstance(existing, Histogram) and existing.buckets != buckets:
                raise ConfigurationError(
                    f"histogram {entry['name']!r}: cannot merge "
                    f"mismatched buckets {buckets!r} into "
                    f"{existing.buckets!r}"
                )
            pending.append((entry, labels, buckets))

        for entry in snapshot.get("counters", ()):
            self.counter(
                entry["name"], _merged_labels(entry),
                entry.get("help", ""),
            ).inc(entry["value"])
        for entry in snapshot.get("gauges", ()):
            self.gauge(
                entry["name"], _merged_labels(entry),
                entry.get("help", ""),
            ).set(entry["value"])
        for entry, labels, buckets in pending:
            self.histogram(
                entry["name"], labels, entry.get("help", ""),
                buckets=buckets,
            ).absorb(entry)

    @classmethod
    def from_snapshot(
        cls, snapshot: Mapping[str, Iterable[Mapping]]
    ) -> "MetricsRegistry":
        registry = cls()
        registry.merge(snapshot)
        return registry


class ScopedRegistry:
    """A namespace-prefixing view over one :class:`MetricsRegistry`."""

    def __init__(self, registry: MetricsRegistry, namespace: str) -> None:
        if not namespace:
            raise TelemetryError("scoped registries need a namespace")
        self.registry = registry
        self.namespace = namespace.rstrip("/")

    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    def _name(self, name: str) -> str:
        return f"{self.namespace}/{name}"

    def counter(self, name: str, **kwargs) -> Counter:
        return self.registry.counter(self._name(name), **kwargs)

    def gauge(self, name: str, **kwargs) -> Gauge:
        return self.registry.gauge(self._name(name), **kwargs)

    def histogram(self, name: str, **kwargs) -> Histogram:
        return self.registry.histogram(self._name(name), **kwargs)

    def scoped(self, namespace: str) -> "ScopedRegistry":
        return ScopedRegistry(self.registry, self._name(namespace))
