"""Windowed instruments: histograms and rates over virtual time.

The plain :class:`~repro.telemetry.registry.Histogram` accumulates
over a whole run — good for post-hoc percentiles, useless for "what
is TTFT p99 *right now*".  :class:`WindowedHistogram` keeps a ring of
:class:`~repro.telemetry.registry.BucketCounts` — the registry
histogram's core, one per window — keyed by virtual time: window ``i``
covers ``[i * width_s, (i + 1) * width_s)``, observations land in the
window their timestamp selects, and only the most recent ``windows``
windows are retained.  Reads and merges fold windows with the core's
one ``absorb``, so percentiles over "the last K windows" are pure
arithmetic over bucket counts — no raw samples are ever stored.

Everything here follows the telemetry design rules: virtual-time
timestamps supplied by the caller, no wall-clock reads, deterministic
snapshots, and replica mergeability — windows align on their absolute
index (``floor(time / width)``), so per-replica instruments observing
disjoint request streams fold into exactly the instrument one merged
stream would have produced (``tests/obs/test_window.py`` pins this).

What a :class:`WindowedHistogram` holds does not depend on the order
it observed a multiset of ``(value, time)`` pairs in: the newest
index is their maximum, and an observation is dropped only when an
index at least ``windows`` ahead of it was already seen — so the
final ring evicts its window either way.  Snapshots, ``recent`` reads
and quantiles agree for any two orders, except :attr:`dropped`, which
counts by arrival order, and each window's float ``sum``, whose last
bits follow the order of its additions (quantiles read only counts
and extrema).  This is what lets the autoscaled fleet feed the
controller's TTFT window only when a decision is due.

Every instrument carries an integer :attr:`version` that every
mutation bumps (``observe``, ``inc``, ``merge``, and a rotation that
evicts a window).  Any read is a function of the contents behind the
version and of the read's end window, so a caller that stamps
``(version, end window)`` can skip re-reading (and re-publishing)
while the stamp holds — the observer and the SLO monitor do exactly
that, so reads themselves are not memoized.  ``quantiles`` answers
several quantiles from one window merge.  Versions are derived state
only: they never enter a snapshot or a merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, TelemetryError, require_int
from repro.telemetry.registry import (
    DEFAULT_TIME_BUCKETS,
    BucketCounts,
    bucket_quantile,
)


@dataclass(frozen=True)
class WindowConfig:
    """Shape of one windowed instrument family.

    ``width_s`` is the window width in *virtual* seconds; ``windows``
    is the ring size (how many trailing windows stay addressable).
    """

    width_s: float = 60.0
    windows: int = 16

    def __post_init__(self) -> None:
        # An infinite width would put every event in window 0.
        if not (math.isfinite(self.width_s) and self.width_s > 0):
            raise ConfigurationError(
                f"WindowConfig.width_s must be positive and finite, got "
                f"{self.width_s!r}"
            )
        require_int("WindowConfig.windows", self.windows, ConfigurationError)
        if self.windows < 2:
            raise ConfigurationError(
                f"need at least 2 ring windows, got {self.windows}"
            )

    def index(self, time_s: float) -> int:
        """The absolute window index containing virtual time."""
        return int(time_s // self.width_s)

    def to_dict(self) -> Dict[str, object]:
        return {"width_s": self.width_s, "windows": self.windows}

    @classmethod
    def from_dict(cls, data: Mapping) -> "WindowConfig":
        return cls(
            width_s=float(data.get("width_s", 60.0)),
            windows=int(data.get("windows", 16)),
        )


def _check_span(name: str, k: int, config: WindowConfig) -> None:
    """Reject a read over fewer than one or more than the ring's
    windows (a wider read would under-report what it cannot see)."""
    if k < 1:
        raise ConfigurationError(
            f"{name!r}: need at least one window, got {k}"
        )
    if k > config.windows:
        raise ConfigurationError(
            f"{name!r}: cannot read {k} windows from a ring of "
            f"{config.windows}"
        )


def _check_finite(
    name: str, time_s: float, what: str, value: float
) -> None:
    """Reject a NaN/inf timestamp or recorded value, naming the
    instrument (a NaN time cannot select a window; a NaN value would
    poison every quantile read over its window)."""
    if math.isfinite(time_s) and math.isfinite(value):
        return
    field_name, bad = (
        ("time_s", time_s) if not math.isfinite(time_s) else (what, value)
    )
    raise TelemetryError(
        f"windowed instrument {name!r}: {field_name} must be finite, "
        f"got {bad!r}"
    )


def _evict(ring: Dict[int, object], floor: int) -> bool:
    """Drop ring entries below window ``floor``; whether any were."""
    stale = [index for index in ring if index < floor]
    for index in stale:
        del ring[index]
    return bool(stale)


class WindowedHistogram:
    """Ring of per-window explicit-bucket histograms over virtual time.

    Observations may arrive for any *retained* window (the scheduler
    finishes requests at iteration boundaries, slightly after their
    logical event times); anything older than the ring falls off the
    trailing edge and is counted in :attr:`dropped` rather than
    silently lost.
    """

    def __init__(
        self,
        name: str,
        config: WindowConfig = WindowConfig(),
        buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        self.name = name
        self.config = config
        self.buckets = BucketCounts.check_buckets(
            f"windowed histogram {name!r}", buckets
        )
        #: index -> window, only the trailing ``config.windows`` kept.
        self._windows: Dict[int, BucketCounts] = {}
        self._latest: int = -1
        self.dropped: int = 0
        #: Bumped by every mutation that can change a read.
        self.version: int = 0

    # -- recording ------------------------------------------------------

    def rotate(self, time_s: float) -> None:
        """Advance the ring so ``time_s`` has a live window; evict
        windows that fell off the trailing edge."""
        index = self.config.index(time_s)
        if index > self._latest:
            self._latest = index
            # Only a newer index moves the floor: ``observe`` opens no
            # window below it and ``merge`` evicts by itself.
            if _evict(self._windows, index - self.config.windows + 1):
                self.version += 1

    def observe(self, value: float, time_s: float) -> None:
        value = float(value)
        _check_finite(self.name, time_s, "value", value)
        self.rotate(time_s)
        index = self.config.index(time_s)
        if index <= self._latest - self.config.windows:
            self.dropped += 1
            return
        self.version += 1
        self._window_at(index).observe(value)

    def _window_at(self, index: int) -> BucketCounts:
        """Window ``index``, opened empty if absent."""
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = BucketCounts(self.buckets)
        return window

    # -- reading --------------------------------------------------------

    @property
    def latest_index(self) -> int:
        return self._latest

    def recent(self, k: int, now: Optional[float] = None) -> Dict[str, object]:
        """The last ``k`` windows (ending at ``now``'s window, or the
        latest observed) merged into one histogram-shaped dict."""
        _check_span(self.name, k, self.config)
        end = self._latest if now is None else self.config.index(now)
        merged = BucketCounts(self.buckets)
        for index in range(end - k + 1, end + 1):
            window = self._windows.get(index)
            if window is not None:
                merged.absorb(window)
        return {
            "buckets": list(self.buckets),
            "counts": merged.counts,
            "count": merged.count,
            "sum": merged.sum,
            "min": merged.min,
            "max": merged.max,
        }

    def quantile(
        self, q: float, windows: int = 1, now: Optional[float] = None
    ) -> float:
        """Bucket-interpolated quantile over the last ``windows``."""
        return self.quantiles((q,), windows, now=now)[0]

    def quantiles(
        self,
        qs: Sequence[float],
        windows: int = 1,
        now: Optional[float] = None,
    ) -> List[float]:
        """Several quantiles over the last ``windows``, from one merge
        of those windows."""
        merged = self.recent(windows, now=now)
        return [
            bucket_quantile(
                self.buckets,
                merged["counts"],
                q,
                count=merged["count"],
                min_value=merged["min"],
                max_value=merged["max"],
            )
            for q in qs
        ]

    def rate(self, windows: int = 1, now: Optional[float] = None) -> float:
        """Observations per virtual second over the last ``windows``."""
        merged = self.recent(windows, now=now)
        return merged["count"] / (windows * self.config.width_s)

    # -- snapshots / merge ---------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "config": self.config.to_dict(),
            "buckets": list(self.buckets),
            "latest": self._latest,
            "dropped": self.dropped,
            "windows": [
                {"index": index, **self._windows[index].as_dict()}
                for index in sorted(self._windows)
            ],
        }

    def merge(self, snapshot: Mapping) -> None:
        """Fold another instrument's snapshot into this one.

        Windows align on their absolute index, so merging replicas
        that observed disjoint slices of one stream reproduces the
        single-instrument result exactly.  Mismatched buckets or
        window width, or a window whose counts do not fit the buckets,
        are configuration errors raised before anything is mutated, as
        in :meth:`repro.telemetry.MetricsRegistry.merge`.
        """
        if tuple(snapshot["buckets"]) != self.buckets:
            raise ConfigurationError(
                f"windowed histogram {self.name!r}: cannot merge "
                f"mismatched buckets"
            )
        other = WindowConfig.from_dict(snapshot["config"])
        if other.width_s != self.config.width_s:
            raise ConfigurationError(
                f"windowed histogram {self.name!r}: cannot merge "
                f"window width {other.width_s} into {self.config.width_s}"
            )
        windows = snapshot.get("windows", ())
        for entry in windows:
            BucketCounts.check_counts(
                f"windowed histogram {self.name!r}",
                self.buckets,
                entry["counts"],
            )
        self.dropped += int(snapshot.get("dropped", 0))
        self._latest = max(self._latest, int(snapshot.get("latest", -1)))
        for entry in windows:
            self._window_at(int(entry["index"])).absorb(entry)
        _evict(self._windows, self._latest - self.config.windows + 1)
        self.version += 1

    @classmethod
    def from_snapshot(cls, snapshot: Mapping) -> "WindowedHistogram":
        instrument = cls(
            snapshot.get("name", ""),
            config=WindowConfig.from_dict(snapshot["config"]),
            buckets=tuple(snapshot["buckets"]),
        )
        instrument.merge(snapshot)
        return instrument


class RollingCounter:
    """Per-window event counts: the arrival-rate gauge's backbone.

    A degenerate :class:`WindowedHistogram` would do, but a plain
    ``Dict[int, float]`` ring is cheaper on the per-arrival hot path.
    """

    def __init__(
        self, name: str, config: WindowConfig = WindowConfig()
    ) -> None:
        self.name = name
        self.config = config
        self._windows: Dict[int, float] = {}
        self._latest: int = -1
        self.total: float = 0.0
        #: Bumped by every mutation (each also moves :attr:`total`).
        self.version: int = 0

    def inc(self, time_s: float, amount: float = 1.0) -> None:
        """Count ``amount`` events at ``time_s``.  An event older than
        the ring still adds to :attr:`total` but opens no window."""
        _check_finite(self.name, time_s, "amount", amount)
        index = self.config.index(time_s)
        if index > self._latest:
            self._latest = index
            _evict(self._windows, index - self.config.windows + 1)
        self.version += 1
        if index > self._latest - self.config.windows:
            self._windows[index] = self._windows.get(index, 0.0) + amount
        self.total += amount

    def counts(
        self, windows: int = 1, now: Optional[float] = None
    ) -> List[float]:
        """Events in each of the last ``windows`` (ending at ``now``'s
        window, or the latest counted), oldest first."""
        _check_span(self.name, windows, self.config)
        end = self._latest if now is None else self.config.index(now)
        return list(
            map(
                self._windows.get,
                range(end - windows + 1, end + 1),
                repeat(0.0),
            )
        )

    def count(self, windows: int = 1, now: Optional[float] = None) -> float:
        """Events in the last ``windows``, added oldest first."""
        return sum(self.counts(windows, now=now))

    def rate(self, windows: int = 1, now: Optional[float] = None) -> float:
        """Events per virtual second over the last ``windows``."""
        return self.count(windows, now=now) / (
            windows * self.config.width_s
        )

    def snapshot(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "config": self.config.to_dict(),
            "latest": self._latest,
            "total": self.total,
            "windows": {
                str(index): self._windows[index]
                for index in sorted(self._windows)
            },
        }

    def merge(self, snapshot: Mapping) -> None:
        other = WindowConfig.from_dict(snapshot["config"])
        if other.width_s != self.config.width_s:
            raise ConfigurationError(
                f"rolling counter {self.name!r}: cannot merge window "
                f"width {other.width_s} into {self.config.width_s}"
            )
        self._latest = max(self._latest, int(snapshot.get("latest", -1)))
        windows = snapshot.get("windows", {})
        # The cumulative total includes what already rotated out of the
        # remote ring; fold it whole, not just the retained windows.
        self.total += float(
            snapshot.get("total", sum(windows.values()))
        )
        for key, value in windows.items():
            index = int(key)
            self._windows[index] = self._windows.get(index, 0.0) + value
        _evict(self._windows, self._latest - self.config.windows + 1)
        self.version += 1
