"""Windowed instruments: histograms and rates over virtual time.

The plain :class:`~repro.telemetry.registry.Histogram` accumulates
over a whole run — good for post-hoc percentiles, useless for "what
is TTFT p99 *right now*".  :class:`WindowedHistogram` keeps a ring of
per-window bucket snapshots keyed by virtual time: window ``i``
covers ``[i * width_s, (i + 1) * width_s)``, observations land in the
window their timestamp selects, and only the most recent ``windows``
windows are retained.  Percentiles over "the last K windows" are then
pure arithmetic over bucket counts — no raw samples are ever stored.

Everything here follows the telemetry design rules: virtual-time
timestamps supplied by the caller, no wall-clock reads, deterministic
snapshots, and replica mergeability — windows align on their absolute
index (``floor(time / width)``), so per-replica instruments observing
disjoint request streams fold into exactly the instrument one merged
stream would have produced (``tests/obs/test_window.py`` pins this).

Every instrument carries an integer :attr:`version` that every
mutation bumps (``observe``, ``inc``, ``merge``, and a rotation that
evicts a window).  Any read is a function of the contents behind the
version and of the read's end window, so a caller that stamps
``(version, end window)`` can skip re-reading (and re-publishing)
while the stamp holds — the observer and the SLO monitor do exactly
that.  Reads are also memoized: ``WindowedHistogram.quantile`` /
``quantiles`` and ``RollingCounter.count`` remember each answer keyed
by its arguments and end window, and the memo is dropped when the
version moved since it was filled.  ``quantiles`` answers several
quantiles from one window merge.  Versions and memos are derived
state only: they never enter a snapshot or a merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, TelemetryError
from repro.telemetry.registry import (
    DEFAULT_TIME_BUCKETS,
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
        if self.width_s <= 0:
            raise ConfigurationError(
                f"window width must be positive, got {self.width_s}"
            )
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


@dataclass
class _Window:
    """One live window's histogram state."""

    index: int
    counts: List[int]
    sum: float = 0.0
    count: int = 0
    min: float = 0.0
    max: float = 0.0

    def observe(self, value: float, bucket: int) -> None:
        self.counts[bucket] += 1
        self.sum += value
        if self.count == 0:
            self.min = self.max = value
        else:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        self.count += 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }


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
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise TelemetryError(
                f"windowed histogram {name!r}: buckets must be a "
                f"strictly increasing non-empty sequence"
            )
        self.name = name
        self.config = config
        self.buckets = tuple(float(b) for b in buckets)
        #: index -> window, only the trailing ``config.windows`` kept.
        self._windows: Dict[int, _Window] = {}
        self._latest: int = -1
        self.dropped: int = 0
        #: Bumped by every mutation that can change a read.
        self.version: int = 0
        #: (q, windows, end index) -> quantile, valid for _memo_version.
        self._memo: Dict[Tuple[float, int, int], float] = {}
        self._memo_version: int = 0

    # -- recording ------------------------------------------------------

    def _bucket(self, value: float) -> int:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                return i
        return len(self.buckets)

    def rotate(self, time_s: float) -> None:
        """Advance the ring so ``time_s`` has a live window; evict
        windows that fell off the trailing edge."""
        index = self.config.index(time_s)
        if index > self._latest:
            self._latest = index
        if _evict(self._windows, self._latest - self.config.windows + 1):
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
        window = self._windows.get(index)
        if window is None:
            window = _Window(
                index=index, counts=[0] * (len(self.buckets) + 1)
            )
            self._windows[index] = window
        window.observe(value, self._bucket(value))

    # -- reading --------------------------------------------------------

    @property
    def latest_index(self) -> int:
        return self._latest

    def window(self, index: int) -> Optional[Dict[str, object]]:
        entry = self._windows.get(index)
        return entry.as_dict() if entry is not None else None

    def recent(self, k: int, now: Optional[float] = None) -> Dict[str, object]:
        """The last ``k`` windows (ending at ``now``'s window, or the
        latest observed) merged into one histogram-shaped dict."""
        _check_span(self.name, k, self.config)
        end = self._latest if now is None else self.config.index(now)
        counts = [0] * (len(self.buckets) + 1)
        total = 0
        total_sum = 0.0
        lo = 0.0
        hi = 0.0
        for index in range(end - k + 1, end + 1):
            window = self._windows.get(index)
            if window is None or not window.count:
                continue
            for i, c in enumerate(window.counts):
                counts[i] += c
            if total == 0:
                lo, hi = window.min, window.max
            else:
                lo = min(lo, window.min)
                hi = max(hi, window.max)
            total += window.count
            total_sum += window.sum
        return {
            "buckets": list(self.buckets),
            "counts": counts,
            "count": total,
            "sum": total_sum,
            "min": lo,
            "max": hi,
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
        """Several quantiles over the last ``windows``, from at most
        one merge of those windows."""
        end = self._latest if now is None else self.config.index(now)
        memo = self._memo
        if self._memo_version != self.version:
            memo.clear()
            self._memo_version = self.version
        merged = None
        values = []
        for q in qs:
            key = (q, windows, end)
            value = memo.get(key)
            if value is None:
                if merged is None:
                    merged = self.recent(windows, now=now)
                value = bucket_quantile(
                    self.buckets,
                    merged["counts"],
                    q,
                    count=merged["count"],
                    min_value=merged["min"],
                    max_value=merged["max"],
                )
                memo[key] = value
            values.append(value)
        return values

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
                self._windows[index].as_dict()
                for index in sorted(self._windows)
            ],
        }

    def merge(self, snapshot: Mapping) -> None:
        """Fold another instrument's snapshot into this one.

        Windows align on their absolute index, so merging replicas
        that observed disjoint slices of one stream reproduces the
        single-instrument result exactly.  Mismatched buckets or
        window width are configuration errors, as in
        :meth:`repro.telemetry.MetricsRegistry.merge`.
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
        self.dropped += int(snapshot.get("dropped", 0))
        self._latest = max(self._latest, int(snapshot.get("latest", -1)))
        for entry in snapshot.get("windows", ()):
            index = int(entry["index"])
            window = self._windows.get(index)
            if window is None:
                window = _Window(
                    index=index, counts=[0] * (len(self.buckets) + 1)
                )
                self._windows[index] = window
            for i, c in enumerate(entry["counts"]):
                window.counts[i] += c
            if entry["count"]:
                if window.count == 0:
                    window.min = entry["min"]
                    window.max = entry["max"]
                else:
                    window.min = min(window.min, entry["min"])
                    window.max = max(window.max, entry["max"])
            window.sum += entry["sum"]
            window.count += entry["count"]
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
        #: (windows, end index) -> count, valid for _memo_version.
        self._memo: Dict[Tuple[int, int], float] = {}
        self._memo_version: int = 0

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

    def count(self, windows: int = 1, now: Optional[float] = None) -> float:
        """Events in the last ``windows`` (ending at ``now``'s window,
        or the latest counted)."""
        end = self._latest if now is None else self.config.index(now)
        if self._memo_version != self.version:
            self._memo.clear()
            self._memo_version = self.version
        key = (windows, end)
        value = self._memo.get(key)
        if value is None:
            _check_span(self.name, windows, self.config)
            value = sum(
                map(
                    self._windows.get,
                    range(end - windows + 1, end + 1),
                    repeat(0.0),
                )
            )
            self._memo[key] = value
        return value

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
