"""Execution traces and overlap analysis helpers.

Every completed simulated operation leaves a :class:`TraceRecord`.
The paper's Figures 5, 6, 8, 11a, 12d/e and Table IV are all computed
from these records (average transfer time vs. average compute time,
per category/stage/layer-kind).

Records may also be written deferred (:meth:`Trace.defer`), as one
compact row that a builder turns into a run of records on the
trace's first read.  The serving loop writes each committed decode
run's ``gpu`` records, each finished request's ``request`` record and
each shed's ``shed`` record this way, so a pass nobody reads the trace
of builds none of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)


@dataclass(frozen=True)
class TraceRecord:
    """One completed operation in virtual time."""

    label: str
    stream: str
    category: str
    start: float
    end: float
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """An append-only list of trace records with query helpers.

    A deferred entry takes its list positions when written and is
    built on the first read; every read builds the entries written
    since the last one first, so readers only ever see built records.
    """

    def __init__(self) -> None:
        self._records: List[Optional[TraceRecord]] = []
        #: ``(position, count, build, row)`` of entries not yet built.
        self._pending: List[
            Tuple[int, int, Callable[[Any], Sequence[TraceRecord]], Any]
        ] = []

    def record(self, record: TraceRecord) -> None:
        self._records.append(record)

    def defer(
        self,
        build: Callable[[Any], Sequence[TraceRecord]],
        row: Any,
        count: int = 1,
    ) -> None:
        """Append the ``count`` records ``build(row)`` returns, built
        on the first read."""
        records = self._records
        self._pending.append((len(records), count, build, row))
        records.extend([None] * count)

    def _settled(self) -> List[TraceRecord]:
        """The records, with every pending entry built."""
        records = self._records
        pending = self._pending
        if pending:
            for position, count, build, row in pending:
                records[position:position + count] = build(row)
            pending.clear()
        return records  # type: ignore[return-value]

    @property
    def records(self) -> Tuple[TraceRecord, ...]:
        return tuple(self._settled())

    def __len__(self) -> int:
        return len(self._records)

    def filter(
        self,
        *,
        category: Optional[str] = None,
        stream: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
        **meta_filters: object,
    ) -> Tuple[TraceRecord, ...]:
        """Records matching all given criteria.

        ``meta_filters`` match against ``record.meta`` keys, e.g.
        ``trace.filter(category="compute", stage="decode")``.
        """
        out = []
        for record in self._settled():
            if category is not None and record.category != category:
                continue
            if stream is not None and record.stream != stream:
                continue
            if predicate is not None and not predicate(record):
                continue
            if any(
                record.meta.get(key) != value
                for key, value in meta_filters.items()
            ):
                continue
            out.append(record)
        return tuple(out)

    def total_time(
        self, *, category: Optional[str] = None, **meta_filters: object
    ) -> float:
        return sum(
            record.duration
            for record in self.filter(category=category, **meta_filters)
        )

    def mean_duration(
        self, *, category: Optional[str] = None, **meta_filters: object
    ) -> float:
        records = self.filter(category=category, **meta_filters)
        if not records:
            return 0.0
        return sum(record.duration for record in records) / len(records)

    def makespan(self) -> float:
        """End time of the last record (0 for an empty trace)."""
        records = self._settled()
        if not records:
            return 0.0
        return max(record.end for record in records)

    def stream_busy_time(self, stream: str) -> float:
        return sum(
            record.duration for record in self._settled()
            if record.stream == stream
        )

    def overlap_fraction(self, stream_a: str, stream_b: str) -> float:
        """Fraction of stream A's busy time that overlaps stream B.

        Computed over wall-clock intervals; used to sanity-check that
        the zig-zag schedule actually overlaps compute with transfer.
        """
        records = self._settled()
        a_intervals = _merge_intervals(
            (r.start, r.end) for r in records if r.stream == stream_a
        )
        b_intervals = _merge_intervals(
            (r.start, r.end) for r in records if r.stream == stream_b
        )
        a_total = sum(end - start for start, end in a_intervals)
        if a_total <= 0:
            return 0.0
        overlap = _intersection_length(a_intervals, b_intervals)
        return overlap / a_total


def _merge_intervals(
    intervals: Iterable[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    items = sorted(
        (start, end) for start, end in intervals if end > start
    )
    merged: List[Tuple[float, float]] = []
    for start, end in items:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _intersection_length(
    a_intervals: List[Tuple[float, float]],
    b_intervals: List[Tuple[float, float]],
) -> float:
    total = 0.0
    i = j = 0
    while i < len(a_intervals) and j < len(b_intervals):
        a_start, a_end = a_intervals[i]
        b_start, b_end = b_intervals[j]
        lo = max(a_start, b_start)
        hi = min(a_end, b_end)
        if hi > lo:
            total += hi - lo
        if a_end <= b_end:
            i += 1
        else:
            j += 1
    return total
