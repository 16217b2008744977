"""Spans and the tracer: one request, followed end to end.

A :class:`Span` is a named virtual-time interval with attributes,
point-in-time events, and a parent — the serving scheduler opens one
per run, one per iteration, and one per request, so a single request
can be followed from arrival through admission, per-iteration
pricing, and engine streams to completion.  Spans carry *virtual*
timestamps supplied by the caller (the simulation clock), never
wall-clock reads, so traces are deterministic and two identical runs
produce identical span trees.

Span ids are sequential integers assigned at start time; parent links
use those ids, which keeps serialized traces (JSONL, Chrome) stable
and mergeable with the engine's operation-level
:class:`~repro.sim.trace.Trace`.

Finished spans may also be written deferred (:meth:`Tracer.defer`):
a run of spans laid back to back reserves consecutive ids at once and
is built from one row on the tracer's first read.  The serving loop
writes each committed decode run's ``iteration`` spans and each
finished request's ``request`` span this way, so a pass nobody reads
the spans of never builds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import TelemetryError


@dataclass(frozen=True)
class SpanEvent:
    """A point-in-time annotation inside a span."""

    name: str
    time_s: float
    attrs: Tuple[Tuple[str, object], ...] = ()

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"name": self.name, "time_s": self.time_s}
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


@dataclass
class Span:
    """One named virtual-time interval."""

    name: str
    span_id: int
    start_s: float
    parent_id: Optional[int] = None
    category: str = "span"
    attrs: Dict[str, object] = field(default_factory=dict)
    events: List[SpanEvent] = field(default_factory=list)
    end_s: Optional[float] = None

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            raise TelemetryError(f"span {self.name!r} has not ended")
        return self.end_s - self.start_s

    def set(self, key: str, value: object) -> "Span":
        self.attrs[key] = value
        return self

    def event(self, name: str, time_s: float, **attrs: object) -> "Span":
        self.events.append(
            SpanEvent(
                name=name,
                time_s=float(time_s),
                attrs=tuple(sorted(attrs.items())),
            )
        )
        return self

    def end(self, time_s: float) -> "Span":
        if self.end_s is not None:
            raise TelemetryError(f"span {self.name!r} already ended")
        if time_s < self.start_s:
            raise TelemetryError(
                f"span {self.name!r} would end before it starts "
                f"({time_s} < {self.start_s})"
            )
        self.end_s = float(time_s)
        return self

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "span_id": self.span_id,
            "category": self.category,
            "start_s": self.start_s,
            "end_s": self.end_s,
        }
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.events:
            out["events"] = [event.as_dict() for event in self.events]
        return out


class _NullSpan:
    """No-op span handed out by a disabled tracer."""

    name = ""
    span_id = -1
    parent_id = None
    category = "null"
    start_s = 0.0
    end_s = 0.0
    attrs: Dict[str, object] = {}
    events: List[SpanEvent] = []
    finished = True
    duration_s = 0.0

    def set(self, key: str, value: object) -> "_NullSpan":
        return self

    def event(self, name: str, time_s: float, **attrs: object) -> "_NullSpan":
        return self

    def end(self, time_s: float) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans for one run, in deterministic id order.

    A deferred span takes the next id when written and is built on the
    first read; every read builds the spans deferred since the last
    one first, so readers only ever see built spans.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._spans: List[Optional[Span]] = []
        #: ``(first span id, count, build, row)`` of spans not yet
        #: built.
        self._pending: List[
            Tuple[int, int, Callable[[int, Any], Sequence[Span]], Any]
        ] = []

    def start(
        self,
        name: str,
        start_s: float,
        parent: Optional[Span] = None,
        category: str = "span",
        **attrs: object,
    ) -> Span:
        """Open a span at virtual time ``start_s``."""
        if not self.enabled:
            return NULL_SPAN  # type: ignore[return-value]
        parent_id = None
        if parent is not None and parent is not NULL_SPAN:
            parent_id = parent.span_id
        span = Span(
            name=name,
            span_id=len(self._spans),
            start_s=float(start_s),
            parent_id=parent_id,
            category=category,
            attrs=dict(attrs),
        )
        self._spans.append(span)
        return span

    def span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        parent: Optional[Span] = None,
        category: str = "span",
        **attrs: object,
    ) -> Span:
        """Record an already-complete interval in one call."""
        return self.start(
            name, start_s, parent=parent, category=category, **attrs
        ).end(end_s)

    def defer(
        self,
        build: Callable[[int, Any], Sequence[Span]],
        row: Any,
        start_s: float,
        ends: Sequence[float],
    ) -> int:
        """Reserve consecutive span ids for the finished spans
        ``build(first_id, row)``, built on the first read: one span
        per entry of ``ends``, laid back to back from ``start_s``.
        Returns the first id (-1, reserving nothing, when disabled);
        an end before its start raises now, as :meth:`Span.end`
        would.
        """
        if not self.enabled:
            return NULL_SPAN.span_id
        spans = self._spans
        first_id = len(spans)
        for index, end_s in enumerate(ends):
            if end_s < start_s:
                raise TelemetryError(
                    f"span {build(first_id, row)[index].name!r} would "
                    f"end before it starts ({end_s} < {start_s})"
                )
            start_s = end_s
        count = len(ends)
        self._pending.append((first_id, count, build, row))
        spans.extend([None] * count)
        return first_id

    def _settled(self) -> List[Span]:
        """The spans, with every deferred one built."""
        spans = self._spans
        pending = self._pending
        if pending:
            for first_id, count, build, row in pending:
                spans[first_id:first_id + count] = build(first_id, row)
            pending.clear()
        return spans  # type: ignore[return-value]

    @property
    def spans(self) -> Tuple[Span, ...]:
        return tuple(self._settled())

    def finished_spans(self) -> Tuple[Span, ...]:
        return tuple(span for span in self._settled() if span.finished)

    def children_of(self, parent: Span) -> Tuple[Span, ...]:
        return tuple(
            span
            for span in self._settled()
            if span.parent_id == parent.span_id
        )

    def __len__(self) -> int:
        return len(self._spans)

    def to_dicts(self) -> List[Dict[str, object]]:
        """Finished spans as JSON-able dicts (unfinished are dropped)."""
        return [span.as_dict() for span in self._settled() if span.finished]

    @classmethod
    def from_dicts(cls, entries) -> "Tracer":
        tracer = cls()
        for entry in entries:
            span = Span(
                name=entry["name"],
                span_id=int(entry["span_id"]),
                start_s=float(entry["start_s"]),
                parent_id=entry.get("parent_id"),
                category=entry.get("category", "span"),
                attrs=dict(entry.get("attrs", {})),
            )
            for event in entry.get("events", ()):
                span.event(
                    event["name"], event["time_s"],
                    **event.get("attrs", {}),
                )
            span.end(float(entry["end_s"]))
            tracer._spans.append(span)
        return tracer
