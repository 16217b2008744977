"""Heap-based discrete-event engine with in-order streams: the oracle.

It lives with the tests because no runtime path executes through it:
it executes, event by event, the ops
:class:`~repro.sim.streams.StreamTimeline` times in one pass and the
serving loop's one-stream iterations, and the tests check that both
agree on every time and trace position.

The execution model mirrors CUDA streams as FlexGen uses them:

* A :class:`Stream` executes its operations strictly in submission
  order (like a CUDA stream).
* An :class:`Operation` may additionally depend on operations in
  other streams (like ``cudaStreamWaitEvent``).
* Durations are supplied at enqueue time (from the platform's
  bandwidth/roofline models); the engine resolves start times.

Typical use::

    engine = SimEngine()
    h2d = engine.stream("h2d")
    compute = engine.stream("compute")
    load0 = h2d.enqueue(0.010, label="load L0")
    comp0 = compute.enqueue(0.002, label="compute L0", deps=[load0])
    engine.run()
    assert comp0.end_time == 0.012
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.trace import Trace, TraceRecord


@dataclass(eq=False)
class Operation:
    """One unit of work on a stream.

    Operations compare by identity (two distinct ops are never equal,
    even with identical parameters)."""

    op_id: int
    stream: "Stream"
    duration: float
    label: str
    category: str
    deps: Tuple["Operation", ...]
    meta: Dict[str, object] = field(default_factory=dict)
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    #: Operations whose start is gated on this one completing.
    _dependents: List["Operation"] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.end_time is not None

    @property
    def started(self) -> bool:
        return self.start_time is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Operation {self.op_id} {self.label!r} on "
            f"{self.stream.name!r} dur={self.duration:.6f}>"
        )


class Stream:
    """An in-order execution queue (a simulated CUDA stream)."""

    def __init__(self, engine: "SimEngine", name: str) -> None:
        self.engine = engine
        self.name = name
        self._queue: List[Operation] = []
        self._next_index = 0       # first not-yet-completed op
        self._running: Optional[Operation] = None

    def enqueue(
        self,
        duration: float,
        *,
        label: str = "",
        category: str = "op",
        deps: Iterable[Operation] = (),
        meta: Optional[Dict[str, object]] = None,
    ) -> Operation:
        """Append an operation to this stream.

        Args:
            duration: Execution time in seconds (must be >= 0; zero-
                duration ops are useful as synchronization markers).
            label: Trace label.
            category: Trace category (e.g. ``"transfer"``/``"compute"``).
            deps: Operations (any stream) that must finish first.
            meta: Arbitrary metadata copied into the trace record.
        """
        if duration < 0:
            raise SimulationError(
                f"operation {label!r}: duration must be >= 0"
            )
        deps = tuple(deps)
        for dep in deps:
            if dep.engine_ref is not self.engine:
                raise SimulationError(
                    f"operation {label!r} depends on an operation from a "
                    "different engine"
                )
        op = Operation(
            op_id=self.engine._next_op_id(),
            stream=self,
            duration=float(duration),
            label=label,
            category=category,
            deps=deps,
            meta=dict(meta or {}),
        )
        op.engine_ref = self.engine  # type: ignore[attr-defined]
        for dep in deps:
            if not dep.done:
                dep._dependents.append(op)
        self._queue.append(op)
        self.engine._notify_enqueued(self)
        return op

    def barrier(self, deps: Iterable[Operation], label: str = "sync") -> Operation:
        """A zero-duration op that orders this stream after ``deps``."""
        return self.enqueue(0.0, label=label, category="sync", deps=deps)

    # -- engine internals --------------------------------------------------

    def _head(self) -> Optional[Operation]:
        if self._next_index < len(self._queue):
            return self._queue[self._next_index]
        return None

    def _head_ready(self) -> bool:
        head = self._head()
        if head is None or self._running is not None or head.started:
            return False
        return all(dep.done for dep in head.deps)

    @property
    def idle(self) -> bool:
        return self._running is None and self._next_index >= len(self._queue)


class SimEngine:
    """Coordinates streams over one virtual clock and records a trace."""

    def __init__(self) -> None:
        self.clock = SimClock()
        self.trace = Trace()
        self._streams: Dict[str, Stream] = {}
        self._event_heap: List[Tuple[float, int, Operation]] = []
        self._op_counter = itertools.count()
        self._event_counter = itertools.count()

    # -- construction ------------------------------------------------------

    def stream(self, name: str) -> Stream:
        """Get or create the named stream."""
        if name not in self._streams:
            self._streams[name] = Stream(self, name)
        return self._streams[name]

    def _next_op_id(self) -> int:
        return next(self._op_counter)

    # -- execution ---------------------------------------------------------

    def _notify_enqueued(self, stream: Stream) -> None:
        if stream._head_ready():
            self._start(stream._head())

    def _start(self, op: Operation) -> None:
        assert op is not None and not op.started
        op.start_time = self.clock.now
        op.stream._running = op
        heapq.heappush(
            self._event_heap,
            (op.start_time + op.duration, next(self._event_counter), op),
        )

    def _complete(self, op: Operation) -> None:
        op.end_time = self.clock.now
        stream = op.stream
        assert stream._running is op
        stream._running = None
        stream._next_index += 1
        self.trace.record(
            TraceRecord(
                label=op.label,
                stream=stream.name,
                category=op.category,
                start=op.start_time or 0.0,
                end=op.end_time,
                meta=dict(op.meta),
            )
        )
        # Ops waiting on this one may now be startable, as may this
        # stream's next op.
        candidates = [stream] + [dep.stream for dep in op._dependents]
        for candidate in candidates:
            if candidate._head_ready():
                self._start(candidate._head())

    def run(self) -> float:
        """Process events until every stream drains; returns final time."""
        # Kick any streams whose heads became ready before run().
        for stream in self._streams.values():
            if stream._head_ready():
                self._start(stream._head())
        while self._event_heap:
            timestamp, _, op = heapq.heappop(self._event_heap)
            self.clock.advance_to(timestamp)
            self._complete(op)
        for stream in self._streams.values():
            if not stream.idle:
                head = stream._head()
                raise SimulationError(
                    f"deadlock: stream {stream.name!r} cannot start "
                    f"{head.label!r} (unsatisfied dependency)"
                )
        return self.clock.now

    @property
    def now(self) -> float:
        return self.clock.now
