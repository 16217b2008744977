"""In-order streams timed by direct arithmetic.

Each stream runs its ops in issue order, and an op may also wait on
ops issued before it on other streams (CUDA streams as Listing 1 uses
them).  With every duration known at issue time, an op starts at
``max(its stream's tail, its deps' ends)``, so one pass in program
order times the whole schedule.  The tests' discrete-event engine
(``tests/sim/engine.py``) executes the same ops event by event; it is
the oracle.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.sim.trace import Trace, TraceRecord


class StreamTimeline:
    """Ops issued in program order; :meth:`add` returns the op's
    number, which later ops pass as ``deps``."""

    def __init__(self, origin: float = 0.0) -> None:
        #: Time every stream is free from.
        self.origin = origin
        self._records: List[TraceRecord] = []
        #: Per op: its stream predecessor (or ``None``), then its deps.
        self._waits: List[List[Optional[int]]] = []
        self._last: Dict[str, int] = {}

    def __getitem__(self, op: int) -> TraceRecord:
        return self._records[op]

    def start(self, stream: str, deps: Sequence[int] = ()) -> float:
        """When an op issued now on ``stream`` after ``deps`` starts."""
        last = self._last.get(stream)
        start = self.origin if last is None else self._records[last].end
        for dep in deps:
            start = max(start, self._records[dep].end)
        return start

    def add(
        self,
        stream: str,
        duration: float,
        label: str,
        category: str,
        meta: Dict[str, object],
        deps: Sequence[int] = (),
    ) -> int:
        """Issue one op; it starts at :meth:`start`."""
        duration = float(duration)
        if not 0.0 <= duration < math.inf:
            raise SimulationError(
                f"operation {label!r}: duration must be finite and "
                f">= 0, not {duration}"
            )
        start = self.start(stream, deps)
        self._records.append(
            TraceRecord(label, stream, category, start, start + duration, meta)
        )
        self._waits.append([self._last.get(stream), *deps])
        self._last[stream] = len(self._records) - 1
        return self._last[stream]

    def trace(self) -> Trace:
        """The records in the order the engine's event heap pops them.

        An op is ready once its stream predecessor and deps have all
        popped.  Ready ops pop by completion, ``(end, start)``, then in
        the order the engine started them: after the prerequisite that
        popped last, its stream successor first, then its dependents
        in issue order.
        """
        records = self._records
        blocking = [0] * len(records)
        waiters: List[List[int]] = [[] for _ in records]
        for op, waits in enumerate(self._waits):
            for wait in set(waits) - {None}:
                waiters[wait].append(op)
                blocking[op] += 1
        heap = [
            (record.end, record.start, -1, False, op)
            for op, record in enumerate(records)
            if not blocking[op]
        ]
        heapq.heapify(heap)
        trace = Trace()
        while heap:
            trigger = heapq.heappop(heap)[-1]
            rank = len(trace)
            trace.record(records[trigger])
            for op in waiters[trigger]:
                blocking[op] -= 1
                if not blocking[op]:
                    record = records[op]
                    successor = trigger == self._waits[op][0]
                    heapq.heappush(
                        heap,
                        (record.end, record.start, rank, not successor, op),
                    )
        return trace
