"""Virtual-time stream simulation.

Models the GPU's execution model the way FlexGen uses it: a small set
of in-order *streams* (compute, host-to-device copy, device-to-host
copy) whose operations have known durations and explicit cross-stream
dependencies.  :class:`StreamTimeline` times the resulting DAG in one
pass in program order and records a trace from which the paper's
compute/communication overlap figures are computed.  The tests check
it against an event-by-event engine that executes the same DAG
(``tests/sim/engine.py``), which no runtime path needs.
"""

from repro.sim.clock import SimClock
from repro.sim.streams import StreamTimeline
from repro.sim.trace import Trace, TraceRecord

__all__ = [
    "SimClock",
    "StreamTimeline",
    "Trace",
    "TraceRecord",
]
