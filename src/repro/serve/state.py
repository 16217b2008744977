"""Scheduler loop state as data: checkpointable and crash-recoverable.

Every loop-carried variable of a continuous-batching scheduler pass
lives in one :class:`SchedulerState`, which the loop's phase methods
share, so that

* every iteration boundary can be snapshotted to a deterministic,
  JSON-clean dict (:func:`snapshot_state` plus the clock/injector/KV
  sections assembled by the scheduler into a *checkpoint*);
* an injected crash (:class:`~repro.errors.SimulatedCrash`) can be
  recovered by rebuilding the state (:func:`restore_state`) and
  re-entering the loop — the resumed run replays the gap since the
  last snapshot bit for bit, because every stochastic consumer (the
  fault injector's seeded RNG) is part of the snapshot;
* the chaos sanitizer can check cross-layer invariants against one
  coherent view of the scheduler.

Nothing here prices anything or touches an RNG: state is pure data.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CheckpointError, read_field, require_int
from repro.serve.request import (
    RequestRecord,
    RequestSpec,
    ServeRequest,
    ShedRecord,
)
from repro.sim.clock import SimClock
from repro.sim.trace import Trace, TraceRecord

#: Bump when the checkpoint layout changes incompatibly.
CHECKPOINT_VERSION = 1


@dataclass(slots=True)
class IterationSample:
    """Queue/batch occupancy at one iteration boundary.

    Slotted and not frozen: one is built per iteration, and a frozen
    dataclass takes about five times as long to construct.  Nothing
    mutates or hashes a sample.
    """

    time_s: float
    kind: str  # "prefill" | "decode"
    batch: int
    waiting: int
    running_after: int
    #: Whether the scheduler was in degraded mode at this boundary.
    degraded: bool = False


@dataclass(frozen=True)
class CheckpointPlan:
    """When to snapshot a scheduler run, and when to crash it.

    ``every`` snapshots the state at each boundary whose number is a
    multiple of it (the boundary counter starts at 1; the first
    boundary is always snapshotted so a crash can never strand the
    run without a restore point).  ``crash_at`` raises
    :class:`~repro.errors.SimulatedCrash` — carrying the latest
    snapshot — at that boundary, before any of its work runs.
    ``sink`` optionally receives every snapshot taken.
    """

    every: int = 1
    crash_at: Optional[int] = None
    sink: Optional[Callable[[dict], None]] = None

    def __post_init__(self) -> None:
        require_int("every", self.every, CheckpointError)
        if self.every < 1:
            raise CheckpointError("checkpoint interval must be >= 1")
        if self.crash_at is not None:
            require_int("crash_at", self.crash_at, CheckpointError)
            if self.crash_at < 1:
                raise CheckpointError("crash_at must be >= 1")


@dataclass
class SchedulerState:
    """Every loop-carried variable of one scheduler pass."""

    #: The arrival stream, sorted by (arrival, id).  Client retries of
    #: shed requests are inserted back in here, so it can grow.
    pending: List[RequestSpec]
    #: Degraded-mode admission cap (== max_batch when healthy).
    effective_max: int
    #: The cost model iterations are priced from while re-planned.
    #: Runtime object — never serialized; rebuilt from the replanner
    #: at ``replan_severity`` on restore.
    active_costs: object
    next_arrival: int = 0
    #: (priority, arrival, id, request) heap of waiting requests.
    waiting: List[Tuple[int, float, int, ServeRequest]] = field(
        default_factory=list
    )
    running: List[ServeRequest] = field(default_factory=list)
    records: List[RequestRecord] = field(default_factory=list)
    shed_records: List[ShedRecord] = field(default_factory=list)
    timeline: List[IterationSample] = field(default_factory=list)
    prefills: int = 0
    decodes: int = 0
    gpu_busy: float = 0.0
    #: Iteration boundaries entered so far (1-based; drives the
    #: checkpoint cadence and sanitizer reporting).
    boundary: int = 0

    # Degraded-mode state machine.
    degraded_mode: bool = False
    replanned: bool = False
    replan_severity: float = 0.0
    #: The active re-plan was triggered by a structural tier loss (it
    #: resets when the loss clears, not on bandwidth recovery).
    structural_replan: bool = False
    degraded_streak: int = 0
    ok_streak: int = 0
    stall_streak: int = 0
    events: int = 0
    replans: int = 0
    stalls: int = 0
    stall_s: float = 0.0
    degraded_iterations: int = 0
    retried_iterations: int = 0
    retry_overhead_s: float = 0.0
    aborted: bool = False

    # Chaos accounting.
    #: request id -> client attempts so far (1 = original only).
    attempts: Dict[int, int] = field(default_factory=dict)
    tier_losses: int = 0
    rescued_requests: int = 0
    client_retries: int = 0
    timeouts: int = 0

    #: Snapshot dicts of the append-only histories (records, shed
    #: records, timeline, the absorbed pending prefix and the trace),
    #: each entry built once (``_rows``); never serialized.  ``None``
    #: once finalization has sorted the histories: no snapshot may
    #: follow.
    rows: Optional[Dict[str, List[dict]]] = field(
        default_factory=dict, repr=False, compare=False
    )


def waiting_entry(
    request: ServeRequest,
) -> Tuple[int, float, int, ServeRequest]:
    """``request``'s entry in the waiting heap: QoS priority first,
    then FIFO by arrival, ties broken by id."""
    return (
        request.qos.priority,
        request.spec.arrival_s,
        request.spec.request_id,
        request,
    )


# -- (de)serialization ----------------------------------------------------


def _spec_dict(spec: RequestSpec) -> Dict[str, object]:
    payload = {
        "request_id": spec.request_id,
        "arrival_s": spec.arrival_s,
        "prompt_len": spec.prompt_len,
        "gen_len": spec.gen_len,
        "qos_class": spec.qos_class,
    }
    # Prefix-sharing fields only when set: checkpoints of untagged
    # streams stay byte-identical to CHECKPOINT_VERSION 1 files.
    if spec.prefix_group is not None:
        payload["prefix_group"] = spec.prefix_group
        payload["prefix_len"] = spec.prefix_len
    return payload


def _spec_from(payload: Dict[str, object]) -> RequestSpec:
    group = payload.get("prefix_group")
    return RequestSpec(
        request_id=int(payload["request_id"]),
        arrival_s=float(payload["arrival_s"]),
        prompt_len=int(payload["prompt_len"]),
        gen_len=int(payload["gen_len"]),
        qos_class=str(payload["qos_class"]),
        prefix_group=None if group is None else str(group),
        prefix_len=int(payload.get("prefix_len", 0)),
    )


def _request_dict(request: ServeRequest) -> Dict[str, object]:
    return {
        "spec": _spec_dict(request.spec),
        "admitted_s": request.admitted_s,
        "token_times": list(request.token_times),
    }


def _request_from(
    payload: Dict[str, object],
    request_factory: Callable[[RequestSpec], ServeRequest],
) -> ServeRequest:
    request = request_factory(_spec_from(payload["spec"]))
    admitted = payload["admitted_s"]
    request.admitted_s = None if admitted is None else float(admitted)
    request.token_times = [float(t) for t in payload["token_times"]]
    return request


def _rows(
    state: SchedulerState,
    name: str,
    entries: Sequence,
    serialize: Callable[[object], dict],
    end: Optional[int] = None,
) -> List[dict]:
    """``entries[:end]`` as dicts, serializing only the entries added
    since the last snapshot; ``entries[:end]`` must only ever grow at
    its end.  The memoized list itself is returned: copy it before
    handing it out.  Snapshots share the dicts, so treat a snapshot as
    read-only."""
    assert state.rows is not None, "no snapshot after finalization"
    rows = state.rows.setdefault(name, [])
    rows.extend(map(serialize, entries[len(rows):end]))
    return rows


def _pending_rows(state: SchedulerState) -> List[dict]:
    """The arrival stream as dicts.  Inserts land at or after
    ``next_arrival``, so the absorbed prefix is append-only and each
    of its specs is serialized once; the tail is serialized per
    snapshot."""
    absorbed = _rows(
        state, "pending", state.pending, _spec_dict, state.next_arrival
    )
    tail = state.pending[state.next_arrival:]
    return absorbed + [_spec_dict(spec) for spec in tail]


def _history_rows(state: SchedulerState, name: str) -> List[dict]:
    return list(
        _rows(state, name, getattr(state, name), dataclasses.asdict)
    )


#: The scalar fields a checkpoint carries: every ``int``, ``float``
#: and ``bool`` field of :class:`SchedulerState`, with its type.
_SCALARS: Tuple[Tuple[str, type], ...] = tuple(
    (f.name, {"int": int, "float": float, "bool": bool}[f.type])
    for f in dataclasses.fields(SchedulerState)
    if f.type in ("int", "float", "bool")
)


def _exactly(kind: type) -> Callable:
    """A reader that takes only a ``kind`` value: a bool only for a
    bool, an int that is not a bool for an int, and an int or float
    that is not a bool for a float (read as a float)."""
    accepted = (int, float) if kind is float else (kind,)

    def read(value):
        if isinstance(value, bool) is not (kind is bool) or not isinstance(
            value, accepted
        ):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return kind(value)

    return read


def snapshot_state(state: SchedulerState) -> Dict[str, object]:
    """``state`` as a deterministic dict (``active_costs`` excluded —
    it is rebuilt from the replanner on restore)."""
    payload = {name: getattr(state, name) for name, _ in _SCALARS}
    payload.update(
        pending=_pending_rows(state),
        # The heap list verbatim: restoring the same list preserves
        # the heap invariant and the exact pop order.
        waiting=[_request_dict(entry[3]) for entry in state.waiting],
        running=[_request_dict(request) for request in state.running],
        records=_history_rows(state, "records"),
        shed_records=_history_rows(state, "shed_records"),
        timeline=_history_rows(state, "timeline"),
        attempts=[
            [request_id, state.attempts[request_id]]
            for request_id in sorted(state.attempts)
        ],
    )
    return payload


def restore_state(
    payload: Dict[str, object],
    request_factory: Callable[[RequestSpec], ServeRequest],
) -> SchedulerState:
    """Rebuild a :class:`SchedulerState` from :func:`snapshot_state`
    output.  ``active_costs`` is left ``None`` — the scheduler
    re-derives it (via its replanner at ``replan_severity``) before
    re-entering the loop."""

    def read(key: str, cast: Callable):
        return read_field(payload, f"state.{key}", cast)

    def rows(make: Callable) -> Callable:
        return lambda entries: [make(entry) for entry in entries]

    def requests(entry: Dict[str, object]) -> ServeRequest:
        return _request_from(entry, request_factory)

    return SchedulerState(
        pending=read("pending", rows(_spec_from)),
        active_costs=None,
        waiting=read("waiting", rows(lambda e: waiting_entry(requests(e)))),
        running=read("running", rows(requests)),
        records=read("records", rows(lambda e: RequestRecord(**e))),
        shed_records=read("shed_records", rows(lambda e: ShedRecord(**e))),
        timeline=read("timeline", rows(lambda e: IterationSample(**e))),
        attempts=read(
            "attempts", lambda pairs: {int(i): int(n) for i, n in pairs}
        ),
        **{name: read(name, _exactly(kind)) for name, kind in _SCALARS},
    )


# -- clock + trace section ("engine" in a checkpoint) --------------------


def _trace_dict(record: TraceRecord) -> Dict[str, object]:
    return {
        "label": record.label,
        "stream": record.stream,
        "category": record.category,
        "start": record.start,
        "end": record.end,
        "meta": dict(record.meta),
    }


def snapshot_clock(
    clock: SimClock, trace: Trace, state: SchedulerState
) -> Dict[str, object]:
    """The virtual clock and trace as a boundary checkpoint needs them.

    At an iteration boundary no iteration is in flight, so the clock
    position and the completed trace records capture both exactly.
    The trace is append-only: each record is serialized once, into
    ``state``'s snapshot rows.
    """
    return {
        "now": clock.now,
        "trace": list(_rows(state, "trace", trace.records, _trace_dict)),
    }


def _trace_from(entries) -> Trace:
    trace = Trace()
    for entry in entries:
        trace.record(
            TraceRecord(
                label=str(entry["label"]),
                stream=str(entry["stream"]),
                category=str(entry["category"]),
                start=float(entry["start"]),
                end=float(entry["end"]),
                meta=dict(entry["meta"]),
            )
        )
    return trace


def restore_clock(payload: Dict[str, object]) -> Tuple[SimClock, Trace]:
    now = read_field(payload, "engine.now", float)
    return SimClock(now), read_field(payload, "engine.trace", _trace_from)
