"""Scheduler loop state as data: checkpointable and crash-recoverable.

The continuous-batching scheduler used to keep its loop state in ~20
local variables inside ``run()``; this module reifies all of it into
one :class:`SchedulerState` so that

* every iteration boundary can be snapshotted to a deterministic,
  JSON-clean dict (:func:`snapshot_state` plus the clock/injector/KV
  sections assembled by the scheduler into a *checkpoint*);
* an injected crash (:class:`~repro.errors.SimulatedCrash`) can be
  recovered by rebuilding the state (:func:`restore_state`) and
  re-entering the loop — the resumed run replays the gap since the
  last snapshot bit for bit, because every stochastic consumer (the
  fault injector's seeded RNG) is part of the snapshot;
* the chaos sanitizer can check cross-layer invariants against one
  coherent view of the scheduler instead of poking at closures.

Nothing here prices anything or touches an RNG: state is pure data.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CheckpointError
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


@dataclass(frozen=True)
class IterationSample:
    """Queue/batch occupancy at one iteration boundary."""

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
        if self.every < 1:
            raise CheckpointError("checkpoint interval must be >= 1")
        if self.crash_at is not None and self.crash_at < 1:
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


def snapshot_state(state: SchedulerState) -> Dict[str, object]:
    """``state`` as a deterministic dict (``active_costs`` excluded —
    it is rebuilt from the replanner on restore)."""
    return {
        "pending": [_spec_dict(spec) for spec in state.pending],
        "next_arrival": state.next_arrival,
        # The heap list verbatim: restoring the same list preserves
        # the heap invariant and the exact pop order.
        "waiting": [_request_dict(entry[3]) for entry in state.waiting],
        "running": [_request_dict(request) for request in state.running],
        "records": [
            dataclasses.asdict(record) for record in state.records
        ],
        "shed_records": [
            dataclasses.asdict(record) for record in state.shed_records
        ],
        "timeline": [
            dataclasses.asdict(sample) for sample in state.timeline
        ],
        "prefills": state.prefills,
        "decodes": state.decodes,
        "gpu_busy": state.gpu_busy,
        "boundary": state.boundary,
        "effective_max": state.effective_max,
        "degraded_mode": state.degraded_mode,
        "replanned": state.replanned,
        "replan_severity": state.replan_severity,
        "structural_replan": state.structural_replan,
        "degraded_streak": state.degraded_streak,
        "ok_streak": state.ok_streak,
        "stall_streak": state.stall_streak,
        "events": state.events,
        "replans": state.replans,
        "stalls": state.stalls,
        "stall_s": state.stall_s,
        "degraded_iterations": state.degraded_iterations,
        "retried_iterations": state.retried_iterations,
        "retry_overhead_s": state.retry_overhead_s,
        "aborted": state.aborted,
        "attempts": [
            [request_id, state.attempts[request_id]]
            for request_id in sorted(state.attempts)
        ],
        "tier_losses": state.tier_losses,
        "rescued_requests": state.rescued_requests,
        "client_retries": state.client_retries,
        "timeouts": state.timeouts,
    }


def restore_state(
    payload: Dict[str, object],
    request_factory: Callable[[RequestSpec], ServeRequest],
) -> SchedulerState:
    """Rebuild a :class:`SchedulerState` from :func:`snapshot_state`
    output.  ``active_costs`` is left ``None`` — the scheduler
    re-derives it (via its replanner at ``replan_severity``) before
    re-entering the loop."""
    state = SchedulerState(
        pending=[_spec_from(entry) for entry in payload["pending"]],
        effective_max=int(payload["effective_max"]),
        active_costs=None,
    )
    state.next_arrival = int(payload["next_arrival"])
    for entry in payload["waiting"]:
        request = _request_from(entry, request_factory)
        state.waiting.append(
            (
                request.qos.priority,
                request.spec.arrival_s,
                request.spec.request_id,
                request,
            )
        )
    state.running = [
        _request_from(entry, request_factory)
        for entry in payload["running"]
    ]
    state.records = [
        RequestRecord(**entry) for entry in payload["records"]
    ]
    state.shed_records = [
        ShedRecord(**entry) for entry in payload["shed_records"]
    ]
    state.timeline = [
        IterationSample(**entry) for entry in payload["timeline"]
    ]
    state.prefills = int(payload["prefills"])
    state.decodes = int(payload["decodes"])
    state.gpu_busy = float(payload["gpu_busy"])
    state.boundary = int(payload["boundary"])
    state.degraded_mode = bool(payload["degraded_mode"])
    state.replanned = bool(payload["replanned"])
    state.replan_severity = float(payload["replan_severity"])
    state.structural_replan = bool(payload["structural_replan"])
    state.degraded_streak = int(payload["degraded_streak"])
    state.ok_streak = int(payload["ok_streak"])
    state.stall_streak = int(payload["stall_streak"])
    state.events = int(payload["events"])
    state.replans = int(payload["replans"])
    state.stalls = int(payload["stalls"])
    state.stall_s = float(payload["stall_s"])
    state.degraded_iterations = int(payload["degraded_iterations"])
    state.retried_iterations = int(payload["retried_iterations"])
    state.retry_overhead_s = float(payload["retry_overhead_s"])
    state.aborted = bool(payload["aborted"])
    state.attempts = {
        int(request_id): int(count)
        for request_id, count in payload["attempts"]
    }
    state.tier_losses = int(payload["tier_losses"])
    state.rescued_requests = int(payload["rescued_requests"])
    state.client_retries = int(payload["client_retries"])
    state.timeouts = int(payload["timeouts"])
    return state


# -- clock + trace section ("engine" in a checkpoint) --------------------


def snapshot_clock(clock: SimClock, trace: Trace) -> Dict[str, object]:
    """The virtual clock and trace as a boundary checkpoint needs them.

    At an iteration boundary no iteration is in flight, so the clock
    position and the completed trace records capture both exactly.
    """
    return {
        "now": clock.now,
        "trace": [
            {
                "label": record.label,
                "stream": record.stream,
                "category": record.category,
                "start": record.start,
                "end": record.end,
                "meta": dict(record.meta),
            }
            for record in trace.records
        ],
    }


def restore_clock(payload: Dict[str, object]) -> Tuple[SimClock, Trace]:
    trace = Trace()
    for entry in payload["trace"]:
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
    return SimClock(float(payload["now"])), trace
