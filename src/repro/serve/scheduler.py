"""Continuous batching on a virtual clock.

vLLM-style iteration-level scheduling: the GPU runs one *iteration*
at a time (a prefill pass over newly admitted prompts, or a decode
pass producing one token for every running sequence), and scheduling
decisions happen only at iteration boundaries:

* arrivals whose time has come join the waiting queue;
* waiting requests are admitted — highest QoS priority first, FIFO
  within a class — while the running batch has free KV slots (the
  admission limit from :mod:`repro.core.batching`'s GPU memory plan);
* newly admitted requests run a dedicated prefill iteration (decode
  pauses, as in vLLM's default prefill-prioritizing scheduler); their
  first token appears when it completes;
* otherwise the running batch decodes one token each; finished
  sequences retire and free their slots.

Iterations run back to back on one GPU, so the loop needs no event
queue: a :class:`~repro.sim.clock.SimClock` advances by each
iteration's price, and every iteration appends a ``gpu``-stream
record to the run's :class:`~repro.sim.trace.Trace` (the records a
one-stream discrete-event engine would produce, float for float).
The loop builds none of its trace records or spans: a committed run
is written once, as one row, and its ``gpu`` records and
``iteration`` spans are built from that row on first read; a
finished request's ``request`` record and span are built from its
:class:`~repro.serve.request.RequestRecord`, and a shed's record from
its :class:`~repro.serve.request.ShedRecord`, the same way.  Counters,
histograms and spans are written only when the run's telemetry
records anything (decided once, when the loop binds).  Per-request
spans are appended per QoS class, which makes the whole run
exportable through :func:`repro.sim.chrome_trace.save_chrome_trace`.

**Loop phases.**  One pass is a :class:`_ServingLoop`: the
:class:`~repro.serve.state.SchedulerState`, the clock and trace, and
the run's telemetry handles, with one method per phase.  Each
boundary runs *boundary* (checkpoint, absorb arrivals, observer,
queueing deadlines, fault health — structural changes and the
degraded-mode machine — then the sanitizer), *admit* (pop waiting
requests into a prefill batch under the KV-aware limit), *execute*
(*price* the prefill or a run of decodes, then *commit* it: clock,
trace, counters, spans, tokens, retirements), and at the end
*finalize*.  The generator that sequences them only parks and stops;
its parks are transparent, so a drive advanced once to a time runs
exactly as one advanced through every earlier time.  Every pass runs
through a :class:`SchedulerDrive`; :meth:`ContinuousBatchingScheduler.run`
is one closed and finished at once.

**Decode runs.**  Decodes over a batch that nothing joins or leaves
are priced and committed as one run (:meth:`_ServingLoop.decode_run`),
whose inner boundaries admit, absorb and retire nothing.  Inside a
run a dynamic KV policy surcharges every iteration, an observer sees
every iteration and inner boundary, and the sanitizer checks the inner
boundaries in one call (:meth:`_ServingLoop.watch`), with the verdicts
of the per-iteration loop.  A run is one iteration under a fault
injector, a checkpoint plan or a queueing deadline.

**Fault injection and graceful degradation.**  With a
:class:`~repro.faults.injector.FaultInjector` attached, every
iteration's transfer component is priced through the injector
(degradation slowdowns, transient-failure retries, outages), and a
:class:`~repro.serve.resilience.ResiliencePolicy` drives the
degraded-mode playbook: shed low-priority waiting requests, shrink
the admitted batch, optionally re-plan placement against the degraded
bandwidth map — at most once per degradation event.  A tier that
stays down past the stall budget aborts the run by shedding all
outstanding work instead of hanging.  All fault handling sits behind
the one ``injector is not None`` branch of each phase, so a run
without an injector never reaches it.

**Structural tier loss.**  A schedule containing structural faults
(:class:`~repro.faults.models.TierLoss`,
:class:`~repro.faults.models.CapacityShrink`,
:class:`~repro.faults.models.CorrelatedOutage`) changes the *shape*
of the memory hierarchy at runtime, not just its speed.  With a
dynamic KV manager attached the scheduler polls
:meth:`~repro.kv.manager.KvCacheManager.sync_structure` each
boundary: a lost tier triggers either an emergency KV rescue
(``rescue_kv`` — extents re-materialize on surviving tiers, priced
through the solver and the injector) or a shed of every request whose
KV it held; a shrunken tier spills its overflow coldest-first.  Tier
loss also re-plans placement at ``tier_loss_severity``.  Requests can
carry a queueing deadline (shed reason ``"timeout"``), and shed
requests with a *recoverable* reason re-enter the arrival stream
after a deterministic client backoff when ``retry_shed`` is on.

**Checkpoint / crash / recovery.**  Passing a
:class:`~repro.serve.state.CheckpointPlan` snapshots the entire loop
state — scheduler, virtual clock + trace, injector RNG, KV tier map,
telemetry — at iteration boundaries, and optionally raises
:class:`~repro.errors.SimulatedCrash` (carrying the latest snapshot)
at a chosen boundary.  ``run(restore=checkpoint)`` resumes from a
snapshot; because every stochastic consumer restores its exact state,
the resumed run is bit-identical to the uncrashed one.

**Telemetry.**  With a :class:`repro.telemetry.Telemetry` attached
(explicitly or ambiently), the run additionally emits a span tree —
one run span, one span per iteration, one per request (with
admission/first-token events) and per shed — plus ``serve/*``
registry counters and virtual-time histograms.  All instruments are
no-ops on the inert default and never perturb priced results.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    SimulatedCrash,
    TransferError,
    WorkloadError,
    read_field,
    require_int,
)
from repro.faults.injector import FaultInjector
from repro.faults.models import HOST_TARGET, PCIE_TARGET
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.serve.request import (
    QosClass,
    RequestRecord,
    RequestSpec,
    ServeRequest,
    ShedRecord,
    class_index,
)
from repro.serve.resilience import (
    DEFAULT_RESILIENCE,
    Replanner,
    ResiliencePolicy,
)
from repro.serve.state import (
    CHECKPOINT_VERSION,
    CheckpointPlan,
    IterationSample,
    SchedulerState,
    restore_clock,
    restore_state,
    snapshot_clock,
    snapshot_state,
    waiting_entry,
)
from repro.sim.clock import SimClock
from repro.sim.trace import Trace, TraceRecord
from repro.telemetry import Histogram, Span, Telemetry, resolve_telemetry

#: Targets consulted when the caller does not name the platform's own
#: link/region labels.
DEFAULT_FAULT_TARGETS: Tuple[str, ...] = (HOST_TARGET, PCIE_TARGET)

#: Shed reasons a well-behaved client retries (transient conditions);
#: permanent rejections ("degraded" load shedding, "outage" aborts,
#: "kv_capacity" never-fits) are final.
RETRYABLE_SHED_REASONS = frozenset(
    {"timeout", "kv_lost", "rescue_failed", "kv_shrink"}
)

_ARRIVAL_ORDER = attrgetter("arrival_s", "request_id")
_BY_ID = attrgetter("request_id")


@dataclass(frozen=True)
class FaultSummary:
    """Resilience/fault accounting for one scheduler pass."""

    #: OK -> degraded transitions (each may trigger one re-plan).
    degradation_events: int = 0
    #: Iterations executed while in degraded mode.
    degraded_iterations: int = 0
    #: Iterations whose transfers needed at least one retry.
    retried_iterations: int = 0
    #: Virtual time spent in backoffs and wasted (failed) attempts.
    retry_overhead_s: float = 0.0
    #: Placement re-plans performed.
    replans: int = 0
    #: Boundaries where the tier was unusable and the scheduler
    #: stalled for a retry budget.
    stalls: int = 0
    stall_s: float = 0.0
    #: Requests rejected by load shedding / outage abort.
    shed_requests: int = 0
    #: The run was abandoned because a tier stayed down past the
    #: stall budget.
    aborted: bool = False
    #: Structural tier-loss events observed by the KV manager.
    tier_losses: int = 0
    #: Requests whose KV survived a tier loss via emergency rescue.
    rescued_requests: int = 0
    #: Shed requests that re-entered the stream as client retries.
    client_retries: int = 0
    #: Requests shed for exceeding their queueing deadline.
    timeouts: int = 0


@dataclass(frozen=True)
class SchedulerRun:
    """Everything one scheduler pass produced."""

    records: Tuple[RequestRecord, ...]
    timeline: Tuple[IterationSample, ...]
    trace: Trace
    span_s: float
    gpu_busy_s: float
    prefill_iterations: int
    decode_iterations: int
    #: Requests rejected under degraded operation (empty without
    #: fault injection).
    shed: Tuple[ShedRecord, ...] = ()
    faults: FaultSummary = field(default_factory=FaultSummary)

    @property
    def iterations(self) -> int:
        return self.prefill_iterations + self.decode_iterations

    @property
    def utilization(self) -> float:
        """Fraction of virtual time the GPU spent on iterations."""
        if self.span_s <= 0:
            return 0.0
        return min(1.0, self.gpu_busy_s / self.span_s)


def _insert_pending(state: SchedulerState, spec: RequestSpec) -> None:
    """Insert ``spec`` into the unabsorbed tail of the pending list at
    its sorted ``(arrival_s, request_id)`` position — exactly where a
    stream sorted up front would have held it."""
    key = _ARRIVAL_ORDER(spec)
    pending = state.pending
    index = state.next_arrival
    while index < len(pending) and _ARRIVAL_ORDER(pending[index]) <= key:
        index += 1
    pending.insert(index, spec)


# Shed-walk selectors: ``drop(request, arg)`` picks what to shed.


def _always(request: ServeRequest, arg) -> bool:
    return True


def _sheddable(request: ServeRequest, floor: int) -> bool:
    return request.qos.priority >= floor


def _listed(request: ServeRequest, ids) -> bool:
    return request.spec.request_id in ids


def _expired(request: ServeRequest, deadline: Tuple[float, float]) -> bool:
    now, limit_s = deadline
    return now - request.spec.arrival_s > limit_s


def _unbucketed_decode(costs, batch: int, context_len: int):
    """A decode price from a cost model without buckets: it holds for
    one context length."""
    return costs.decode_time(batch, context_len), 1


# Builders of the trace records and spans the loop writes as rows, run
# on the first read.  A committed run's row is ``(kind, batch size,
# first tokens, prefill request ids, degraded, start, ends)``: its
# ``i``-th iteration ends at ``ends[i]`` and attends over ``tokens +
# i``.


def _run_records(row) -> List[TraceRecord]:
    """A committed run's ``gpu`` trace records, one per iteration."""
    kind, size, tokens, requests, degraded, start, ends = row
    label = f"{kind} x{size}"
    records = []
    for end in ends:
        if kind == "prefill":
            meta = {
                "batch": size,
                "prompt_len": tokens,
                "requests": requests,
                "degraded": degraded,
            }
        else:
            meta = {
                "batch": size, "context_len": tokens, "degraded": degraded,
            }
        records.append(TraceRecord(label, "gpu", kind, start, end, meta))
        start = end
        tokens += 1
    return records


def _run_spans(parent_id: int, first_id: int, row) -> List[Span]:
    """A committed run's ``iteration`` spans under the run span
    ``parent_id``."""
    kind, size, tokens, _, degraded, start, ends = row
    label = f"{kind} x{size}"
    spans = []
    for span_id, end in enumerate(ends, first_id):
        spans.append(
            Span(
                name=label,
                span_id=span_id,
                start_s=start,
                parent_id=parent_id,
                category="iteration",
                attrs={
                    "kind": kind, "batch": size, "tokens": tokens,
                    "degraded": degraded,
                },
                end_s=end,
            )
        )
        start = end
        tokens += 1
    return spans


def _request_records(record: RequestRecord) -> Tuple[TraceRecord]:
    """A finished request's ``request`` trace record."""
    return (
        TraceRecord(
            label=f"req {record.request_id}",
            stream=f"qos:{record.qos_class}",
            category="request",
            start=record.arrival_s,
            end=record.finished_s,
            meta={
                "ttft_s": round(record.ttft_s, 6),
                "tbt_s": round(record.tbt_s, 6),
                "e2e_s": round(record.e2e_s, 6),
                "wait_s": round(record.wait_s, 6),
                "slo_met": record.slo_met,
                "qos": record.qos_class,
            },
        ),
    )


def _request_spans(
    parent_id: int, span_id: int, record: RequestRecord
) -> Tuple[Span]:
    """A finished request's ``request`` span under the run span."""
    span = Span(
        name=f"req {record.request_id}",
        span_id=span_id,
        start_s=float(record.arrival_s),
        parent_id=parent_id,
        category="request",
        attrs={
            "qos": record.qos_class,
            "prompt_len": record.prompt_len,
            "gen_len": record.gen_len,
            "ttft_s": round(record.ttft_s, 6),
            "tbt_s": round(record.tbt_s, 6),
            "wait_s": round(record.wait_s, 6),
            "slo_met": record.slo_met,
        },
        end_s=float(record.finished_s),
    )
    span.event("admitted", record.admitted_s)
    span.event("first_token", record.arrival_s + record.ttft_s)
    return (span,)


def _shed_records(shed: ShedRecord) -> Tuple[TraceRecord]:
    """A shed request's ``shed`` trace record."""
    return (
        TraceRecord(
            label=f"shed {shed.request_id}",
            stream=f"qos:{shed.qos_class}",
            category="shed",
            start=shed.arrival_s,
            end=shed.shed_s,
            meta={"reason": shed.reason, "qos": shed.qos_class},
        ),
    )


class SchedulerDrive:
    """Incremental handle over one scheduler's serving loop, the
    only way a pass runs.

    :meth:`push` appends arrivals to the live stream, :meth:`advance`
    sets the horizon the loop may run to, :meth:`close` declares the
    stream complete, and :meth:`finish` drains to the final
    :class:`SchedulerRun`.  Advancing is lazy: the loop runs to the
    horizon only when the drive is next read or pushed to (not on
    :meth:`close`).  The loop's parks are transparent, so that is
    exact.
    """

    def __init__(
        self,
        scheduler: "ContinuousBatchingScheduler",
        specs: Sequence[RequestSpec] = (),
        checkpoint: Optional[CheckpointPlan] = None,
        restore: Optional[dict] = None,
    ) -> None:
        self.scheduler = scheduler
        self._loop = _ServingLoop(scheduler, specs, checkpoint, restore)
        self._gen = self._loop.drive()
        self._result: Optional[SchedulerRun] = None
        #: Whether the loop still owes a run to the horizon.
        self._owed = False

    def _caught_up(self) -> "_ServingLoop":
        """Run the loop to the horizon it is owed; returns the loop."""
        if self._owed and self._result is None:
            self._owed = False
            try:
                next(self._gen)
            except StopIteration as stop:
                self._result = stop.value
        return self._loop

    @property
    def state(self) -> SchedulerState:
        return self._caught_up().state

    @property
    def now(self) -> float:
        return self._caught_up().clock.now

    @property
    def finished(self) -> bool:
        self._caught_up()
        return self._result is not None

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting or running (router load signal)."""
        state = self._caught_up().state
        return len(state.waiting) + len(state.running)

    def push(self, spec: RequestSpec) -> None:
        """Append one arrival to the live stream, at its sorted
        position in the unabsorbed tail."""
        loop = self._caught_up()
        if self._result is not None or not loop.open:
            raise WorkloadError(
                "drive is closed; cannot push new arrivals"
            )
        self.scheduler._check_classes((spec,))
        _insert_pending(loop.state, spec)

    def advance(self, until: float) -> None:
        """Owe the loop a run until virtual time reaches ``until`` (or
        the stream drains and it parks waiting for pushes)."""
        self._loop.horizon = until
        self._owed = True

    def close(self) -> None:
        """No further pushes: the loop may finish when drained."""
        self._loop.open = False

    def finish(self) -> SchedulerRun:
        """Drain the remaining stream and return the final result."""
        self.close()
        self.advance(math.inf)
        self._caught_up()
        return self._result


class ContinuousBatchingScheduler:
    """Iteration-level scheduler with multi-tenant priority admission."""

    def __init__(
        self,
        costs,
        classes: Sequence[QosClass],
        max_batch: Optional[int] = None,
        injector: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        resilience: Optional[ResiliencePolicy] = None,
        replanner: Optional[Replanner] = None,
        fault_targets: Sequence[str] = DEFAULT_FAULT_TARGETS,
        telemetry: Optional[Telemetry] = None,
        kv=None,
        iteration_fault_pricing: bool = False,
        sanitizer=None,
        prefix_cache=None,
        observer=None,
    ) -> None:
        self.costs = costs
        self.classes = class_index(classes)
        if max_batch is None:
            max_batch = costs.max_concurrency()
            if max_batch < 1:
                raise ConfigurationError(
                    "the placement admits no sequences (max_batch < 1); "
                    "even a single prompt's KV cache does not fit"
                )
        else:
            require_int("max_batch", max_batch, ConfigurationError)
            if max_batch < 1:
                raise ConfigurationError(
                    f"max_batch must be >= 1, got {max_batch}"
                )
        self.max_batch = int(max_batch)
        self.injector = injector
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        if resilience is None and injector is not None:
            resilience = DEFAULT_RESILIENCE
        self.resilience = resilience
        self.replanner = replanner
        self.fault_targets = tuple(fault_targets)
        #: Explicit telemetry, or None to use the ambient instance at
        #: :meth:`run` time.  The inert default makes every instrument
        #: call a no-op.
        self.telemetry = telemetry
        #: Optional :class:`repro.kv.KvCacheManager`.  The static
        #: policy is accounting-only (admission, durations, and every
        #: priced result stay bit-identical to ``kv=None``); dynamic
        #: policies admit against real tier capacity and surcharge
        #: iterations with migration and slow-tier KV read time.
        self.kv = kv
        #: Price each iteration's transfers per layer through the
        #: injector (``EventBackend.faulted_iteration_parts``) instead
        #: of as one lump sum.  Ignored when the cost model cannot
        #: price per layer (sharded and fixed-cost models).
        self.iteration_fault_pricing = bool(iteration_fault_pricing)
        #: Optional invariant sanitizer (``repro.chaos``): observed at
        #: every iteration boundary; ``None`` skips every hook.
        self.sanitizer = sanitizer
        #: Optional :class:`repro.fleet.PrefixCache`.  When attached,
        #: prefill is priced over each batch's *effective* prompt
        #: length (shared prefixes already resident are skipped).
        self.prefix_cache = prefix_cache
        #: Optional :class:`repro.obs.ServeObserver`.  Hooks fire at
        #: arrivals, completions, sheds, iterations, and boundaries;
        #: ``None`` skips every hook.
        self.observer = observer
        # Resolve the tri-state KV flags against the manager actually
        # attached — an explicit True with nothing to act on is a
        # configuration contradiction and fails here, at use-site,
        # instead of silently no-opping for a whole run.  Either flag
        # being True implies a manager is attached.
        if resilience is not None:
            self._demote_kv = resilience.wants_demote_kv(kv)
            self._rescue_kv = resilience.wants_rescue_kv(kv)
        else:
            self._demote_kv = False
            self._rescue_kv = False

    def _check_classes(self, specs: Sequence[RequestSpec]) -> None:
        """Fail on the first spec naming a QoS class not configured."""
        classes = self.classes
        for spec in specs:
            if spec.qos_class not in classes:
                raise WorkloadError(
                    f"request {spec.request_id} names unknown QoS class "
                    f"{spec.qos_class!r}; configured: "
                    f"{', '.join(sorted(classes))}"
                )

    def _request(self, spec: RequestSpec) -> ServeRequest:
        qos = self.classes.get(spec.qos_class)
        if qos is None:
            self._check_classes((spec,))  # raises the located error
        return ServeRequest(spec=spec, qos=qos)

    def _restore(self, checkpoint: dict):
        """Rebuild (state, clock, trace) from a checkpoint dict."""
        if not isinstance(checkpoint, dict) or "version" not in checkpoint:
            raise CheckpointError(
                "restore needs a checkpoint dict (see CheckpointPlan)"
            )
        if checkpoint["version"] != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {checkpoint['version']} does not "
                f"match this scheduler's ({CHECKPOINT_VERSION})"
            )
        state = restore_state(read_field(checkpoint, "state"), self._request)
        clock, trace = restore_clock(read_field(checkpoint, "engine"))
        # A checkpoint resumes only the run it came from: the injector
        # RNG and the KV tier map must be restored exactly when, and
        # only when, the scheduler carries the same layer.
        for section, name, label, live in (
            ("injector", "injector", "injector", self.injector),
            ("kv", "KV", "KV manager", self.kv),
        ):
            saved = checkpoint.get(section)
            if saved is not None and live is None:
                raise CheckpointError(
                    f"checkpoint carries {name} state but the "
                    f"scheduler has no {label} attached"
                )
            if saved is None and live is not None:
                raise CheckpointError(
                    f"checkpoint carries no {name} state but the "
                    f"scheduler has a {label} attached; resuming would "
                    "not replay the checkpointed run"
                )
            if live is not None:
                live.restore_state(saved)
        # The degraded cost model is a runtime object: re-derive it
        # from the (deterministic, cached) replanner at the severity
        # the snapshot recorded.
        state.active_costs = self.costs
        if state.replanned and self.replanner is not None:
            state.active_costs = self.replanner(
                max(1.0, state.replan_severity)
            ).costs
        return state, clock, trace

    def run(
        self,
        specs: Sequence[RequestSpec],
        checkpoint: Optional[CheckpointPlan] = None,
        restore: Optional[dict] = None,
    ) -> SchedulerRun:
        """Serve the whole stream; returns per-request records.

        ``checkpoint`` snapshots the loop state per
        :class:`~repro.serve.state.CheckpointPlan` (and may inject a
        crash).  ``restore`` resumes from a snapshot — ``specs`` is
        ignored then; the checkpoint carries the stream.

        A closed drive: the stream is complete and the horizon
        infinite, so the loop never parks.
        """
        if not specs and restore is None:
            raise WorkloadError("nothing to serve: empty request stream")
        return SchedulerDrive(self, specs, checkpoint, restore).finish()

    def drive(self, specs: Sequence[RequestSpec] = ()) -> SchedulerDrive:
        """An incremental handle over this scheduler's loop (see
        :class:`SchedulerDrive`); arrivals may be pushed while it runs."""
        return SchedulerDrive(self, specs)


class _ServingLoop:
    """One scheduler pass: its state, clock, trace and run bindings,
    with the loop's phases as methods (see the module docstring).
    It starts open at horizon 0; its :class:`SchedulerDrive` moves
    both."""

    def __init__(
        self,
        scheduler: ContinuousBatchingScheduler,
        specs: Sequence[RequestSpec],
        checkpoint: Optional[CheckpointPlan],
        restore: Optional[dict],
    ) -> None:
        if restore is not None:
            state, clock, trace = scheduler._restore(restore)
        else:
            state = SchedulerState(
                pending=sorted(specs, key=_ARRIVAL_ORDER),
                effective_max=scheduler.max_batch,
                active_costs=scheduler.costs,
            )
            clock = SimClock()
            trace = Trace()
        scheduler._check_classes(state.pending)
        self.scheduler = scheduler
        self.state = state
        self.clock = clock
        self.trace = trace
        #: More arrivals may still be pushed.
        self.open = True
        #: Virtual-time limit: the loop parks at the first boundary
        #: whose ``now`` reaches it.
        self.horizon = 0.0
        self.checkpoint = checkpoint
        self.latest_checkpoint = restore
        self.costs = scheduler.costs
        self.injector = injector = scheduler.injector
        self.resilience = scheduler.resilience
        self.retry = scheduler.retry
        self.kv = kv = scheduler.kv
        self.observer = observer = scheduler.observer
        self.sanitizer = scheduler.sanitizer
        self.prefix_cache = scheduler.prefix_cache
        #: Whether the schedule can change the hierarchy's shape (and
        #: there is KV to react) — False skips every structural hook.
        self.structural = (
            injector is not None and injector.structural() and kv is not None
        )

        # Every instrument below is a no-op on the inert default, and
        # nothing here reads wall-clock time or touches the RNG.
        self.telemetry = telemetry = resolve_telemetry(scheduler.telemetry)
        self.tracer = tracer = telemetry.tracer
        self.metrics = metrics = telemetry.scoped("serve")
        kinds = ("prefill", "decode")
        self.iteration_counters = {
            kind: metrics.counter("iterations", labels={"kind": kind})
            for kind in kinds
        }
        self.iteration_histograms = {
            kind: metrics.histogram("iteration_s", labels={"kind": kind})
            for kind in kinds
        }
        self.admitted_counter = metrics.counter("admitted_requests")
        self.completed_counter = metrics.counter("completed_requests")
        self.wait_histogram = metrics.histogram("wait_s")
        # The stream may grow by pushes: its request count is set at
        # finalization.
        self.run_span = tracer.start("serve run", clock.now, category="run")
        self.run_spans = functools.partial(_run_spans, self.run_span.span_id)
        self.request_spans = functools.partial(
            _request_spans, self.run_span.span_id
        )
        #: ``qos class -> (ttft_s, e2e_s)`` histograms, bound on the
        #: class's first finish.
        self.request_histograms: Dict[str, Tuple[Histogram, Histogram]] = {}
        #: Whether the run's counters, histograms and spans record
        #: anything; off, :meth:`commit`, :meth:`finish` and
        #: :meth:`shed_one` skip them.
        self.instrumented = telemetry.enabled
        #: Whether a decode may run several iterations at once.
        self.runs = self.runs_allowed()
        #: The KV manager when its policy acts on every decode
        #: iteration, else ``None``.
        self.dynamic_kv = kv if kv is not None and kv.policy.dynamic else None
        #: Whether an observer or sanitizer watches every iteration and
        #: boundary; off, :meth:`commit` skips :meth:`watch`.
        self.watched = observer is not None or self.sanitizer is not None
        #: ``(batch, context) -> (duration, span)``: a decode price and
        #: the run of contexts sharing it (1 for a model without
        #: buckets, which :meth:`decode_run` then prices per iteration).
        self.decode_bucket = getattr(
            self.costs, "decode_bucket", None
        ) or functools.partial(_unbucketed_decode, self.costs)
        if kv is not None:
            kv.bind_run(tracer, self.run_span)
        if observer is not None:
            observer.bind_run(telemetry, self.run_span)

    # -- the loop ----------------------------------------------------------

    def drive(self):
        """Sequence the phases; returns the final :class:`SchedulerRun`.

        Yields (parks) at a boundary whose time reached the horizon,
        when idle with the next arrival past the horizon, or when
        drained while the stream is still open.
        """
        state = self.state
        clock = self.clock
        while True:
            if (
                len(state.records) + len(state.shed_records)
                >= len(state.pending)
            ):
                if not self.open:
                    break
                # Drained but the stream is still open: park until the
                # router pushes more work (or closes the stream).
                yield "drained"
                continue
            now = clock.now
            if now >= self.horizon:
                # The horizon is checked before the boundary counter
                # so parked passes burn no boundaries; `>=` makes a
                # boundary landing exactly on an arrival's horizon
                # park first — the push lands, then the boundary
                # absorbs it, as in a pass that never parked.
                yield "horizon"
                continue
            health = self.boundary(now)
            if not state.waiting and not state.running:
                if state.next_arrival >= len(state.pending):
                    if self.open:
                        yield "idle"
                        continue
                    # Shedding just emptied the queue and every
                    # request is accounted for; nothing left to serve.
                    break
                # Idle server: jump to the next arrival — but never
                # past the horizon, where later-routed work may land.
                # Parking here is as transparent as at the horizon:
                # unless a push lands at or before `now`, the loop
                # resumes without opening a second boundary at `now`.
                target = state.pending[state.next_arrival].arrival_s
                while target > self.horizon:
                    yield "idle"
                    target = state.pending[state.next_arrival].arrival_s
                if target > now:
                    clock.advance_to(target)
                continue
            if health is not None and health.down:
                # The tier is unusable: no iteration can run.  Spend
                # one retry budget discovering that, then reassess.
                if self.stall(now, self.retry.timeout_s):
                    break
                continue
            admitted, kv_surcharge = self.admit(now)
            if not admitted and not state.running:
                # The head-of-line request was shed; reassess.
                continue
            if self.execute(now, health, admitted, kv_surcharge):
                break
        return self.finalize()

    # -- boundary ----------------------------------------------------------

    def boundary(self, now: float):
        """Open a boundary: checkpoint, absorb due arrivals into the
        waiting heap, observer, deadlines, fault health, sanitizer.
        Returns the tier health (``None`` without an injector)."""
        state = self.state
        boundary = state.boundary + 1
        if self.checkpoint is not None:
            self.take_checkpoint(boundary)
        state.boundary = boundary
        pending = state.pending
        observer = self.observer
        while (
            state.next_arrival < len(pending)
            and pending[state.next_arrival].arrival_s <= now
        ):
            request = self.scheduler._request(pending[state.next_arrival])
            heapq.heappush(state.waiting, waiting_entry(request))
            if observer is not None:
                observer.on_arrival(request.spec)
            state.next_arrival += 1
        if observer is not None:
            observer.on_boundary(now)
        resilience = self.resilience
        if (
            resilience is not None
            and resilience.queue_deadline_s is not None
            and state.waiting
        ):
            self.shed_where(
                now, "timeout", True, _expired,
                (now, resilience.queue_deadline_s),
            )
        health = None
        if self.injector is not None:
            health = self.fault_health(now)
        if self.sanitizer is not None:
            self.sanitizer.observe(boundary, (now,), state, self.scheduler)
        return health

    def take_checkpoint(self, boundary: int) -> None:
        plan = self.checkpoint
        if self.latest_checkpoint is None or boundary % plan.every == 0:
            self.latest_checkpoint = self.snapshot()
            if plan.sink is not None:
                plan.sink(self.latest_checkpoint)
        if plan.crash_at is not None and boundary >= plan.crash_at:
            raise SimulatedCrash(boundary, self.latest_checkpoint)

    def snapshot(self) -> dict:
        injector = self.injector
        kv = self.kv
        return {
            "version": CHECKPOINT_VERSION,
            "boundary": self.state.boundary,
            "engine": snapshot_clock(self.clock, self.trace, self.state),
            "state": snapshot_state(self.state),
            "injector": (
                injector.state_snapshot() if injector is not None else None
            ),
            "kv": kv.state_snapshot() if kv is not None else None,
            # The pre-crash segment's telemetry, for post-mortems.  A
            # restored run re-instruments only its own segment (the
            # injector's bound counters would double-count if this
            # were merged back automatically).
            "telemetry": {
                "metrics": self.telemetry.registry.snapshot(),
                "spans": self.telemetry.tracer.to_dicts(),
            },
        }

    def fault_health(self, now: float):
        """Structural changes, tier health, and the degraded-mode
        state machine (injector runs only)."""
        state = self.state
        resilience = self.resilience
        if self.structural:
            self.structural_step(now)
        health = self.injector.health(self.scheduler.fault_targets, now)
        if health.down or health.slowdown >= resilience.degraded_threshold:
            state.degraded_streak += 1
            state.ok_streak = 0
        else:
            state.ok_streak += 1
            state.degraded_streak = 0
        if (
            not state.degraded_mode
            and state.degraded_streak >= resilience.sustain_iterations
        ):
            self.enter_degraded(now, health)
        elif (
            state.degraded_mode
            and state.ok_streak >= resilience.recover_iterations
        ):
            state.degraded_mode = False
            self.run_span.event("degraded_exit", now)
            if not state.structural_replan:
                self.nominal_plan()
        if state.degraded_mode and resilience.shed and state.waiting:
            self.shed_where(
                now, "degraded", True, _sheddable,
                resilience.shed_priority_floor,
            )
        return health

    def enter_degraded(self, now: float, health) -> None:
        state = self.state
        resilience = self.resilience
        scheduler = self.scheduler
        state.degraded_mode = True
        state.events += 1
        self.metrics.counter("degradation_events").inc()
        self.run_span.event(
            "degraded_enter", now,
            slowdown=round(health.slowdown, 4),
            down=health.down,
        )
        if resilience.evict and state.running:
            # Preempt sheddable running requests, freeing KV slots.
            self.shed_where(
                now, "degraded", False, _sheddable,
                resilience.shed_priority_floor,
            )
        if scheduler._demote_kv:
            self.kv.on_degraded(now, max(1.0, health.slowdown))
        severity = max(1.0, health.slowdown)
        if state.structural_replan:
            # Keep planning for the worse of the two conditions while
            # a tier is also lost.
            severity = max(severity, state.replan_severity)
        if (
            resilience.replan
            and scheduler.replanner is not None
            and severity >= resilience.degraded_threshold
        ):
            self.replan(now, severity)
        elif resilience.shrink_batch and severity > 1.0:
            state.effective_max = max(
                1, int(scheduler.max_batch / severity)
            )

    def structural_step(self, now: float) -> None:
        """React to runtime changes in the hierarchy's shape."""
        state = self.state
        kv = self.kv
        lost_any = False
        for event, tier in kv.sync_structure(self.injector, now):
            if event == "lost":
                state.tier_losses += 1
                lost_any = True
                self.metrics.counter("tier_losses").inc()
                self.run_span.event("tier_lost", now, tier=tier)
                if self.scheduler._rescue_kv:
                    outcome = kv.rescue_tier(
                        tier, now, injector=self.injector, retry=self.retry
                    )
                    state.rescued_requests += outcome.moved_requests
                    self.metrics.counter("rescued_requests").inc(
                        outcome.moved_requests
                    )
                    self.run_span.event(
                        "kv_rescue",
                        now,
                        tier=tier,
                        moved=outcome.moved_requests,
                        failed=len(outcome.failed),
                        rescue_s=round(outcome.rescue_s, 6),
                    )
                    self.shed_ids(outcome.failed, now, "rescue_failed")
                else:
                    self.shed_ids(kv.fail_tier(tier, now), now, "kv_lost")
            elif event == "shrunk":
                self.run_span.event("tier_shrunk", now, tier=tier)
                self.shed_ids(kv.spill_overflow(tier, now), now, "kv_shrink")
            elif event == "restored":
                self.run_span.event("tier_restored", now, tier=tier)
        resilience = self.resilience
        if (
            lost_any
            and resilience.replan
            and self.scheduler.replanner is not None
        ):
            severity = max(
                resilience.tier_loss_severity, state.replan_severity
            )
            if not state.replanned or severity > state.replan_severity:
                self.replan(now, severity)
            state.structural_replan = True
        if (
            state.structural_replan
            and not kv.lost_tiers
            and not state.degraded_mode
        ):
            # Every lost tier came back: return to the nominal plan (a
            # concurrent bandwidth degradation keeps it).
            state.structural_replan = False
            self.nominal_plan()
            self.run_span.event("replan_reset", now)

    def replan(self, now: float, severity: float) -> None:
        """Price iterations and admission off a re-plan at
        ``severity``."""
        state = self.state
        outcome = self.scheduler.replanner(severity)
        state.active_costs = outcome.costs
        state.effective_max = max(
            1, min(self.scheduler.max_batch, outcome.max_batch)
        )
        state.replanned = True
        state.replan_severity = severity
        state.replans += 1
        self.metrics.counter("replans").inc()
        self.run_span.event(
            "replan", now, label=outcome.label, max_batch=state.effective_max
        )

    def nominal_plan(self) -> None:
        """Price and admit off the nominal plan again."""
        state = self.state
        state.replanned = False
        state.replan_severity = 0.0
        state.active_costs = self.costs
        state.effective_max = self.scheduler.max_batch

    # -- admit -------------------------------------------------------------

    def admit(self, now: float) -> Tuple[List[ServeRequest], float]:
        """Pop waiting requests into a prefill batch while slots are
        free; returns the batch and its KV admission surcharge."""
        state = self.state
        admitted: List[ServeRequest] = []
        if not state.waiting:
            return admitted, 0.0
        kv = self.kv
        free = self.batch_limit() - len(state.running)
        kv_surcharge = 0.0
        while state.waiting and len(admitted) < free:
            entry = heapq.heappop(state.waiting)
            request = entry[-1]
            if kv is not None:
                ok, surcharge = kv.try_admit(request.spec, now)
                if not ok:
                    if not admitted and not state.running:
                        # The server is idle and the tiers are as free
                        # as they will ever be: this window can never
                        # fit.  Shed it rather than wait forever.
                        self.shed_one(request.spec, now, "kv_capacity")
                    else:
                        # Head-of-line: wait for running requests to
                        # release their KV.
                        heapq.heappush(state.waiting, entry)
                    break
                kv_surcharge += surcharge
            admitted.append(request)
        return admitted, kv_surcharge

    def batch_limit(self) -> int:
        """How many requests the running batch may hold: the batch
        cap, or with a dynamic KV policy the tiers' admission limit."""
        state = self.state
        limit = state.effective_max
        kv = self.kv
        if kv is not None:
            kv_limit = kv.admission_limit()
            if kv_limit is not None:
                # Admit against real tier capacity: scale by the
                # degraded shrink factor so a degraded batch cap still
                # caps a capacity-admitted batch.
                limit = max(
                    1,
                    int(
                        kv_limit
                        * state.effective_max
                        / self.scheduler.max_batch
                    ),
                )
        return limit

    # -- execute -----------------------------------------------------------

    def execute(
        self,
        now: float,
        health,
        admitted: List[ServeRequest],
        kv_surcharge: float,
    ) -> bool:
        """Price and commit a prefill over ``admitted``, else a run of
        decodes over the running batch (see :meth:`decode_run`).
        Returns whether the run aborted."""
        state = self.state
        kv = self.kv
        prefill = bool(admitted)
        if prefill:
            kind, batch = "prefill", admitted
            if self.prefix_cache is None:
                tokens = max(r.spec.prompt_len for r in admitted)
            else:
                tokens = max(
                    self.prefix_cache.effective_prompt_len(r.spec, now)
                    for r in admitted
                )
        else:
            kind, batch = "decode", state.running
            tokens = max(request.context_len for request in batch)
        size = len(batch)
        first = None
        if self.injector is not None:
            try:
                first = self.price(kind, size, tokens, now, health)
            except TransferError as error:
                # Exhausted retries: put the batch back, stall for the
                # time the attempts consumed.
                for request in admitted:
                    if kv is not None:
                        kv.release(request.spec.request_id, now)
                    heapq.heappush(state.waiting, waiting_entry(request))
                return self.stall(now, error.elapsed_s)
        if prefill:
            if first is None:
                first = self.costs.prefill_time(size, tokens)
            # The admission-time demotions: exactly 0.0 without a
            # dynamic KV policy.
            durations = [first + kv_surcharge]
        else:
            durations = self.decode_run(now, batch, tokens, first)
        self.commit(kind, now, durations, batch, tokens)
        return False

    def runs_allowed(self) -> bool:
        """Whether a decode may run more than one iteration at once:
        not under a fault injector (it prices, and may fail, every
        iteration), a checkpoint plan (it snapshots at boundaries) or
        a queueing deadline (it sheds at boundaries).  A dynamic KV
        policy, an observer and a sanitizer act per iteration inside
        a run (see :meth:`decode_run` and :meth:`watch`)."""
        resilience = self.resilience
        return (
            self.injector is None
            and self.checkpoint is None
            and (resilience is None or resilience.queue_deadline_s is None)
        )

    def decode_run(
        self,
        now: float,
        batch: List[ServeRequest],
        tokens: int,
        first: Optional[float] = None,
    ) -> List[float]:
        """Price a run of decodes over ``batch``, starting at ``now``
        at context ``tokens``: the iterations' durations.  ``first``
        is the first iteration's price when the fault injector set it
        (runs are then one iteration long).

        Nothing changes the batch until the run's last iteration,
        which is the first in which a request emits its last token or
        whose end reaches the horizon or the next pending arrival —
        where the loop would park, absorb or retire.  With runs off
        (:meth:`runs_allowed`) a run is one iteration.  The context
        grows by one token per iteration, so a price is read once per
        bucket and the bucket's other iterations count as its hits.

        A dynamic KV manager surcharges each iteration before its end
        is compared with the limit: the first pays ``on_decode``, the
        rest only read from the placement it left (``docs/kv.md``).
        If the first moved KV while a request waits below the batch
        limit, the run ends there: the head's admission, retried at
        every boundary, may now go differently.
        """
        size = len(batch)
        state = self.state
        kv = self.dynamic_kv
        if self.runs:
            remaining = min(r.spec.gen_len - r.tokens_done for r in batch)
        else:
            remaining = 1
        limit = self.horizon
        if state.next_arrival < len(state.pending):
            limit = min(limit, state.pending[state.next_arrival].arrival_s)
        durations: List[float] = []
        start = end = now
        context = tokens
        reads = None
        while True:
            if first is None:
                duration, span = self.decode_bucket(size, context)
            else:
                duration, span = first, 1
            count = 0
            while True:
                count += 1
                step = duration
                if kv is not None:
                    if durations:
                        if reads is None:
                            reads = kv.decode_reads(batch)
                        step += kv.read_time(reads, len(durations))
                    else:
                        version = kv.tiermap.version
                        step += kv.on_decode(batch, now)
                        if (
                            kv.tiermap.version != version
                            and state.waiting
                            and size < self.batch_limit()
                        ):
                            remaining = 1
                durations.append(step)
                start = end
                end += step
                if end >= limit or count == span or count == remaining:
                    break
            if count > 1:
                self.costs.count_decode_hits(count - 1)
            remaining -= count
            if end >= limit or not remaining:
                break
            context += count
        if kv is not None and len(durations) > 1:
            kv.touch(batch, start)
        return durations

    def commit(
        self,
        kind: str,
        now: float,
        durations: List[float],
        batch: List[ServeRequest],
        tokens: int,
    ) -> None:
        """Run priced iterations back to back on the GPU, account for
        them, and append their tokens to every request in ``batch``.

        The first iteration starts at ``now`` (the clock's time); a
        decode run's ``i``-th attends over ``tokens + i``.  No request
        finishes before the last iteration.  The run is written once,
        as one row: its ``gpu`` trace records and its ``iteration``
        spans (consecutive ids) are built from that row on first read.
        An observer or sanitizer sees the iterations and the boundaries
        between them through :meth:`watch`.
        """
        state = self.state
        prefill = kind == "prefill"
        size = len(batch)
        count = len(durations)
        degraded = state.degraded_mode
        state.stall_streak = 0
        ends: List[float] = []
        end = now
        busy = state.gpu_busy
        for duration in durations:
            # Added left to right, as one clock step per iteration.
            end += duration
            ends.append(end)
            busy += duration
        state.gpu_busy = busy
        self.clock.advance_to(end)
        requests = [r.spec.request_id for r in batch] if prefill else None
        row = (kind, size, tokens, requests, degraded, now, ends)
        self.trace.defer(_run_records, row, count)
        if self.instrumented:
            self.tracer.defer(self.run_spans, row, now, ends)
            self.iteration_counters[kind].inc(count)
            observe = self.iteration_histograms[kind].observe
            for duration in durations:
                observe(duration)
        waiting = len(state.waiting)
        timeline = state.timeline
        for end in ends[:-1]:
            timeline.append(
                IterationSample(end, kind, size, waiting, size, degraded)
            )
        # Each iteration after the first opened a boundary of its own.
        state.boundary += count - 1
        if self.watched:
            self.watch(kind, size, ends)
        if prefill:
            state.prefills += 1
            self.admitted_counter.inc(size)
            running = state.running
            for request in batch:
                request.admitted_s = now
        else:
            state.decodes += count
            running = []
        if degraded:
            state.degraded_iterations += count
        for request in batch:
            request.token_times.extend(ends)
            if request.done:
                self.finish(request)
            else:
                running.append(request)
        state.running = running
        timeline.append(
            IterationSample(
                ends[-1], kind, size, waiting, len(running), degraded
            )
        )

    def watch(self, kind: str, size: int, ends: List[float]) -> None:
        """Show a committed run to the observer and the sanitizer as
        the per-iteration loop would: each iteration ends, and each
        but the last opens a boundary of its own, whose sample is
        already on the timeline.  Nothing arrives, waits anew or
        leaves the batch at those boundaries, so the sanitizer checks
        them all in one call."""
        observer = self.observer
        last = len(ends) - 1
        if observer is not None:
            for index, end in enumerate(ends):
                observer.on_iteration(kind, size, end)
                if index < last:
                    observer.on_boundary(end)
        if self.sanitizer is not None and last:
            state = self.state
            self.sanitizer.observe(
                state.boundary - last + 1, ends[:last], state, self.scheduler
            )

    def price(
        self, kind: str, batch: int, tokens: int, now: float, health
    ) -> float:
        """One iteration's duration with its transfers priced under the
        injector's live faults (raises
        :class:`~repro.errors.TransferError` when retries run out)."""
        costs = self.costs
        injector = self.injector
        state = self.state
        prefill = kind == "prefill"
        # A re-planned cost model bakes the derated bandwidths into its
        # parts, so it is used (at scale 1.0 — re-applying the live
        # slowdown would double-count) only while the tier is actually
        # degraded; healthy boundaries inside a not-yet-recovered event
        # are priced off the nominal model.  A *structural* re-plan
        # (tier lost) stays active for its whole loss window — the
        # hierarchy is still short a tier even when the surviving
        # links are healthy.
        model = (
            state.active_costs
            if state.replanned
            and (health.slowdown > 1.0 or state.structural_replan)
            else costs
        )
        if (
            self.scheduler.iteration_fault_pricing
            and model is costs
            and hasattr(costs, "faulted_parts")
        ):
            # Per-layer pricing: the event backend walks the executor's
            # layer schedule and prices every layer's host/disk
            # transfer through the injector individually — retries land
            # on the layer that failed instead of inflating the whole
            # iteration.
            faulted = costs.faulted_parts(
                kind, batch, tokens, now, injector=injector, retry=self.retry
            )
            if faulted is not None:
                if faulted.retried_layers:
                    state.retried_iterations += 1
                    state.retry_overhead_s += faulted.retry_overhead_s
                return faulted.total_s()
        nominal = (
            costs.prefill_parts(batch, tokens)
            if prefill
            else costs.decode_parts(batch, tokens)
        )
        # Retries and failed attempts are always priced off the
        # *nominal* transfer time — the injector applies the live
        # slowdown itself, and the degraded model's parts already
        # include it (feeding them in would double-count).
        outcome = injector.price_transfer(
            self.scheduler.fault_targets, nominal.transfer_s, now, self.retry
        )
        if model is costs:
            parts, scale = nominal, outcome.slowdown
        else:
            parts = (
                model.prefill_parts(batch, tokens)
                if prefill
                else model.decode_parts(batch, tokens)
            )
            scale = 1.0
        extra = outcome.wasted_s + outcome.retry_delay_s
        if outcome.retried:
            state.retried_iterations += 1
            state.retry_overhead_s += extra
        return parts.total_s(scale) + extra

    def finish(self, request: ServeRequest) -> None:
        """Retire a request that produced its last token.  Its
        ``request`` trace record and span are built from its
        :class:`~repro.serve.request.RequestRecord` on first read."""
        if self.kv is not None:
            self.kv.release(request.spec.request_id)
        record = RequestRecord.from_request(request)
        self.state.records.append(record)
        self.trace.defer(_request_records, record)
        if self.instrumented:
            qos = record.qos_class
            histograms = self.request_histograms.get(qos)
            if histograms is None:
                labels = {"qos": qos}
                histograms = self.request_histograms[qos] = (
                    self.metrics.histogram("ttft_s", labels=labels),
                    self.metrics.histogram("e2e_s", labels=labels),
                )
            self.completed_counter.inc()
            self.wait_histogram.observe(record.wait_s)
            histograms[0].observe(record.ttft_s)
            histograms[1].observe(record.e2e_s)
            self.tracer.defer(
                self.request_spans, record, record.arrival_s,
                (record.finished_s,),
            )
        if self.observer is not None:
            self.observer.on_finish(record)

    # -- shedding, stalls, abort -------------------------------------------

    def shed_one(self, spec: RequestSpec, now: float, reason: str) -> None:
        """Shed one request; its ``shed`` trace record is built from
        its :class:`~repro.serve.request.ShedRecord` on first read."""
        state = self.state
        if reason == "timeout":
            state.timeouts += 1
        if self.kv is not None:
            self.kv.release(spec.request_id, now)
        shed = ShedRecord(
            request_id=spec.request_id,
            qos_class=spec.qos_class,
            arrival_s=spec.arrival_s,
            shed_s=now,
            reason=reason,
        )
        state.shed_records.append(shed)
        self.trace.defer(_shed_records, shed)
        if self.instrumented:
            metrics = self.metrics
            if reason == "timeout":
                metrics.counter("timeouts").inc()
            metrics.counter("shed_requests", labels={"reason": reason}).inc()
            self.tracer.span(
                f"shed {spec.request_id}",
                spec.arrival_s,
                max(now, spec.arrival_s),
                parent=self.run_span,
                category="shed",
                qos=spec.qos_class,
                reason=reason,
            )
        if self.observer is not None:
            self.observer.on_shed(shed)
        resilience = self.resilience
        if (
            resilience is not None
            and resilience.retry_shed
            and reason in RETRYABLE_SHED_REASONS
            and state.attempts.get(spec.request_id, 1)
            < resilience.retry_max_attempts
        ):
            self.retry_client(spec, now)

    def retry_client(self, spec: RequestSpec, now: float) -> None:
        """Re-enter a shed request as a later client attempt."""
        state = self.state
        attempt = state.attempts.get(spec.request_id, 1) + 1
        state.attempts[spec.request_id] = attempt
        arrival = now + self.resilience.client_backoff_s(attempt)
        _insert_pending(state, dataclasses.replace(spec, arrival_s=arrival))
        state.client_retries += 1
        self.metrics.counter("client_retries").inc()
        self.run_span.event(
            "client_retry",
            now,
            request=spec.request_id,
            attempt=attempt,
            arrival_s=round(arrival, 6),
        )

    def shed_where(
        self, now: float, reason: str, waiting: bool, drop, arg=None
    ) -> None:
        """Shed every request ``drop(request, arg)`` selects from the
        waiting heap (``waiting``) or else the running batch."""
        state = self.state
        entries = state.waiting if waiting else state.running
        kept = []
        for entry in entries:
            request = entry[-1] if waiting else entry
            if drop(request, arg):
                self.shed_one(request.spec, now, reason)
            else:
                kept.append(entry)
        if len(kept) == len(entries):
            return
        if waiting:
            heapq.heapify(kept)
            state.waiting = kept
        else:
            state.running = kept

    def shed_ids(self, ids: Sequence[int], now: float, reason: str) -> None:
        """Shed specific requests wherever they currently live."""
        id_set = set(ids)
        if id_set:
            self.shed_where(now, reason, False, _listed, id_set)
            self.shed_where(now, reason, True, _listed, id_set)

    def stall(self, now: float, duration_s: float) -> bool:
        """Spend ``duration_s`` unable to run an iteration; past the
        stall budget, abort instead.  Returns whether the run
        aborted."""
        state = self.state
        state.stall_streak += 1
        state.stalls += 1
        state.stall_s += duration_s
        self.metrics.counter("stalls").inc()
        self.metrics.counter("stall_s").inc(duration_s)
        self.run_span.event("stall", now, duration_s=round(duration_s, 6))
        if state.stall_streak >= self.resilience.stall_limit:
            self.abort(now)
            return True
        self.clock.advance_to(now + duration_s)
        return False

    def abort(self, now: float) -> None:
        """Permanent outage: fail everything outstanding."""
        state = self.state
        self.run_span.event("abort", now)
        self.shed_where(now, "outage", True, _always)
        self.shed_where(now, "outage", False, _always)
        for index in range(state.next_arrival, len(state.pending)):
            spec = state.pending[index]
            self.shed_one(spec, max(now, spec.arrival_s), "outage")
        state.aborted = True

    # -- finalize ----------------------------------------------------------

    def finalize(self) -> SchedulerRun:
        state = self.state
        now = self.clock.now
        if self.sanitizer is not None:
            self.sanitizer.finish(state=state, scheduler=self.scheduler)
        if self.observer is not None:
            self.observer.finalize(now)
        run_span = self.run_span
        # Client retries re-enter the stream; they are not requests.
        run_span.set("requests", len(state.pending) - state.client_retries)
        run_span.set("completed", len(state.records))
        run_span.set("shed", len(state.shed_records))
        run_span.set("iterations", state.prefills + state.decodes)
        run_span.set("aborted", state.aborted)
        run_span.end(now)
        self.metrics.gauge("span_s").set(now)
        self.metrics.gauge("gpu_busy_s").set(state.gpu_busy)
        # Sorting breaks the append-only order the snapshot rows keep.
        state.rows = None
        state.records.sort(key=_BY_ID)
        state.shed_records.sort(key=_BY_ID)
        return SchedulerRun(
            records=tuple(state.records),
            timeline=tuple(state.timeline),
            trace=self.trace,
            span_s=now,
            gpu_busy_s=state.gpu_busy,
            prefill_iterations=state.prefills,
            decode_iterations=state.decodes,
            shed=tuple(state.shed_records),
            faults=FaultSummary(
                degradation_events=state.events,
                degraded_iterations=state.degraded_iterations,
                retried_iterations=state.retried_iterations,
                retry_overhead_s=state.retry_overhead_s,
                replans=state.replans,
                stalls=state.stalls,
                stall_s=state.stall_s,
                shed_requests=len(state.shed_records),
                aborted=state.aborted,
                tier_losses=state.tier_losses,
                rescued_requests=state.rescued_requests,
                client_retries=state.client_retries,
                timeouts=state.timeouts,
            ),
        )
