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
one-stream :class:`~repro.sim.engine.SimEngine` would produce, float
for float).  Per-request spans are appended per QoS class, which
makes the whole run exportable through
:func:`repro.sim.chrome_trace.save_chrome_trace`.

**Fault injection and graceful degradation.**  With a
:class:`~repro.faults.injector.FaultInjector` attached, every
iteration's transfer component is priced through the injector
(degradation slowdowns, transient-failure retries, outages), and a
:class:`~repro.serve.resilience.ResiliencePolicy` drives the
degraded-mode playbook: shed low-priority waiting requests, shrink
the admitted batch, optionally re-plan placement against the degraded
bandwidth map — at most once per degradation event.  A tier that
stays down past the stall budget aborts the run by shedding all
outstanding work instead of hanging.  Without an injector the code
path is bit-identical to the fault-free scheduler.

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
import heapq
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    SimulatedCrash,
    TransferError,
    WorkloadError,
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
)
from repro.sim.clock import SimClock
from repro.sim.trace import Trace, TraceRecord
from repro.telemetry import Telemetry, resolve_telemetry

#: Targets consulted when the caller does not name the platform's own
#: link/region labels.
DEFAULT_FAULT_TARGETS: Tuple[str, ...] = (HOST_TARGET, PCIE_TARGET)

#: Shed reasons a well-behaved client retries (transient conditions);
#: permanent rejections ("degraded" load shedding, "outage" aborts,
#: "kv_capacity" never-fits) are final.
RETRYABLE_SHED_REASONS = frozenset(
    {"timeout", "kv_lost", "rescue_failed", "kv_shrink"}
)


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


class _Hold:
    """Shared mutable coupling between a drive and its generator.

    ``managed=False`` (the :meth:`ContinuousBatchingScheduler.run`
    path) pins the horizon at infinity and the stream closed, so every
    park check inside the loop is statically false — the monolithic
    run is bit-identical to the pre-generator scheduler.
    """

    __slots__ = ("managed", "open", "horizon", "state", "clock")

    def __init__(self, managed: bool) -> None:
        self.managed = managed
        #: More arrivals may still be pushed.
        self.open = managed
        #: Virtual-time limit: the loop parks at the first boundary
        #: whose ``now`` reaches it.
        self.horizon = 0.0 if managed else math.inf
        #: Live loop internals, published by the generator at setup.
        self.state = None
        self.clock = None


class SchedulerDrive:
    """Incremental handle over one scheduler's serving loop.

    The fleet simulator interleaves replicas in virtual time through
    this interface: :meth:`push` appends arrivals to the live stream,
    :meth:`advance` runs the loop until its clock reaches a horizon
    (or it drains and parks), :meth:`close` declares the stream
    complete, and :meth:`finish` drains to the final
    :class:`SchedulerRun`.
    """

    def __init__(
        self,
        scheduler: "ContinuousBatchingScheduler",
        specs: Sequence[RequestSpec] = (),
    ) -> None:
        self.scheduler = scheduler
        self._hold = _Hold(managed=True)
        self._gen = scheduler._drive(list(specs), None, None, self._hold)
        self._result: Optional[SchedulerRun] = None
        self._step()  # run setup and park at the first boundary

    def _step(self) -> None:
        if self._result is not None:
            return
        try:
            next(self._gen)
        except StopIteration as stop:
            self._result = stop.value

    @property
    def state(self) -> SchedulerState:
        return self._hold.state

    @property
    def now(self) -> float:
        return self._hold.clock.now

    @property
    def finished(self) -> bool:
        return self._result is not None

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting or running (router load signal)."""
        state = self._hold.state
        return len(state.waiting) + len(state.running)

    def push(self, spec: RequestSpec) -> None:
        """Append one arrival to the live stream.

        The spec lands in the unabsorbed tail of the pending list at
        its sorted ``(arrival_s, request_id)`` position — exactly
        where a monolithic run would have held it from the start.
        """
        if self._result is not None or not self._hold.open:
            raise WorkloadError(
                "drive is closed; cannot push new arrivals"
            )
        state = self._hold.state
        key = (spec.arrival_s, spec.request_id)
        pending = state.pending
        index = state.next_arrival
        while index < len(pending) and (
            (pending[index].arrival_s, pending[index].request_id) <= key
        ):
            index += 1
        pending.insert(index, spec)

    def advance(self, until: float) -> None:
        """Run the loop until virtual time reaches ``until`` (or the
        stream drains and the loop parks waiting for pushes)."""
        self._hold.horizon = until
        self._step()

    def close(self) -> None:
        """No further pushes: the loop may finish when drained."""
        self._hold.open = False

    def finish(self) -> SchedulerRun:
        """Drain the remaining stream and return the final result."""
        self._hold.open = False
        self._hold.horizon = math.inf
        self._step()
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
        elif max_batch < 1:
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
        #: call a no-op, keeping the fault-free path bit-identical.
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
        #: length (shared prefixes already resident are skipped);
        #: ``None`` keeps the original pricing expression verbatim.
        self.prefix_cache = prefix_cache
        #: Optional :class:`repro.obs.ServeObserver`.  Hooks fire at
        #: arrivals, completions, sheds, iterations, and boundaries;
        #: ``None`` skips every hook, so an un-observed run executes
        #: the exact pre-``repro.obs`` instruction stream.
        self.observer = observer
        # Resolve the tri-state KV flags against the manager actually
        # attached — an explicit True with nothing to act on is a
        # configuration contradiction and fails here, at use-site,
        # instead of silently no-opping for a whole run.
        if resilience is not None:
            self._demote_kv = resilience.wants_demote_kv(kv)
            self._rescue_kv = resilience.wants_rescue_kv(kv)
        else:
            self._demote_kv = False
            self._rescue_kv = False

    def _request(self, spec: RequestSpec) -> ServeRequest:
        try:
            qos = self.classes[spec.qos_class]
        except KeyError:
            raise WorkloadError(
                f"request {spec.request_id} names unknown QoS class "
                f"{spec.qos_class!r}; configured: "
                f"{', '.join(sorted(self.classes))}"
            ) from None
        return ServeRequest(spec=spec, qos=qos)

    # -- checkpoint assembly ------------------------------------------

    def _build_checkpoint(
        self, state: SchedulerState, clock: SimClock, trace: Trace, telemetry
    ) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "boundary": state.boundary,
            "engine": snapshot_clock(clock, trace),
            "state": snapshot_state(state),
            "injector": (
                self.injector.state_snapshot()
                if self.injector is not None
                else None
            ),
            "kv": (
                self.kv.state_snapshot() if self.kv is not None else None
            ),
            # The pre-crash segment's telemetry, for post-mortems.  A
            # restored run re-instruments only its own segment (the
            # injector's bound counters would double-count if this
            # were merged back automatically).
            "telemetry": {
                "metrics": telemetry.registry.snapshot(),
                "spans": telemetry.tracer.to_dicts(),
            },
        }

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
        state = restore_state(checkpoint["state"], self._request)
        clock, trace = restore_clock(checkpoint["engine"])
        if checkpoint.get("injector") is not None:
            if self.injector is None:
                raise CheckpointError(
                    "checkpoint carries injector state but the "
                    "scheduler has no injector attached"
                )
            self.injector.restore_state(checkpoint["injector"])
        if checkpoint.get("kv") is not None:
            if self.kv is None:
                raise CheckpointError(
                    "checkpoint carries KV state but the scheduler "
                    "has no KV manager attached"
                )
            self.kv.restore_state(checkpoint["kv"])
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

        This drains :meth:`_drive` with a closed stream and an
        infinite horizon, so no park point ever fires: the pass is
        bit-identical to the pre-:class:`SchedulerDrive` scheduler.
        """
        gen = self._drive(specs, checkpoint, restore, _Hold(managed=False))
        try:
            while True:
                next(gen)
        except StopIteration as stop:
            return stop.value

    def drive(self, specs: Sequence[RequestSpec] = ()) -> SchedulerDrive:
        """An incremental handle over this scheduler's loop (see
        :class:`SchedulerDrive`); arrivals may be pushed while it runs."""
        return SchedulerDrive(self, specs)

    def _drive(
        self,
        specs: Sequence[RequestSpec],
        checkpoint: Optional[CheckpointPlan],
        restore: Optional[dict],
        hold: _Hold,
    ):
        """The serving loop as a generator parked by ``hold``.

        Yields (parks) only in managed mode: at a boundary whose time
        reached ``hold.horizon``, when idle with the next arrival past
        the horizon, or when drained while the stream is still open.
        Returns the final :class:`SchedulerRun` (captured from
        ``StopIteration.value`` by the callers above).
        """
        if restore is not None:
            state, clock, trace = self._restore(restore)
        else:
            if not specs and not hold.managed:
                raise WorkloadError(
                    "nothing to serve: empty request stream"
                )
            state = SchedulerState(
                pending=sorted(
                    specs, key=lambda s: (s.arrival_s, s.request_id)
                ),
                effective_max=self.max_batch,
                active_costs=self.costs,
            )
            clock = SimClock()
            trace = Trace()
        hold.state = state
        hold.clock = clock

        injector = self.injector
        resilience = self.resilience
        retry = self.retry
        sanitizer = self.sanitizer
        #: Whether the schedule can change the hierarchy's shape at
        #: all — False short-circuits every structural hook, keeping
        #: bandwidth-only chaos runs byte-identical to before.
        structural_faults = (
            injector is not None and injector.structural()
        )

        # Telemetry: every instrument below is a no-op on the inert
        # default, and nothing here reads wall-clock time or touches
        # the RNG — an instrumented run is bit-identical to a bare one.
        telemetry = resolve_telemetry(self.telemetry)
        tracer = telemetry.tracer
        serve_metrics = telemetry.scoped("serve")
        iteration_counters = {
            kind: serve_metrics.counter("iterations", labels={"kind": kind})
            for kind in ("prefill", "decode")
        }
        iteration_histograms = {
            kind: serve_metrics.histogram(
                "iteration_s", labels={"kind": kind}
            )
            for kind in ("prefill", "decode")
        }
        admitted_counter = serve_metrics.counter("admitted_requests")
        completed_counter = serve_metrics.counter("completed_requests")
        wait_histogram = serve_metrics.histogram("wait_s")
        if hold.managed:
            # The stream arrives incrementally; the request count is
            # only known at finalization (set there, first, so the
            # attribute set matches a monolithic run's exactly).
            run_span = tracer.start(
                "serve run", clock.now, category="run"
            )
        else:
            run_span = tracer.start(
                "serve run",
                clock.now,
                category="run",
                requests=len(state.pending),
            )
        kv = self.kv
        if kv is not None:
            kv.bind_run(tracer, run_span)
        observer = self.observer
        if observer is not None:
            observer.bind_run(telemetry, run_span)

        latest_checkpoint: Optional[dict] = restore

        def run_iteration(
            duration: float, label: str, category: str, meta: dict
        ) -> float:
            """Run one iteration on the GPU; returns when it is done."""
            start = clock.now
            clock.advance_to(start + duration)
            done_at = clock.now
            trace.record(
                TraceRecord(
                    label=label,
                    stream="gpu",
                    category=category,
                    start=start,
                    end=done_at,
                    meta=meta,
                )
            )
            return done_at

        def absorb_arrivals(now: float) -> int:
            while (
                state.next_arrival < len(state.pending)
                and state.pending[state.next_arrival].arrival_s <= now
            ):
                request = self._request(state.pending[state.next_arrival])
                heapq.heappush(
                    state.waiting,
                    (
                        request.qos.priority,
                        request.spec.arrival_s,
                        request.spec.request_id,
                        request,
                    ),
                )
                if observer is not None:
                    observer.on_arrival(request.spec)
                state.next_arrival += 1
            return state.next_arrival

        def finish(request: ServeRequest) -> None:
            if kv is not None:
                kv.release(request.spec.request_id)
            record = RequestRecord.from_request(request)
            state.records.append(record)
            trace.record(
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
                )
            )
            completed_counter.inc()
            wait_histogram.observe(record.wait_s)
            serve_metrics.histogram(
                "ttft_s", labels={"qos": record.qos_class}
            ).observe(record.ttft_s)
            serve_metrics.histogram(
                "e2e_s", labels={"qos": record.qos_class}
            ).observe(record.e2e_s)
            tracer.span(
                f"req {record.request_id}",
                record.arrival_s,
                record.finished_s,
                parent=run_span,
                category="request",
                qos=record.qos_class,
                prompt_len=record.prompt_len,
                gen_len=record.gen_len,
                ttft_s=round(record.ttft_s, 6),
                tbt_s=round(record.tbt_s, 6),
                wait_s=round(record.wait_s, 6),
                slo_met=record.slo_met,
            ).event(
                "admitted", record.admitted_s
            ).event(
                "first_token", record.arrival_s + record.ttft_s
            )
            if observer is not None:
                observer.on_finish(record)

        def retry_client(spec: RequestSpec, now: float) -> None:
            """Re-enter a shed request as a later client attempt."""
            attempt = state.attempts.get(spec.request_id, 1) + 1
            state.attempts[spec.request_id] = attempt
            arrival = now + resilience.client_backoff_s(attempt)
            retry_spec = dataclasses.replace(spec, arrival_s=arrival)
            key = (arrival, spec.request_id)
            index = state.next_arrival
            pending = state.pending
            while index < len(pending) and (
                (pending[index].arrival_s, pending[index].request_id)
                <= key
            ):
                index += 1
            pending.insert(index, retry_spec)
            state.client_retries += 1
            serve_metrics.counter("client_retries").inc()
            run_span.event(
                "client_retry",
                now,
                request=spec.request_id,
                attempt=attempt,
                arrival_s=round(arrival, 6),
            )

        def shed_one(spec: RequestSpec, now: float, reason: str) -> None:
            if kv is not None:
                kv.release(spec.request_id, now)
            state.shed_records.append(
                ShedRecord(
                    request_id=spec.request_id,
                    qos_class=spec.qos_class,
                    arrival_s=spec.arrival_s,
                    shed_s=now,
                    reason=reason,
                )
            )
            trace.record(
                TraceRecord(
                    label=f"shed {spec.request_id}",
                    stream=f"qos:{spec.qos_class}",
                    category="shed",
                    start=spec.arrival_s,
                    end=now,
                    meta={"reason": reason, "qos": spec.qos_class},
                )
            )
            serve_metrics.counter(
                "shed_requests", labels={"reason": reason}
            ).inc()
            tracer.span(
                f"shed {spec.request_id}",
                spec.arrival_s,
                max(now, spec.arrival_s),
                parent=run_span,
                category="shed",
                qos=spec.qos_class,
                reason=reason,
            )
            if observer is not None:
                observer.on_shed(state.shed_records[-1])
            if (
                resilience is not None
                and resilience.retry_shed
                and reason in RETRYABLE_SHED_REASONS
                and state.attempts.get(spec.request_id, 1)
                < resilience.retry_max_attempts
            ):
                retry_client(spec, now)

        def shed_waiting(
            now: float, reason: str, sheddable_only: bool
        ) -> None:
            kept: List[Tuple[int, float, int, ServeRequest]] = []
            for entry in state.waiting:
                request = entry[-1]
                if (
                    sheddable_only
                    and request.qos.priority
                    < resilience.shed_priority_floor
                ):
                    kept.append(entry)
                else:
                    shed_one(request.spec, now, reason)
            heapq.heapify(kept)
            state.waiting = kept

        def shed_ids(
            ids: Sequence[int], now: float, reason: str
        ) -> None:
            """Shed specific requests wherever they currently live."""
            id_set = set(ids)
            if not id_set:
                return
            kept_running: List[ServeRequest] = []
            for request in state.running:
                if request.spec.request_id in id_set:
                    shed_one(request.spec, now, reason)
                else:
                    kept_running.append(request)
            state.running = kept_running
            kept_waiting: List[Tuple[int, float, int, ServeRequest]] = []
            changed = False
            for entry in state.waiting:
                if entry[-1].spec.request_id in id_set:
                    shed_one(entry[-1].spec, now, reason)
                    changed = True
                else:
                    kept_waiting.append(entry)
            if changed:
                heapq.heapify(kept_waiting)
                state.waiting = kept_waiting

        def sweep_deadlines(now: float) -> None:
            kept: List[Tuple[int, float, int, ServeRequest]] = []
            changed = False
            for entry in state.waiting:
                request = entry[-1]
                if (
                    now - request.spec.arrival_s
                    > resilience.queue_deadline_s
                ):
                    state.timeouts += 1
                    serve_metrics.counter("timeouts").inc()
                    shed_one(request.spec, now, "timeout")
                    changed = True
                else:
                    kept.append(entry)
            if changed:
                heapq.heapify(kept)
                state.waiting = kept

        def structural_step(now: float) -> None:
            """React to runtime changes in the hierarchy's shape."""
            kv_events = kv.sync_structure(injector, now)
            lost_any = False
            for event, tier in kv_events:
                if event == "lost":
                    state.tier_losses += 1
                    lost_any = True
                    serve_metrics.counter("tier_losses").inc()
                    run_span.event("tier_lost", now, tier=tier)
                    if self._rescue_kv:
                        outcome = kv.rescue_tier(
                            tier, now, injector=injector, retry=retry
                        )
                        state.rescued_requests += outcome.moved_requests
                        serve_metrics.counter("rescued_requests").inc(
                            outcome.moved_requests
                        )
                        run_span.event(
                            "kv_rescue",
                            now,
                            tier=tier,
                            moved=outcome.moved_requests,
                            failed=len(outcome.failed),
                            rescue_s=round(outcome.rescue_s, 6),
                        )
                        shed_ids(outcome.failed, now, "rescue_failed")
                    else:
                        shed_ids(
                            kv.fail_tier(tier, now), now, "kv_lost"
                        )
                elif event == "shrunk":
                    run_span.event("tier_shrunk", now, tier=tier)
                    shed_ids(
                        kv.spill_overflow(tier, now), now, "kv_shrink"
                    )
                elif event == "restored":
                    run_span.event("tier_restored", now, tier=tier)
            if (
                lost_any
                and resilience is not None
                and resilience.replan
                and self.replanner is not None
            ):
                severity = max(
                    resilience.tier_loss_severity, state.replan_severity
                )
                if not state.replanned or severity > state.replan_severity:
                    outcome = self.replanner(severity)
                    state.active_costs = outcome.costs
                    state.effective_max = max(
                        1, min(self.max_batch, outcome.max_batch)
                    )
                    state.replanned = True
                    state.replan_severity = severity
                    state.replans += 1
                    serve_metrics.counter("replans").inc()
                    run_span.event(
                        "replan",
                        now,
                        label=outcome.label,
                        max_batch=state.effective_max,
                    )
                state.structural_replan = True
            if (
                state.structural_replan
                and not kv.lost_tiers
                and not state.degraded_mode
            ):
                # Every lost tier came back: return to the nominal
                # plan (a concurrent bandwidth degradation keeps it).
                state.structural_replan = False
                state.replanned = False
                state.replan_severity = 0.0
                state.active_costs = self.costs
                state.effective_max = self.max_batch
                run_span.event("replan_reset", now)

        def priced_iteration(
            kind: str, batch: int, tokens: int, now: float, health
        ) -> float:
            """Price one iteration's duration under the injector."""
            # A re-planned cost model bakes the derated bandwidths into
            # its parts, so it is used (at scale 1.0 — re-applying the
            # live slowdown would double-count) only while the tier is
            # actually degraded; healthy boundaries inside a
            # not-yet-recovered event are priced off the nominal model.
            # A *structural* re-plan (tier lost) stays active for its
            # whole loss window — the hierarchy is still short a tier
            # even when the surviving links are healthy.
            degraded_now = health is not None and health.slowdown > 1.0
            model = (
                state.active_costs
                if state.replanned
                and (degraded_now or state.structural_replan)
                else self.costs
            )
            if (
                self.iteration_fault_pricing
                and model is self.costs
                and hasattr(self.costs, "faulted_parts")
            ):
                # Per-layer pricing: the event backend walks the
                # executor's layer schedule and prices every layer's
                # host/disk transfer through the injector individually
                # — retries land on the layer that failed instead of
                # inflating the whole iteration.
                faulted = self.costs.faulted_parts(
                    kind, batch, tokens, now,
                    injector=injector, retry=retry,
                )
                if faulted is not None:
                    if faulted.retried_layers:
                        state.retried_iterations += 1
                        state.retry_overhead_s += faulted.retry_overhead_s
                    return faulted.total_s()
            nominal = (
                self.costs.prefill_parts(batch, tokens)
                if kind == "prefill"
                else self.costs.decode_parts(batch, tokens)
            )
            # Retries and failed attempts are always priced off the
            # *nominal* transfer time — the injector applies the live
            # slowdown itself, and the degraded model's parts already
            # include it (feeding them in would double-count).
            outcome = injector.price_transfer(
                self.fault_targets, nominal.transfer_s, now, retry
            )
            if model is self.costs:
                parts, scale = nominal, outcome.slowdown
            else:
                parts = (
                    model.prefill_parts(batch, tokens)
                    if kind == "prefill"
                    else model.decode_parts(batch, tokens)
                )
                scale = 1.0
            extra = outcome.wasted_s + outcome.retry_delay_s
            if outcome.retried:
                state.retried_iterations += 1
                state.retry_overhead_s += extra
            return parts.total_s(scale) + extra

        def evict_running(now: float) -> None:
            """Preempt sheddable running requests, freeing KV slots."""
            kept: List[ServeRequest] = []
            for request in state.running:
                if request.qos.priority < resilience.shed_priority_floor:
                    kept.append(request)
                else:
                    shed_one(request.spec, now, "degraded")
            state.running = kept

        def record_stall(now: float, duration_s: float) -> None:
            serve_metrics.counter("stalls").inc()
            serve_metrics.counter("stall_s").inc(duration_s)
            run_span.event("stall", now, duration_s=round(duration_s, 6))

        def abort_run(now: float) -> None:
            """Permanent outage: fail everything outstanding."""
            run_span.event("abort", now)
            shed_waiting(now, "outage", sheddable_only=False)
            for request in state.running:
                shed_one(request.spec, now, "outage")
            state.running = []
            for index in range(state.next_arrival, len(state.pending)):
                spec = state.pending[index]
                shed_one(spec, max(now, spec.arrival_s), "outage")
            state.aborted = True

        while True:
            if (
                len(state.records) + len(state.shed_records)
                >= len(state.pending)
            ):
                if not hold.open:
                    break
                # Drained but the stream is still open: park until the
                # router pushes more work (or closes the stream).
                yield "drained"
                continue
            now = clock.now
            if now >= hold.horizon:
                # The horizon is checked before the boundary counter
                # so parked passes burn no boundaries; `>=` makes a
                # boundary landing exactly on an arrival's horizon
                # park first — the push lands, then the boundary
                # absorbs it, matching the monolithic ordering.
                yield "horizon"
                continue
            boundary = state.boundary + 1
            if checkpoint is not None:
                if (
                    latest_checkpoint is None
                    or boundary % checkpoint.every == 0
                ):
                    latest_checkpoint = self._build_checkpoint(
                        state, clock, trace, telemetry
                    )
                    if checkpoint.sink is not None:
                        checkpoint.sink(latest_checkpoint)
                if (
                    checkpoint.crash_at is not None
                    and boundary >= checkpoint.crash_at
                ):
                    raise SimulatedCrash(boundary, latest_checkpoint)
            state.boundary = boundary
            absorb_arrivals(now)
            if observer is not None:
                observer.on_boundary(now)

            if (
                resilience is not None
                and resilience.queue_deadline_s is not None
                and state.waiting
            ):
                sweep_deadlines(now)

            if structural_faults and kv is not None:
                structural_step(now)

            health = None
            if injector is not None:
                health = injector.health(self.fault_targets, now)
                degraded_now = (
                    health.down
                    or health.slowdown >= resilience.degraded_threshold
                )
                if degraded_now:
                    state.degraded_streak += 1
                    state.ok_streak = 0
                else:
                    state.ok_streak += 1
                    state.degraded_streak = 0
                if (
                    not state.degraded_mode
                    and state.degraded_streak
                    >= resilience.sustain_iterations
                ):
                    state.degraded_mode = True
                    state.events += 1
                    serve_metrics.counter("degradation_events").inc()
                    run_span.event(
                        "degraded_enter", now,
                        slowdown=round(health.slowdown, 4),
                        down=health.down,
                    )
                    if resilience.evict and state.running:
                        evict_running(now)
                    if kv is not None and self._demote_kv:
                        kv.on_degraded(now, max(1.0, health.slowdown))
                    severity = max(1.0, health.slowdown)
                    if state.structural_replan:
                        # Keep planning for the worse of the two
                        # conditions while a tier is also lost.
                        severity = max(severity, state.replan_severity)
                    if (
                        resilience.replan
                        and self.replanner is not None
                        and severity >= resilience.degraded_threshold
                    ):
                        outcome = self.replanner(severity)
                        state.active_costs = outcome.costs
                        state.effective_max = max(
                            1, min(self.max_batch, outcome.max_batch)
                        )
                        state.replanned = True
                        state.replan_severity = severity
                        state.replans += 1
                        serve_metrics.counter("replans").inc()
                        run_span.event(
                            "replan", now,
                            label=outcome.label,
                            max_batch=state.effective_max,
                        )
                    elif resilience.shrink_batch and severity > 1.0:
                        state.effective_max = max(
                            1, int(self.max_batch / severity)
                        )
                elif (
                    state.degraded_mode
                    and state.ok_streak >= resilience.recover_iterations
                ):
                    state.degraded_mode = False
                    run_span.event("degraded_exit", now)
                    if not state.structural_replan:
                        state.replanned = False
                        state.replan_severity = 0.0
                        state.active_costs = self.costs
                        state.effective_max = self.max_batch
                if (
                    state.degraded_mode
                    and resilience.shed
                    and state.waiting
                ):
                    shed_waiting(now, "degraded", sheddable_only=True)

            if sanitizer is not None:
                sanitizer.observe(
                    boundary=state.boundary,
                    now=now,
                    state=state,
                    scheduler=self,
                )

            if not state.waiting and not state.running:
                if state.next_arrival >= len(state.pending):
                    if hold.open:
                        # More arrivals may still be pushed.
                        yield "idle"
                        continue
                    # Shedding just emptied the queue and every
                    # request is accounted for; nothing left to serve.
                    break
                # Idle server: jump to the next arrival — but never
                # past the horizon, where later-routed work may land.
                target = state.pending[state.next_arrival].arrival_s
                if target > hold.horizon:
                    yield "idle"
                    continue
                clock.advance_to(target)
                continue

            if health is not None and health.down:
                # The tier is unusable: no iteration can run.  Spend
                # one retry budget discovering that, then reassess.
                state.stall_streak += 1
                state.stalls += 1
                state.stall_s += retry.timeout_s
                record_stall(now, retry.timeout_s)
                if state.stall_streak >= resilience.stall_limit:
                    abort_run(now)
                    break
                clock.advance_to(now + retry.timeout_s)
                continue

            limit = state.effective_max
            if kv is not None:
                kv_limit = kv.admission_limit()
                if kv_limit is not None:
                    # Admit against real tier capacity: scale by the
                    # degraded shrink factor so a degraded batch cap
                    # still caps a capacity-admitted batch.
                    limit = max(
                        1,
                        int(
                            kv_limit
                            * state.effective_max
                            / self.max_batch
                        ),
                    )
            free = limit - len(state.running)
            admitted: List[ServeRequest] = []
            kv_surcharge = 0.0
            if state.waiting and free > 0:
                while state.waiting and len(admitted) < free:
                    entry = heapq.heappop(state.waiting)
                    request = entry[-1]
                    if kv is not None:
                        ok, surcharge = kv.try_admit(request.spec, now)
                        if not ok:
                            if not admitted and not state.running:
                                # The server is idle and the tiers are
                                # as free as they will ever be: this
                                # window can never fit.  Shed it
                                # rather than wait forever.
                                shed_one(
                                    request.spec, now, "kv_capacity"
                                )
                            else:
                                # Head-of-line: wait for running
                                # requests to release their KV.
                                heapq.heappush(state.waiting, entry)
                            break
                        kv_surcharge += surcharge
                    admitted.append(request)
                if not admitted and not state.running:
                    # The head-of-line request was shed; reassess.
                    continue
            if admitted:
                if self.prefix_cache is None:
                    prompt_max = max(r.spec.prompt_len for r in admitted)
                else:
                    prompt_max = max(
                        self.prefix_cache.effective_prompt_len(r.spec, now)
                        for r in admitted
                    )
                if injector is None:
                    duration = self.costs.prefill_time(
                        len(admitted), prompt_max
                    )
                else:
                    try:
                        duration = priced_iteration(
                            "prefill", len(admitted), prompt_max,
                            now, health,
                        )
                    except TransferError as error:
                        # Exhausted retries: put the batch back, stall
                        # for the time the attempts consumed.
                        for request in admitted:
                            if kv is not None:
                                kv.release(request.spec.request_id, now)
                            heapq.heappush(
                                state.waiting,
                                (
                                    request.qos.priority,
                                    request.spec.arrival_s,
                                    request.spec.request_id,
                                    request,
                                ),
                            )
                        state.stall_streak += 1
                        state.stalls += 1
                        state.stall_s += error.elapsed_s
                        record_stall(now, error.elapsed_s)
                        if state.stall_streak >= resilience.stall_limit:
                            abort_run(now)
                            break
                        clock.advance_to(now + error.elapsed_s)
                        continue
                if kv is not None:
                    # The static policy's surcharge is exactly 0.0;
                    # dynamic policies charge admission-time demotions
                    # here.
                    duration += kv_surcharge
                state.stall_streak = 0
                done_at = run_iteration(
                    duration,
                    f"prefill x{len(admitted)}",
                    "prefill",
                    {
                        "batch": len(admitted),
                        "prompt_len": prompt_max,
                        "requests": [r.spec.request_id for r in admitted],
                        "degraded": state.degraded_mode,
                    },
                )
                state.gpu_busy += duration
                state.prefills += 1
                admitted_counter.inc(len(admitted))
                iteration_counters["prefill"].inc()
                iteration_histograms["prefill"].observe(duration)
                tracer.span(
                    f"prefill x{len(admitted)}", now, done_at,
                    parent=run_span, category="iteration",
                    kind="prefill", batch=len(admitted),
                    tokens=prompt_max, degraded=state.degraded_mode,
                )
                if observer is not None:
                    observer.on_iteration(
                        "prefill", len(admitted), done_at
                    )
                if state.degraded_mode:
                    state.degraded_iterations += 1
                for request in admitted:
                    request.admitted_s = now
                    request.token_times.append(done_at)
                    if request.done:
                        finish(request)
                    else:
                        state.running.append(request)
                state.timeline.append(
                    IterationSample(
                        time_s=done_at,
                        kind="prefill",
                        batch=len(admitted),
                        waiting=len(state.waiting),
                        running_after=len(state.running),
                        degraded=state.degraded_mode,
                    )
                )
                continue

            # Decode: one token for every running sequence.
            decode_batch = len(state.running)
            context = max(
                request.context_len for request in state.running
            )
            if injector is None:
                duration = self.costs.decode_time(decode_batch, context)
            else:
                try:
                    duration = priced_iteration(
                        "decode", decode_batch, context, now, health,
                    )
                except TransferError as error:
                    state.stall_streak += 1
                    state.stalls += 1
                    state.stall_s += error.elapsed_s
                    record_stall(now, error.elapsed_s)
                    if state.stall_streak >= resilience.stall_limit:
                        abort_run(now)
                        break
                    clock.advance_to(now + error.elapsed_s)
                    continue
            if kv is not None:
                # Slow-tier KV reads for this pass, drained demotion
                # time, and passive promotions (0.0 for the static
                # policy).
                duration += kv.on_decode(state.running, now)
            state.stall_streak = 0
            done_at = run_iteration(
                duration,
                f"decode x{decode_batch}",
                "decode",
                {
                    "batch": decode_batch,
                    "context_len": context,
                    "degraded": state.degraded_mode,
                },
            )
            state.gpu_busy += duration
            state.decodes += 1
            iteration_counters["decode"].inc()
            iteration_histograms["decode"].observe(duration)
            tracer.span(
                f"decode x{decode_batch}", now, done_at,
                parent=run_span, category="iteration",
                kind="decode", batch=decode_batch,
                tokens=context, degraded=state.degraded_mode,
            )
            if observer is not None:
                observer.on_iteration("decode", decode_batch, done_at)
            if state.degraded_mode:
                state.degraded_iterations += 1
            still_running: List[ServeRequest] = []
            for request in state.running:
                request.token_times.append(done_at)
                if request.done:
                    finish(request)
                else:
                    still_running.append(request)
            state.running = still_running
            state.timeline.append(
                IterationSample(
                    time_s=done_at,
                    kind="decode",
                    batch=decode_batch,
                    waiting=len(state.waiting),
                    running_after=len(state.running),
                    degraded=state.degraded_mode,
                )
            )

        if sanitizer is not None:
            sanitizer.finish(state=state, scheduler=self)

        if observer is not None:
            observer.finalize(clock.now)

        if hold.managed:
            run_span.set("requests", len(state.pending))
        run_span.set("completed", len(state.records))
        run_span.set("shed", len(state.shed_records))
        run_span.set("iterations", state.prefills + state.decodes)
        run_span.set("aborted", state.aborted)
        run_span.end(clock.now)
        serve_metrics.gauge("span_s").set(clock.now)
        serve_metrics.gauge("gpu_busy_s").set(state.gpu_busy)

        state.records.sort(key=lambda record: record.request_id)
        state.shed_records.sort(key=lambda record: record.request_id)
        return SchedulerRun(
            records=tuple(state.records),
            timeline=tuple(state.timeline),
            trace=trace,
            span_s=clock.now,
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
