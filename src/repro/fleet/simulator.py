"""Fleet serving: N replicas behind a router, one virtual timeline.

:class:`FleetSimulator` interleaves replica schedulers in virtual
time without ever running one "past" an arrival it might receive: for
each request, every replica taking arrivals is advanced to its instant
(lazily: :meth:`~repro.serve.scheduler.SchedulerDrive.advance` runs
the loop only when the drive is read or pushed to), the router picks
a target off exact queue depths, and the spec is pushed into that
replica's stream.  After the last arrival the streams are closed and drained to
completion.

:func:`simulate_fleet` is the fleet counterpart of
:func:`repro.serve.simulate_serving` — same model/host/placement and
workload knobs, plus ``replicas``, shard degrees, and ``router``.
A ``replicas=1, tensor_parallel=1, pipeline_parallel=1`` fleet runs
the identical object graph and is bit-identical to
``simulate_serving`` (summary, records, telemetry snapshot); the
guard tests in ``tests/fleet`` pin that equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, require_int
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSchedule
from repro.faults.retry import RetryPolicy
from repro.fleet.replica import (
    Replica,
    ReplicaConfig,
    ReplicaPlan,
    build_replica,
    mean_shape,
)
from repro.fleet.router import FleetRouter, make_router
from repro.serve.arrivals import (
    DEFAULT_MIX,
    ArrivalProcess,
    TraceReplay,
    assign_prefix_groups,
)
from repro.serve.metrics import LatencyStats
from repro.serve.request import QosClass, RequestRecord, RequestSpec
from repro.serve.resilience import ResiliencePolicy
from repro.serve.simulator import (
    ServingResult,
    request_stream,
    resolve_slo,
    setup_echo,
)
from repro.telemetry import (
    MetricsRegistry,
    NULL_TELEMETRY,
    Telemetry,
    resolve_telemetry,
)
from repro.workloads.lengths import LengthDistribution


@dataclass(frozen=True)
class ReplicaResult:
    """One replica's complete single-engine result within a fleet."""

    index: int
    result: ServingResult
    #: Requests the router sent here (>= completed + shed).
    routed: int
    #: This replica's registry snapshot (its own labels, un-merged).
    telemetry_snapshot: Dict[str, object]


@dataclass(frozen=True)
class FleetResult:
    """A fleet run: per-replica results plus the rolled-up view."""

    setup: Dict[str, object]
    replicas: Tuple[ReplicaResult, ...]
    #: request_id -> replica index, for every routed request.
    assignments: Dict[int, int]
    #: Fleet-level reductions over all replicas' records.
    metrics: Dict[str, object]
    #: Every replica's registry folded into one, each instrument
    #: stamped with a ``replica`` label (``MetricsRegistry.merge``).
    registry: MetricsRegistry

    @property
    def records(self) -> Tuple[RequestRecord, ...]:
        merged: List[RequestRecord] = []
        for replica in self.replicas:
            merged.extend(replica.result.records)
        return tuple(
            sorted(merged, key=lambda r: (r.arrival_s, r.request_id))
        )

    def summary(self) -> Dict[str, object]:
        return {**self.setup, **self.metrics}


def _fleet_metrics(
    replicas: Sequence[ReplicaResult],
) -> Dict[str, object]:
    """Reduce all replicas' records into one operator view."""
    records: List[RequestRecord] = []
    shed = 0
    for replica in replicas:
        records.extend(replica.result.records)
        shed += len(replica.result.shed)
    span = max(
        (replica.result.metrics.duration_s for replica in replicas),
        default=0.0,
    )
    met = sum(1 for record in records if record.slo_met)
    offered = len(records) + shed
    ttft = LatencyStats.from_values([r.ttft_s for r in records])
    e2e = LatencyStats.from_values([r.e2e_s for r in records])
    return {
        "completed": len(records),
        "shed_requests": shed,
        "span_s": span,
        "throughput_rps": len(records) / span if span > 0 else 0.0,
        "goodput_rps": met / span if span > 0 else 0.0,
        "slo_attainment": met / offered if offered else 0.0,
        **ttft.summary("ttft"),
        **e2e.summary("e2e"),
        "per_replica_completed": [
            len(replica.result.records) for replica in replicas
        ],
        "per_replica_routed": [replica.routed for replica in replicas],
    }


class FleetSimulator:
    """Runs one request stream through a router onto many replicas.

    With an ``autoscaler`` (an
    :class:`~repro.autoscale.AutoscaleController`) and a
    ``replica_factory`` (``factory(index, decision) -> Replica``),
    the fleet becomes elastic: arrivals and completions stream into
    the controller, and applied decisions add replicas (activated at
    the current virtual instant, with fresh ``seed_stream`` sibling
    RNG — survivors are never perturbed) or drain them (the replica
    finishes its queued work, takes no new arrivals, and retires).
    Draining replicas are excluded from routing and are advanced only
    when the controller harvests them; once finished and harvested
    they leave the loop.  Nothing else about the interleaving changes.
    """

    def __init__(
        self,
        replicas: Sequence[Replica],
        router: FleetRouter,
        autoscaler=None,
        replica_factory=None,
    ) -> None:
        if not replicas:
            raise ConfigurationError("a fleet needs at least one replica")
        if autoscaler is not None and replica_factory is None:
            raise ConfigurationError(
                "an autoscaled fleet needs a replica_factory to build "
                "scale-up replicas"
            )
        self.replicas = list(replicas)
        self.router = router
        self.autoscaler = autoscaler
        self.replica_factory = replica_factory
        self._initial = len(self.replicas)
        self._peak = self._initial
        #: Applied scaling actions: {"at_s", "action", "replica"}.
        self.scaling_log: List[Dict[str, object]] = []
        self._harvested: Dict[int, int] = {}
        #: Replicas taking arrivals, advanced at every one, in index
        #: order.
        self._serving = list(self.replicas)
        #: Replicas the controller may still be owed records by, in
        #: index order: a draining replica leaves once its drive has
        #: finished and its records are harvested.
        self._unharvested = list(self.replicas)

    # -- autoscale plumbing --------------------------------------------

    def _harvest_completions(self, now: float) -> None:
        """Stream records finished by ``now`` into the controller.

        Records accumulate in each drive's live state.  The fleet
        harvests only when a decision is due and once after the
        drain: reading ``drive.state`` catches a replica up, so a
        harvest at every arrival would cut every replica's decode
        runs there.  No decision changes: each still sees every
        record finished by its instant, keyed by its first-token
        time, and the TTFT window's contents do not depend on the
        order it observed them in (:mod:`repro.obs.window`).  A
        draining replica takes no arrivals, so it is advanced only
        here, and a finished one is read once more, then no longer.
        """
        done = []
        for replica in self._unharvested:
            if replica.draining:
                replica.advance(now)
            records = replica.drive.state.records
            seen = self._harvested.get(replica.index, 0)
            for record in records[seen:]:
                self.autoscaler.on_finish(record)
            self._harvested[replica.index] = len(records)
            if replica.draining and replica.drive.finished:
                done.append(replica)
        for replica in done:
            self._unharvested.remove(replica)

    def _apply_decision(self, decision, now: float) -> None:
        active = self._serving
        desired = decision.desired_replicas
        while len(active) < desired:
            index = len(self.replicas)
            replica = self.replica_factory(index, decision)
            replica.start()
            replica.activated_s = now
            replica.advance(now)
            self.replicas.append(replica)
            self._unharvested.append(replica)
            active.append(replica)
            self.scaling_log.append(
                {"at_s": now, "action": "add", "replica": index}
            )
            self._peak = max(self._peak, len(active))
        # Drain newest-first so the original replicas (and their RNG
        # streams) stay stable across the whole run.
        while len(active) > desired:
            replica = max(active, key=lambda r: r.index)
            replica.draining = True
            replica.drain_mark_s = now
            replica.drive.close()
            active.remove(replica)
            self.scaling_log.append(
                {"at_s": now, "action": "drain", "replica": replica.index}
            )

    def _autoscale_metrics(self, outcomes) -> Dict[str, object]:
        fleet_end = max((o.span_s for o in outcomes), default=0.0)
        replica_seconds = 0.0
        for replica, outcome in zip(self.replicas, outcomes):
            if replica.drain_mark_s is not None:
                # A drained replica stays provisioned until the later
                # of the drain order and its last completed work.
                end = max(replica.drain_mark_s, outcome.span_s)
            else:
                end = fleet_end
            replica_seconds += max(0.0, end - replica.activated_s)
        tokens = sum(
            record.gen_len
            for outcome in outcomes
            for record in outcome.records
        )
        return {
            "decisions": [
                d.as_dict() for d in self.autoscaler.decisions
            ],
            "scaling_events": list(self.scaling_log),
            "initial_replicas": self._initial,
            "final_replicas": len(self._serving),
            "peak_replicas": self._peak,
            "replica_seconds": replica_seconds,
            "gpu_seconds_per_token": (
                replica_seconds / tokens if tokens else float("inf")
            ),
        }

    # -- the run loop ---------------------------------------------------

    def run(
        self,
        specs: Sequence[RequestSpec],
        setup: Optional[Dict[str, object]] = None,
    ) -> FleetResult:
        ordered = sorted(specs, key=lambda s: (s.arrival_s, s.request_id))
        for replica in self.replicas:
            replica.start()
        assignments: Dict[int, int] = {}
        pool = self._serving
        for spec in ordered:
            now = spec.arrival_s
            for replica in pool:
                replica.advance(now)
            if self.autoscaler is not None:
                self.autoscaler.on_arrival(spec)
                if self.autoscaler.due(now):
                    self._harvest_completions(now)
                    decision = self.autoscaler.maybe_decide(
                        now, len(pool)
                    )
                    if decision is not None and decision.applied:
                        self._apply_decision(decision, now)
            target = self.router.route(spec, pool)
            if not 0 <= target < len(pool):
                raise ConfigurationError(
                    f"router {self.router.name!r} returned replica "
                    f"{target} for a fleet of {len(pool)}"
                )
            chosen = pool[target]
            assignments[spec.request_id] = chosen.index
            chosen.push(spec)
        outcomes = [replica.finish() for replica in self.replicas]
        if self.autoscaler is not None:
            self._harvest_completions(math.inf)
            self.autoscaler.finalize(
                max((o.span_s for o in outcomes), default=0.0)
            )
        shape = mean_shape(ordered)
        results: List[ReplicaResult] = []
        for replica, outcome in zip(self.replicas, outcomes):
            serving = replica.finalize(outcome, shape, setup=setup)
            results.append(
                ReplicaResult(
                    index=replica.index,
                    result=serving,
                    routed=replica.routed,
                    telemetry_snapshot=replica.telemetry.registry.snapshot(),
                )
            )
        registry = MetricsRegistry(enabled=True)
        for entry in results:
            registry.merge(
                entry.telemetry_snapshot,
                extra_labels={"replica": str(entry.index)},
            )
        fleet_setup: Dict[str, object] = {
            "replicas": self._initial,
            "router": self.router.name,
        }
        if self.autoscaler is not None:
            fleet_setup["autoscale"] = True
        if setup:
            fleet_setup.update(setup)
        metrics = _fleet_metrics(results)
        if self.autoscaler is not None:
            metrics["autoscale"] = self._autoscale_metrics(outcomes)
        return FleetResult(
            setup=fleet_setup,
            replicas=tuple(results),
            assignments=assignments,
            metrics=metrics,
            registry=registry,
        )


def _observer(slo_spec):
    """A fresh :class:`~repro.obs.ServeObserver` over ``slo_spec``
    (``None`` without one); replicas share the immutable spec, never
    the windowed state, which the fleet rolls up through snapshots."""
    if slo_spec is None:
        return None
    from repro.obs import ServeObserver

    return ServeObserver(spec=slo_spec)


def _shared_plan(
    plans: Dict[ReplicaConfig, ReplicaPlan], config: ReplicaConfig
) -> ReplicaPlan:
    """The one plan for ``config`` within a fleet run."""
    plan = plans.get(config)
    if plan is None:
        plan = plans[config] = ReplicaPlan.build(config)
    return plan


def simulate_fleet(
    model: str = "opt-175b",
    host: str = "NVDRAM",
    placement: str = "helm",
    compress_weights: bool = True,
    arrival: Union[str, ArrivalProcess, TraceReplay] = "poisson",
    rate_rps: float = 0.01,
    burst_rate_rps: Optional[float] = None,
    num_requests: int = 200,
    prompt_lengths: Optional[LengthDistribution] = None,
    gen_lengths: Optional[LengthDistribution] = None,
    class_mix: Sequence[Tuple[QosClass, float]] = DEFAULT_MIX,
    seed: int = 0,
    max_batch: Optional[int] = None,
    overlap: bool = True,
    faults: Optional[Union[FaultSchedule, FaultInjector, str]] = None,
    fault_seed: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    resilience: Optional[ResiliencePolicy] = None,
    telemetry: Optional[Telemetry] = None,
    kv_policy: Optional[str] = None,
    sanitize: Optional[Union[bool, object]] = None,
    iteration_fault_pricing: bool = False,
    replicas: int = 1,
    tensor_parallel: int = 1,
    pipeline_parallel: int = 1,
    router: Union[str, FleetRouter] = "round-robin",
    prefix_groups: int = 0,
    prefix_len: int = 64,
    prefix_skew: float = 1.5,
    prefix_cache_size: int = 0,
    slo: Optional[Union[bool, str, object]] = None,
    autoscale: Optional[Union[bool, object]] = None,
    autoscale_target: Optional[object] = None,
) -> FleetResult:
    """Simulate ``replicas`` identically configured serve stacks.

    The workload knobs match :func:`repro.serve.simulate_serving`; the
    arrival stream is sampled *once* (same seed, same draws) and
    routed, so growing the fleet re-routes the same requests rather
    than sampling new ones.  ``tensor_parallel``/``pipeline_parallel``
    shard every replica's placement
    (:class:`~repro.core.placement.ShardedPlacement`); ``router``
    picks the policy (see :mod:`repro.fleet.router`).

    ``prefix_groups > 0`` tags the generated stream with skewed
    shared-prefix tenants
    (:func:`~repro.serve.arrivals.assign_prefix_groups`), and
    ``prefix_cache_size > 0`` attaches a per-replica
    :class:`~repro.fleet.prefix.PrefixCache` — enabled identically
    under every router, so routing is the only variable in an A/B.

    With ``replicas=1`` and shard degree 1 the wiring collapses to
    exactly ``simulate_serving``'s object graph: same engine, same
    scheduler arithmetic, bit-identical summary/records/telemetry.

    Each replica configuration is built once per call as a
    :class:`~repro.fleet.replica.ReplicaPlan` (engine and analytic
    backend) shared by every replica of it; each replica memoizes and
    counts its own prices.

    ``slo`` (``True`` / spec path / :class:`~repro.obs.SloSpec`)
    attaches streaming SLO monitoring per replica — every replica
    gets its own :class:`~repro.obs.ServeObserver` over the shared
    spec — and, with several replicas and enabled telemetry, folds
    the windowed state into one fleet-level rollup published as
    unlabeled ``obs/``/``slo/`` gauges next to the replica-labeled
    ones; the merged SLO report lands in ``result.metrics["slo"]``.

    ``autoscale`` (``True`` for defaults, or an
    :class:`~repro.autoscale.AutoscalePolicy`) attaches the
    planner-in-the-loop controller: ``replicas`` becomes the
    *initial* fleet size, the controller re-plans capacity each
    interval against ``autoscale_target`` (a
    :class:`~repro.core.qos.QosTarget`; defaults to the first QoS
    class's own latency bounds), and the applied decisions, scaling
    events, and GPU-seconds accounting land in
    ``result.metrics["autoscale"]``.  With ``autoscale`` unset the
    run is bit-identical to a plain fleet run.
    """
    config = ReplicaConfig(
        model=model,
        host=host,
        placement=placement,
        compress_weights=compress_weights,
        tensor_parallel=tensor_parallel,
        pipeline_parallel=pipeline_parallel,
        overlap=overlap,
    )
    require_int("replicas", replicas, ConfigurationError)
    if replicas < 1:
        raise ConfigurationError("a fleet needs at least one replica")
    autoscaling = autoscale is not None and autoscale is not False
    if isinstance(faults, FaultInjector) and (replicas > 1 or autoscaling):
        raise ConfigurationError(
            "a shared FaultInjector instance would couple replica RNG "
            "streams; pass a FaultSchedule (or schedule path) instead"
        )
    if not isinstance(sanitize, (bool, type(None))) and (
        replicas > 1 or autoscaling
    ):
        raise ConfigurationError(
            "a shared sanitizer harness cannot observe several "
            "replicas; pass sanitize=True for per-replica harnesses"
        )
    if iteration_fault_pricing and config.is_sharded:
        raise ConfigurationError(
            "iteration_fault_pricing walks one engine's layer schedule; "
            f"sharded replicas (tensor_parallel={tensor_parallel}, "
            f"pipeline_parallel={pipeline_parallel}) cannot price per "
            "layer — combine it with shard degree 1"
        )
    resolved = resolve_telemetry(telemetry)
    slo_spec = resolve_slo(slo, class_mix)
    specs = request_stream(
        arrival,
        rate_rps,
        burst_rate_rps,
        num_requests,
        prompt_lengths,
        gen_lengths,
        class_mix,
        seed,
    )
    if prefix_groups:
        specs = assign_prefix_groups(
            specs,
            num_groups=prefix_groups,
            prefix_len=prefix_len,
            skew=prefix_skew,
            seed=seed,
        )

    def _own_telemetry() -> Telemetry:
        return Telemetry.create() if resolved.enabled else NULL_TELEMETRY

    telemetries = (
        [resolved]
        if replicas == 1 and not autoscaling
        else [_own_telemetry() for _ in range(replicas)]
    )

    # Replicas of one configuration share its plan (engine and
    # backend); everything else is built per replica.
    plans: Dict[ReplicaConfig, ReplicaPlan] = {}

    def _build(index: int, telemetry_, config_, max_batch_) -> Replica:
        return build_replica(
            index,
            _shared_plan(plans, config_),
            classes=tuple(qos for qos, _ in class_mix),
            max_batch=max_batch_,
            faults=faults,
            fault_seed=fault_seed,
            retry=retry,
            resilience=resilience,
            telemetry=telemetry_,
            kv_policy=kv_policy,
            sanitize=sanitize,
            iteration_fault_pricing=iteration_fault_pricing,
            prefix_cache_size=prefix_cache_size,
            observer=_observer(slo_spec),
        )

    controller = None
    replica_factory = None
    if autoscaling:
        import statistics

        from repro.autoscale import AutoscaleController, AutoscalePolicy

        policy = (
            autoscale
            if isinstance(autoscale, AutoscalePolicy)
            else AutoscalePolicy()
        )
        target = (
            autoscale_target
            if autoscale_target is not None
            else class_mix[0][0].target
        )
        controller = AutoscaleController(
            policy,
            target,
            config,
            prompt_len=max(
                1,
                int(statistics.fmean(s.prompt_len for s in specs)),
            ),
            gen_len=max(
                1, int(statistics.fmean(s.gen_len for s in specs))
            ),
            max_batch_limit=max_batch if max_batch is not None else 512,
        )
        controller.bind(resolved)

        def replica_factory(index: int, decision) -> Replica:
            config_ = config
            if decision.placement is not None:
                config_ = replace(config, placement=decision.placement)
            cap = max_batch
            if decision.batch_cap is not None:
                cap = (
                    decision.batch_cap
                    if max_batch is None
                    else min(max_batch, decision.batch_cap)
                )
            return _build(index, _own_telemetry(), config_, cap)

    fleet = FleetSimulator(
        replicas=[
            _build(index, telemetries[index], config, max_batch)
            for index in range(replicas)
        ],
        router=router if isinstance(router, FleetRouter) else make_router(router),
        autoscaler=controller,
        replica_factory=replica_factory,
    )
    setup = setup_echo(
        fleet.replicas[0].scheduler,
        config,
        arrival=arrival,
        rate_rps=rate_rps,
        num_requests=len(specs),
        seed=seed,
        faults=faults,
    )
    result = fleet.run(specs, setup=setup)
    if (replicas > 1 or autoscaling) and resolved.enabled:
        # Fold the per-replica registries into the caller's ambient/
        # explicit registry so --telemetry-out captures the fleet.
        for entry in result.replicas:
            resolved.registry.merge(
                entry.telemetry_snapshot,
                extra_labels={"replica": str(entry.index)},
            )
    if slo_spec is not None and len(fleet.replicas) > 1:
        # Fleet rollup: merge every replica's windowed observer state
        # into one observer over the shared spec, publish unlabeled
        # obs/slo gauges beside the replica-labeled ones, and surface
        # the merged attainment report.
        rollup = _observer(slo_spec)
        rollup.bind_run(resolved, None)
        last_now = 0.0
        for replica in fleet.replicas:
            snapshot = replica.scheduler.observer.snapshot()
            rollup.merge(snapshot)
            last_now = max(last_now, float(snapshot.get("last_now", 0.0)))
        rollup.finalize(last_now)
        fleet_report = rollup.report()
        if fleet_report is not None:
            result.metrics["slo"] = fleet_report
    elif slo_spec is not None:
        report = fleet.replicas[0].scheduler.observer.report()
        if report is not None:
            result.metrics["slo"] = report
    return result
