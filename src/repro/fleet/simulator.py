"""Fleet serving: N replicas behind a router, one virtual timeline.

:class:`FleetSimulator` interleaves replica schedulers in virtual
time without ever running one "past" an arrival it might receive: for
each request, every replica is advanced exactly to the arrival
instant (:meth:`~repro.serve.scheduler.SchedulerDrive.advance`), the
router picks a target off exact queue depths, and the spec is pushed
into that replica's stream.  After the last arrival the streams are
closed and drained to completion.

:func:`simulate_fleet` is the fleet counterpart of
:func:`repro.serve.simulate_serving` — same model/host/placement and
workload knobs, plus ``replicas``, shard degrees, and ``router``.
A ``replicas=1, tensor_parallel=1, pipeline_parallel=1`` fleet runs
the identical object graph and is bit-identical to
``simulate_serving`` (summary, records, telemetry snapshot); the
guard tests in ``tests/fleet`` pin that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSchedule
from repro.faults.retry import RetryPolicy
from repro.fleet.replica import (
    Replica,
    ReplicaConfig,
    ReplicaPlan,
    build_replica,
)
from repro.fleet.router import FleetRouter, make_router
from repro.serve.arrivals import (
    DEFAULT_MIX,
    ArrivalProcess,
    TraceReplay,
    assign_prefix_groups,
    generate_requests,
)
from repro.serve.metrics import LatencyStats
from repro.serve.request import QosClass, RequestRecord, RequestSpec
from repro.serve.resilience import ResiliencePolicy
from repro.serve.simulator import ServingResult, make_arrival_process
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
    Draining replicas are excluded from routing; nothing else about
    the interleaving changes, and with no autoscaler attached the
    loop is instruction-identical to the static fleet.
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

    # -- autoscale plumbing --------------------------------------------

    def _active(self) -> List[Replica]:
        return [r for r in self.replicas if not r.draining]

    def _harvest_completions(self) -> None:
        """Stream newly finished records into the controller.

        Records accumulate in each drive's live state; feeding them at
        control boundaries (rather than per iteration) keeps the hot
        path untouched while the controller's TTFT window still sees
        every completion, keyed by its virtual finish time.
        """
        for replica in self.replicas:
            records = replica.drive.state.records
            seen = self._harvested.get(replica.index, 0)
            for record in records[seen:]:
                self.autoscaler.on_finish(record)
            self._harvested[replica.index] = len(records)

    def _apply_decision(self, decision, now: float) -> None:
        active = self._active()
        desired = decision.desired_replicas
        while len(active) < desired:
            index = len(self.replicas)
            replica = self.replica_factory(index, decision)
            replica.start()
            replica.activated_s = now
            replica.advance(now)
            self.replicas.append(replica)
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
        active = self._active()
        return {
            "decisions": [
                d.as_dict() for d in self.autoscaler.decisions
            ],
            "scaling_events": list(self.scaling_log),
            "initial_replicas": self._initial,
            "final_replicas": len(active),
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
        if self.autoscaler is None:
            for spec in ordered:
                for replica in self.replicas:
                    replica.advance(spec.arrival_s)
                target = self.router.route(spec, self.replicas)
                if not 0 <= target < len(self.replicas):
                    raise ConfigurationError(
                        f"router {self.router.name!r} returned replica "
                        f"{target} for a fleet of {len(self.replicas)}"
                    )
                assignments[spec.request_id] = target
                self.replicas[target].push(spec)
        else:
            for spec in ordered:
                now = spec.arrival_s
                for replica in self.replicas:
                    replica.advance(now)
                self.autoscaler.on_arrival(spec)
                self._harvest_completions()
                decision = self.autoscaler.maybe_decide(
                    now, len(self._active())
                )
                if decision is not None and decision.applied:
                    self._apply_decision(decision, now)
                pool = self._active()
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
            self._harvest_completions()
            self.autoscaler.finalize(
                max((o.span_s for o in outcomes), default=0.0)
            )
        results: List[ReplicaResult] = []
        for replica, outcome in zip(self.replicas, outcomes):
            serving = replica.finalize(outcome, ordered, setup=setup)
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
            "replicas": (
                len(self.replicas)
                if self.autoscaler is None
                else self._initial
            ),
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
    :class:`~repro.fleet.replica.ReplicaPlan` (engine, analytic
    backend, price table) shared by every replica of it; each replica
    still counts its own price hits and misses.

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
    if autoscaling and (tensor_parallel > 1 or pipeline_parallel > 1):
        raise ConfigurationError(
            "autoscaling currently adds/drains unsharded replicas; "
            "combine it with shard degree 1"
        )
    if iteration_fault_pricing and (
        tensor_parallel > 1 or pipeline_parallel > 1
    ):
        raise ConfigurationError(
            "iteration_fault_pricing walks one engine's layer schedule; "
            f"sharded replicas (tensor_parallel={tensor_parallel}, "
            f"pipeline_parallel={pipeline_parallel}) cannot price per "
            "layer — combine it with shard degree 1"
        )
    resolved = resolve_telemetry(telemetry)
    slo_spec = None
    if slo is not None:
        from repro.obs import SloSpec

        if isinstance(slo, bool):
            if slo:
                slo_spec = SloSpec.for_classes(
                    tuple(qos for qos, _ in class_mix)
                )
        elif isinstance(slo, str):
            slo_spec = SloSpec.load(slo)
        else:
            slo_spec = slo
    if isinstance(arrival, str):
        process: Union[ArrivalProcess, TraceReplay] = make_arrival_process(
            arrival, rate_rps, burst_rate_rps
        )
    else:
        process = arrival
    specs = generate_requests(
        process,
        num_requests,
        prompt_lengths=prompt_lengths or LengthDistribution.fixed(128),
        gen_lengths=gen_lengths or LengthDistribution.fixed(21),
        class_mix=class_mix,
        seed=seed,
    )
    if prefix_groups:
        specs = assign_prefix_groups(
            specs,
            num_groups=prefix_groups,
            prefix_len=prefix_len,
            skew=prefix_skew,
            seed=seed,
        )
    if replicas == 1 and not autoscaling:
        telemetries: List[Telemetry] = [resolved]
    elif resolved.enabled:
        telemetries = [Telemetry.create() for _ in range(replicas)]
    else:
        telemetries = [NULL_TELEMETRY] * replicas

    # Replicas of one configuration share its plan (engine, backend,
    # price table); everything else is built per replica.
    plans: Dict[ReplicaConfig, ReplicaPlan] = {}

    def _build(index: int, telemetry_, placement_, max_batch_) -> Replica:
        config = ReplicaConfig(
            model=model,
            host=host,
            placement=placement_,
            compress_weights=compress_weights,
            tensor_parallel=tensor_parallel,
            pipeline_parallel=pipeline_parallel,
            overlap=overlap,
        )
        return build_replica(
            index,
            _shared_plan(plans, config),
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
            slo=slo_spec,
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
            model=model,
            host=host,
            placement=placement,
            compress_weights=compress_weights,
            overlap=overlap,
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
            scale_telemetry = (
                Telemetry.create() if resolved.enabled else NULL_TELEMETRY
            )
            placement_ = placement
            cap = max_batch
            if decision is not None:
                if decision.placement is not None:
                    placement_ = decision.placement
                if decision.batch_cap is not None:
                    cap = (
                        decision.batch_cap
                        if max_batch is None
                        else min(max_batch, decision.batch_cap)
                    )
            return _build(index, scale_telemetry, placement_, cap)

    fleet = FleetSimulator(
        replicas=[
            _build(index, telemetries[index], placement, max_batch)
            for index in range(replicas)
        ],
        router=router if isinstance(router, FleetRouter) else make_router(router),
        autoscaler=controller,
        replica_factory=replica_factory,
    )
    setup: Dict[str, object] = {
        "model": model,
        "host": host,
        "placement": placement,
        "compress_weights": compress_weights,
        "arrival": arrival if isinstance(arrival, str) else type(arrival).__name__,
        "rate_rps": rate_rps,
        "num_requests": len(specs),
        "seed": seed,
    }
    if fleet.replicas[0].scheduler.injector is not None:
        setup["faults"] = faults if isinstance(faults, str) else "schedule"
        setup["fault_seed"] = fleet.replicas[0].scheduler.injector.seed
    if fleet.replicas[0].scheduler.kv is not None:
        setup["kv_policy"] = fleet.replicas[0].scheduler.kv.policy.name
    if tensor_parallel > 1 or pipeline_parallel > 1:
        setup["tensor_parallel"] = tensor_parallel
        setup["pipeline_parallel"] = pipeline_parallel
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
        from repro.obs import ServeObserver

        rollup = ServeObserver(spec=slo_spec)
        if resolved.enabled:
            rollup.bind_run(resolved, None)
        last_now = 0.0
        for replica in fleet.replicas:
            if replica.observer is not None:
                snapshot = replica.observer.snapshot()
                rollup.merge(snapshot)
                last_now = max(
                    last_now, float(snapshot.get("last_now", 0.0))
                )
        rollup.finalize(last_now)
        fleet_report = rollup.report()
        if fleet_report is not None:
            result.metrics["slo"] = fleet_report
    elif slo_spec is not None and fleet.replicas[0].observer is not None:
        report = fleet.replicas[0].observer.report()
        if report is not None:
            result.metrics["slo"] = report
    return result
