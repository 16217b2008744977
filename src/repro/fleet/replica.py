"""One serving replica: the single-engine serve stack as a fleet unit.

A replica's *configuration* (:class:`ReplicaConfig`: model, host,
placement, compression, shard degrees, overlap) is everything its
engine and prices depend on.  :meth:`ReplicaPlan.build` does that
expensive part once — the :class:`~repro.core.engine.OffloadEngine`
with its placement, spill log and memory plan, the shard engines of
a sharded replica, and one :class:`~repro.pricing.AnalyticBackend`
whose family grids and layer cost models every replica of the
configuration reuses.  The engine's price table and, with a KV
policy, the KV tier topology are shared too.  Nothing in a plan
changes after it is built (the topology is derived once, on first
use), so
:func:`repro.fleet.simulate_fleet` hands one plan to every replica
of a configuration.

:func:`build_replica` then wires what each replica owns, exactly as
:func:`repro.serve.simulate_serving` wires its one stack: a cost
model with its own front memo and its own price hit/miss counters
(:meth:`ReplicaPlan.cost_model`), telemetry binding, fault injector,
replanner, KV manager, sanitizer, observer, prefix cache and
scheduler, with replica-stable RNG streams derived via
:func:`repro.faults.seed_stream`.  A fleet of one replica at shard
degree 1 therefore *is* the old stack object-for-object, which is
what the bit-identity guard tests pin.

The replica exposes the scheduler's incremental
:class:`~repro.serve.scheduler.SchedulerDrive` so the
:class:`~repro.fleet.simulator.FleetSimulator` can interleave many
replicas in one virtual timeline: advance to an arrival, route, push,
repeat.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.core.engine import OffloadEngine
from repro.core.placement.sharding import ShardedPlacement
from repro.faults.injector import FaultInjector, make_injector
from repro.faults.models import FaultSchedule
from repro.faults.retry import RetryPolicy
from repro.faults.seeds import seed_stream
from repro.fleet.costs import ShardedCostModel, shard_engines
from repro.fleet.prefix import PrefixCache
from repro.kv.tiers import KvTierTopology
from repro.pricing import AnalyticBackend
from repro.serve.costs import IterationCostModel
from repro.serve.metrics import build_metrics
from repro.serve.request import QosClass, RequestSpec
from repro.serve.resilience import Replanner, ResiliencePolicy
from repro.serve.scheduler import (
    ContinuousBatchingScheduler,
    SchedulerDrive,
    SchedulerRun,
)
from repro.serve.simulator import ServingResult
from repro.telemetry import NULL_TELEMETRY, Telemetry


@dataclass(frozen=True)
class ReplicaConfig:
    """What a replica's engine and prices depend on; replicas with
    equal configurations share one :class:`ReplicaPlan`."""

    model: str = "opt-175b"
    host: str = "NVDRAM"
    placement: str = "helm"
    compress_weights: bool = True
    tensor_parallel: int = 1
    pipeline_parallel: int = 1
    overlap: bool = True


@dataclass(frozen=True)
class ReplicaPlan:
    """One configuration, built once and read-only from then on."""

    config: ReplicaConfig
    engine: OffloadEngine
    backend: AnalyticBackend
    sharded: Optional[ShardedPlacement] = None
    shard_engines: Tuple[OffloadEngine, ...] = ()

    @classmethod
    def build(cls, config: ReplicaConfig) -> "ReplicaPlan":
        engine = OffloadEngine(
            model=config.model,
            host=config.host,
            placement=config.placement,
            compress_weights=config.compress_weights,
            batch_size=1,
        )
        if config.tensor_parallel == config.pipeline_parallel == 1:
            return cls(config, engine, AnalyticBackend())
        sharded = ShardedPlacement.plan(
            engine.placement_result,
            tensor_parallel=config.tensor_parallel,
            pipeline_parallel=config.pipeline_parallel,
        )
        return cls(
            config,
            engine,
            AnalyticBackend(),
            sharded,
            tuple(shard_engines(engine, sharded)),
        )

    @cached_property
    def kv_topology(self) -> KvTierTopology:
        """The configuration's KV tier budgets, derived on first use."""
        return KvTierTopology.from_engine(self.engine)

    def cost_model(self):
        """A new replica's cost model over the shared engine(s) and
        backend, with its own front memo and price counters."""
        overlap = self.config.overlap
        if self.sharded is None:
            return IterationCostModel(
                self.engine,
                overlap=overlap,
                backend=self.backend,
                cache=self.engine.price_cache.view(),
            )
        return ShardedCostModel(
            self.engine,
            self.sharded,
            overlap=overlap,
            engines=self.shard_engines,
            backend=self.backend,
        )


@dataclass
class Replica:
    """A fully wired serving replica and its live drive handle."""

    index: int
    engine: OffloadEngine
    costs: object
    scheduler: ContinuousBatchingScheduler
    telemetry: Telemetry
    classes: Tuple[QosClass, ...] = ()
    sharded: Optional[ShardedPlacement] = None
    prefix_cache: Optional[PrefixCache] = None
    sanitizer: Optional[object] = None
    observer: Optional[object] = None
    drive: Optional[SchedulerDrive] = None
    routed: int = 0
    #: Autoscale lifecycle: when this replica was provisioned (virtual
    #: seconds; 0 for the initial fleet), whether it is draining (no
    #: new work, finishes its queue, then retires), and when the
    #: drain was ordered.  Untouched in static fleets.
    activated_s: float = 0.0
    draining: bool = False
    drain_mark_s: Optional[float] = None

    @property
    def queue_depth(self) -> int:
        """Exact queued-plus-running occupancy at the drive's clock."""
        return 0 if self.drive is None else self.drive.queue_depth

    def start(self) -> None:
        """Park the scheduler at time 0."""
        self.drive = self.scheduler.drive()

    def push(self, spec: RequestSpec) -> None:
        self.routed += 1
        self.drive.push(spec)

    def advance(self, until: float) -> None:
        self.drive.advance(until)

    def finish(self) -> SchedulerRun:
        return self.drive.finish()

    def finalize(
        self,
        outcome: SchedulerRun,
        all_specs: Sequence[RequestSpec],
        setup: Optional[Dict[str, object]] = None,
    ) -> ServingResult:
        """Reduce this replica's run exactly as ``ServingSimulator.run``
        does, so a one-replica fleet's result is bit-identical."""
        service_ref = self.costs.reference_service_time(
            prompt_len=int(
                statistics.fmean(spec.prompt_len for spec in all_specs)
            )
            or 1,
            gen_len=max(
                1,
                int(statistics.fmean(spec.gen_len for spec in all_specs)),
            ),
            batch=self.scheduler.max_batch,
        )
        metrics = build_metrics(outcome, self.classes, service_ref)
        info: Dict[str, object] = {
            "max_batch": self.scheduler.max_batch,
            "service_ref_s": service_ref,
            "prefill_iterations": outcome.prefill_iterations,
            "decode_iterations": outcome.decode_iterations,
        }
        if self.scheduler.injector is not None:
            info["fault_stats"] = self.scheduler.injector.stats.as_dict()
        cache_stats = getattr(self.costs, "cache_stats", None)
        if cache_stats is not None:
            info["price_cache"] = cache_stats
        if self.scheduler.kv is not None:
            info["kv"] = self.scheduler.kv.snapshot()
        if self.sanitizer is not None:
            info["sanitize"] = self.sanitizer.report()
        if self.observer is not None:
            slo_report = self.observer.report()
            if slo_report is not None:
                info["slo"] = slo_report
        backend_memo = getattr(
            getattr(self.costs, "backend", None), "cache_info", None
        )
        if backend_memo is not None:
            info["backend_memo"] = backend_memo
        if self.prefix_cache is not None:
            info["prefix_cache"] = self.prefix_cache.snapshot()
        if setup:
            info.update(setup)
        telemetry = self.telemetry
        if telemetry.enabled and backend_memo is not None:
            memo_scope = telemetry.scoped("pricing/backend")
            memo_scope.gauge("entries").set(backend_memo["entries"])
        if telemetry.enabled:
            scope = telemetry.scoped("serve")
            scope.gauge("max_batch").set(self.scheduler.max_batch)
            scope.gauge("throughput_rps").set(metrics.throughput_rps)
            scope.gauge("goodput_rps").set(metrics.goodput_rps)
            scope.gauge("slo_attainment").set(metrics.slo_attainment)
            scope.gauge("utilization").set(metrics.utilization)
            scope.gauge("saturated").set(float(metrics.saturated))
        return ServingResult(
            setup=info,
            metrics=metrics,
            records=outcome.records,
            timeline=outcome.timeline,
            trace=outcome.trace,
            shed=outcome.shed,
        )


def build_replica(
    index: int,
    plan: ReplicaPlan,
    *,
    classes: Sequence[QosClass],
    max_batch: Optional[int] = None,
    faults: Optional[Union[FaultSchedule, FaultInjector, str]] = None,
    fault_seed: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    resilience: Optional[ResiliencePolicy] = None,
    telemetry: Optional[Telemetry] = None,
    kv_policy: Optional[str] = None,
    sanitize: Optional[Union[bool, object]] = None,
    iteration_fault_pricing: bool = False,
    prefix_cache_size: int = 0,
    slo=None,
) -> Replica:
    """Wire one replica over ``plan`` exactly as ``simulate_serving``
    wires its stack.

    ``fault_seed`` is the fleet root: replica 0 draws from it
    unchanged, siblings from :func:`seed_stream` — so growing the
    fleet never perturbs an existing replica's fault draws.
    """
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    engine = plan.engine
    sharded = plan.sharded
    overlap = plan.config.overlap
    costs = plan.cost_model()
    if telemetry.enabled:
        for model in costs.models if sharded is not None else (costs,):
            model.cache.bind_telemetry(telemetry.registry)
        scope = telemetry.scoped("engine")
        scope.gauge("spilled_layers").set(len(engine.spill_log))
        scope.gauge("host_oversubscribed").set(
            float(engine.host_oversubscribed)
        )
    injector = make_injector(
        faults, seed=seed_stream(fault_seed, index, "faults")
    )
    replanner: Optional[Replanner] = None
    fault_targets: Optional[Tuple[str, ...]] = None
    if injector is not None:
        from repro.faults.models import HOST_TARGET, PCIE_TARGET
        from repro.serve.resilience import engine_replanner

        if telemetry.enabled:
            injector.bind_telemetry(telemetry.registry)
        fault_targets = (
            HOST_TARGET,
            PCIE_TARGET,
            engine.host.host_region.name,
            engine.host.label,
        )
        if sharded is None:
            # Re-planning swaps in a degraded *single-engine* cost
            # model; a sharded replica rides out degradation with
            # shedding and batch shrink instead.
            replanner = engine_replanner(
                engine, overlap=overlap, price_cache=costs.cache
            )
    sanitizer = None
    if sanitize is None:
        sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
    if sanitize:
        if isinstance(sanitize, bool):
            from repro.chaos import SanitizerHarness

            sanitizer = SanitizerHarness()
        else:
            sanitizer = sanitize
    kv = None
    if kv_policy is not None:
        from repro.kv import KvCacheManager
        from repro.kv import kv_policy as resolve_kv_policy

        kv = KvCacheManager(
            engine,
            resolve_kv_policy(kv_policy),
            telemetry=telemetry,
            topology=plan.kv_topology,
            backend=plan.backend,
        )
    prefix_cache = (
        PrefixCache(prefix_cache_size) if prefix_cache_size else None
    )
    observer = None
    if slo is not None:
        from repro.obs import ServeObserver

        # Replicas share the (immutable) spec but each gets its own
        # observer instance — windowed state is per replica, rolled
        # up by the fleet through mergeable snapshots.
        observer = ServeObserver(spec=slo)
    scheduler_kwargs: Dict[str, object] = {}
    if fault_targets is not None:
        scheduler_kwargs["fault_targets"] = fault_targets
    scheduler = ContinuousBatchingScheduler(
        costs,
        tuple(classes),
        max_batch=max_batch,
        injector=injector,
        retry=retry,
        resilience=resilience,
        replanner=replanner,
        telemetry=telemetry,
        kv=kv,
        iteration_fault_pricing=iteration_fault_pricing,
        sanitizer=sanitizer,
        prefix_cache=prefix_cache,
        observer=observer,
        **scheduler_kwargs,
    )
    return Replica(
        index=index,
        engine=engine,
        costs=costs,
        scheduler=scheduler,
        telemetry=telemetry,
        classes=tuple(classes),
        sharded=sharded,
        prefix_cache=prefix_cache,
        sanitizer=sanitizer,
        observer=observer,
    )
