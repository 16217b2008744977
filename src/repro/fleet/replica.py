"""One serving replica: the single-engine serve stack as a fleet unit.

A replica's *configuration* (:class:`ReplicaConfig`: model, host,
placement, compression, shard degrees, overlap) is the one replica
description, built once per entry point and read by the setup echo,
the autoscale controller and :meth:`ReplicaPlan.build`, which does
the expensive part once — the :class:`~repro.core.engine.OffloadEngine`
with its placement, spill log and memory plan, the shard engines of
a sharded replica, and one :class:`~repro.pricing.AnalyticBackend`
whose family grids, bucket rows and layer cost models every replica
of the configuration reuses.  With a KV policy, the KV tier topology
is shared too.  Nothing in a plan changes after it is built (the
topology is derived once, on first use), so
:func:`repro.fleet.simulate_fleet` hands one plan to every replica of
a configuration.

:func:`build_replica` then wires what each replica owns: a cost
model with its own price memo and hit/miss counters
(:meth:`ReplicaPlan.cost_model`), telemetry binding, fault injector,
replanner, KV manager, sanitizer, prefix cache and scheduler around
the observer it is handed, with replica-stable RNG streams derived
via :func:`repro.faults.seed_stream`.  The replica keeps its plan, so
``replica.plan.config`` is its description.  This is the only
serve-stack wiring: :func:`repro.serve.simulate_serving` builds its
one replica here too and runs its scheduler as one closed drive, so
a fleet of one replica at shard degree 1 is that run
object-for-object, which is what the bit-identity guard tests pin.
The replica keeps no copy of its scheduler's handles.

The replica exposes the scheduler's incremental
:class:`~repro.serve.scheduler.SchedulerDrive` so the
:class:`~repro.fleet.simulator.FleetSimulator` can interleave many
replicas in one virtual timeline: advance to an arrival, route, push,
repeat.  Advancing is lazy, in the drive: a replica's loop runs to
the arrival only when the router reads it or it is pushed to.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.core.engine import OffloadEngine
from repro.core.placement.sharding import ShardedPlacement
from repro.errors import ConfigurationError, require_int
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

    def __post_init__(self) -> None:
        for name in ("tensor_parallel", "pipeline_parallel"):
            degree = getattr(self, name)
            require_int(name, degree, ConfigurationError)
            if degree < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {degree}")

    @property
    def is_sharded(self) -> bool:
        return self.tensor_parallel > 1 or self.pipeline_parallel > 1


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
        if not config.is_sharded:
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
        backend, with its own price memo and counters."""
        overlap = self.config.overlap
        if self.sharded is None:
            return IterationCostModel(
                self.engine, overlap=overlap, backend=self.backend
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
    plan: ReplicaPlan
    scheduler: ContinuousBatchingScheduler
    telemetry: Telemetry
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
        """Exact queued-plus-running occupancy at the time of the last
        :meth:`advance` (the drive runs there first)."""
        return 0 if self.drive is None else self.drive.queue_depth

    def start(self) -> None:
        """Open the scheduler's drive at time 0."""
        self.drive = self.scheduler.drive()

    def push(self, spec: RequestSpec) -> None:
        self.routed += 1
        self.drive.push(spec)

    def advance(self, until: float) -> None:
        """Owe the drive a run to ``until`` (lazily, see
        :class:`SchedulerDrive`): a replica the router does not read
        runs across arrivals routed elsewhere."""
        self.drive.advance(until)

    def finish(self) -> SchedulerRun:
        return self.drive.finish()

    def finalize(
        self,
        outcome: SchedulerRun,
        shape: Tuple[int, int],
        setup: Optional[Dict[str, object]] = None,
    ) -> ServingResult:
        """Reduce this replica's run to a :class:`ServingResult`;
        ``shape`` is the whole stream's :func:`mean_shape`, which sets
        the reference service time."""
        scheduler = self.scheduler
        costs = scheduler.costs
        prompt_len, gen_len = shape
        service_ref = costs.reference_service_time(
            prompt_len=prompt_len,
            gen_len=gen_len,
            batch=scheduler.max_batch,
        )
        metrics = build_metrics(
            outcome, tuple(scheduler.classes.values()), service_ref
        )
        info: Dict[str, object] = {
            "max_batch": scheduler.max_batch,
            "service_ref_s": service_ref,
            "prefill_iterations": outcome.prefill_iterations,
            "decode_iterations": outcome.decode_iterations,
        }
        if scheduler.injector is not None:
            info["fault_stats"] = scheduler.injector.stats.as_dict()
        cache_stats = getattr(costs, "cache_stats", None)
        if cache_stats is not None:
            info["price_cache"] = cache_stats
        if scheduler.kv is not None:
            info["kv"] = scheduler.kv.snapshot()
        if scheduler.sanitizer is not None:
            info["sanitize"] = scheduler.sanitizer.report()
        if scheduler.observer is not None:
            slo_report = scheduler.observer.report()
            if slo_report is not None:
                info["slo"] = slo_report
        backend_memo = getattr(
            getattr(costs, "backend", None), "cache_info", None
        )
        if backend_memo is not None:
            info["backend_memo"] = backend_memo
        if scheduler.prefix_cache is not None:
            info["prefix_cache"] = scheduler.prefix_cache.snapshot()
        if setup:
            info.update(setup)
        telemetry = self.telemetry
        if telemetry.enabled and backend_memo is not None:
            memo_scope = telemetry.scoped("pricing/backend")
            memo_scope.gauge("entries").set(backend_memo["entries"])
        if telemetry.enabled:
            scope = telemetry.scoped("serve")
            scope.gauge("max_batch").set(scheduler.max_batch)
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


def mean_shape(specs: Sequence[RequestSpec]) -> Tuple[int, int]:
    """A stream's mean prompt and generation lengths, truncated and at
    least 1: the request shape its reference service time prices."""
    return (
        int(statistics.fmean(spec.prompt_len for spec in specs)) or 1,
        max(1, int(statistics.fmean(spec.gen_len for spec in specs))),
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
    observer=None,
) -> Replica:
    """Wire one replica over ``plan``.

    ``observer`` is the replica's own :class:`~repro.obs.ServeObserver`
    (windowed state is per replica), or ``None`` for no SLO hooks.

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
        costs.bind_telemetry(telemetry.registry)
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
            replanner = engine_replanner(engine, overlap=overlap)
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
    return Replica(index, plan, scheduler, telemetry)
