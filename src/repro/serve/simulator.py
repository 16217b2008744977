"""The open-loop serving simulator, end to end.

Glues the pieces together: an :class:`~repro.core.engine.OffloadEngine`
supplies iteration costs and the KV admission limit, an arrival
process supplies the request stream, the continuous-batching
scheduler serves it in virtual time, and the metrics layer reduces
the run to operator-facing numbers.

Typical use::

    from repro.serve import simulate_serving

    result = simulate_serving(
        placement="helm", arrival="poisson", rate_rps=0.01,
        num_requests=200,
    )
    print(result.metrics.summary()["ttft_p99_s"])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import os
import statistics

from repro.core.engine import OffloadEngine
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector, make_injector
from repro.faults.models import FaultSchedule
from repro.faults.retry import RetryPolicy
from repro.serve.arrivals import (
    DEFAULT_MIX,
    ArrivalProcess,
    MmppProcess,
    PoissonProcess,
    TraceReplay,
    generate_requests,
)
from repro.serve.metrics import ServingMetrics, build_metrics
from repro.serve.request import (
    QosClass,
    RequestRecord,
    RequestSpec,
    ShedRecord,
)
from repro.serve.resilience import Replanner, ResiliencePolicy
from repro.serve.scheduler import (
    ContinuousBatchingScheduler,
    IterationSample,
    SchedulerRun,
)
from repro.sim.trace import Trace
from repro.telemetry import Telemetry, resolve_telemetry
from repro.workloads.lengths import LengthDistribution


@dataclass(frozen=True)
class ServingResult:
    """One simulation's configuration echo, metrics, and artifacts."""

    setup: Dict[str, object]
    metrics: ServingMetrics
    records: Tuple[RequestRecord, ...]
    timeline: Tuple[IterationSample, ...]
    #: Full virtual-time trace (iterations + per-request spans); pass
    #: to :func:`repro.sim.chrome_trace.save_chrome_trace`.
    trace: Trace
    #: Requests rejected under degraded operation (empty without
    #: fault injection).
    shed: Tuple[ShedRecord, ...] = ()

    def summary(self) -> Dict[str, object]:
        return {**self.setup, **self.metrics.summary()}


class ServingSimulator:
    """Reusable simulator over one cost model and QoS class set."""

    def __init__(
        self,
        costs,
        classes: Sequence[QosClass] = tuple(qos for qos, _ in DEFAULT_MIX),
        max_batch: Optional[int] = None,
        injector: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        resilience: Optional[ResiliencePolicy] = None,
        replanner: Optional[Replanner] = None,
        fault_targets: Optional[Sequence[str]] = None,
        telemetry: Optional[Telemetry] = None,
        kv=None,
        iteration_fault_pricing: bool = False,
        sanitizer=None,
        observer=None,
    ) -> None:
        self.costs = costs
        self.classes = tuple(classes)
        self.telemetry = telemetry
        #: Optional :class:`repro.chaos.SanitizerHarness`, observed at
        #: every scheduler boundary; its report lands in
        #: ``setup["sanitize"]``.
        self.sanitizer = sanitizer
        #: Optional :class:`repro.obs.ServeObserver`; its SLO report
        #: lands in ``setup["slo"]``.  ``None`` skips every hook.
        self.observer = observer
        scheduler_kwargs: Dict[str, object] = {}
        if fault_targets is not None:
            scheduler_kwargs["fault_targets"] = tuple(fault_targets)
        self.scheduler = ContinuousBatchingScheduler(
            costs,
            self.classes,
            max_batch=max_batch,
            injector=injector,
            retry=retry,
            resilience=resilience,
            replanner=replanner,
            telemetry=telemetry,
            kv=kv,
            iteration_fault_pricing=iteration_fault_pricing,
            sanitizer=sanitizer,
            observer=observer,
            **scheduler_kwargs,
        )

    def run(
        self,
        specs: Sequence[RequestSpec],
        setup: Optional[Dict[str, object]] = None,
        checkpoint=None,
        restore: Optional[Dict[str, object]] = None,
    ) -> ServingResult:
        outcome: SchedulerRun = self.scheduler.run(
            specs, checkpoint=checkpoint, restore=restore
        )
        service_ref = self.costs.reference_service_time(
            prompt_len=int(
                statistics.fmean(spec.prompt_len for spec in specs)
            )
            or 1,
            gen_len=max(
                1, int(statistics.fmean(spec.gen_len for spec in specs))
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
        if setup:
            info.update(setup)
        telemetry = resolve_telemetry(self.telemetry)
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


def make_arrival_process(
    arrival: str,
    rate_rps: float,
    burst_rate_rps: Optional[float] = None,
    mean_base_s: Optional[float] = None,
    mean_burst_s: Optional[float] = None,
    peak_rate_rps: Optional[float] = None,
    period_s: Optional[float] = None,
) -> ArrivalProcess:
    """Build a named arrival process.

    ``poisson`` and ``bursty`` are the original shapes; ``diurnal``
    and ``flash`` are the autoscaler's stress workloads
    (:class:`~repro.serve.arrivals.DiurnalProcess` /
    :class:`~repro.serve.arrivals.FlashCrowdProcess`).

    For ``bursty``, unspecified parameters default to a burst at 5x
    the base rate with dwell times of 50 base interarrivals in the
    base state and 10 in the burst state.  For ``diurnal`` and
    ``flash``, the peak defaults to 10x the base rate — the swing the
    ROADMAP's autoscaling scenario calls for; the diurnal period
    defaults to 200 base interarrivals, and the flash crowd starts
    after 50 with a 5/20/5 ramp/hold/decay.
    """
    if arrival == "poisson":
        return PoissonProcess(rate_rps=rate_rps)
    if arrival in ("bursty", "diurnal", "flash") and rate_rps <= 0:
        raise ConfigurationError("arrival rate must be positive")
    if arrival == "bursty":
        return MmppProcess(
            base_rate_rps=rate_rps,
            burst_rate_rps=burst_rate_rps or rate_rps * 5.0,
            mean_base_s=mean_base_s or 50.0 / rate_rps,
            mean_burst_s=mean_burst_s or 10.0 / rate_rps,
        )
    if arrival == "diurnal":
        from repro.serve.arrivals import DiurnalProcess

        return DiurnalProcess(
            base_rate_rps=rate_rps,
            peak_rate_rps=peak_rate_rps or rate_rps * 10.0,
            period_s=period_s or 200.0 / rate_rps,
        )
    if arrival == "flash":
        from repro.serve.arrivals import FlashCrowdProcess

        return FlashCrowdProcess(
            base_rate_rps=rate_rps,
            peak_rate_rps=peak_rate_rps or rate_rps * 10.0,
            start_s=50.0 / rate_rps,
            ramp_s=5.0 / rate_rps,
            hold_s=20.0 / rate_rps,
            decay_s=5.0 / rate_rps,
        )
    raise ConfigurationError(
        f"unknown arrival process {arrival!r}; expected poisson, bursty, "
        "diurnal, flash, or a TraceReplay via trace_specs"
    )


def simulate_serving(
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
    iteration_fault_pricing: bool = False,
    sanitize: Optional[Union[bool, object]] = None,
    slo: Optional[Union[bool, str, object]] = None,
    observer=None,
    checkpoint=None,
    restore: Optional[Dict[str, object]] = None,
) -> ServingResult:
    """Simulate one placement under open-loop load, end to end.

    ``arrival`` may be a process name (``"poisson"``/``"bursty"``), a
    ready-made process, or a :class:`TraceReplay`; in the replay case
    the sampled lengths/classes come from the trace itself.

    ``faults`` (a :class:`FaultSchedule`, ready injector, or path to a
    schedule JSON) turns on fault injection: every iteration's
    transfer component is priced under the schedule, and
    ``resilience`` (default :data:`~repro.serve.resilience.DEFAULT_RESILIENCE`)
    governs shedding, batch shrinking, and placement re-planning.
    ``None`` keeps the fault-free path bit-identical to a plain run.

    ``telemetry`` (default: the ambient
    :func:`repro.telemetry.current_telemetry`) receives registry
    counters from the engine, price cache, fault injector, and
    scheduler, plus the serving span tree.  The inert default records
    nothing, and an enabled instance never changes a priced metric.

    ``kv_policy`` attaches a :class:`repro.kv.KvCacheManager`:
    ``"static"`` reproduces today's split bit for bit (accounting and
    per-tier occupancy telemetry only), ``"hotness"`` /
    ``"hotness-inclusive"`` admit against real tier capacity with LRU
    demotion and passive promotion, surcharging iterations with the
    priced migrations and slow-tier reads.  ``None`` (default) leaves
    serving exactly as before ``repro.kv`` existed.

    ``iteration_fault_pricing`` prices every layer's transfers through
    the injector individually (on the event executor's layer
    schedule) instead of one lump sum per iteration.

    ``sanitize`` attaches the cross-layer invariant sanitizer
    (:class:`repro.chaos.SanitizerHarness`): ``True`` builds a strict
    default harness, or pass a configured harness directly.  The
    default ``None`` consults the ``REPRO_SANITIZE`` environment
    variable.  The sanitizer never perturbs the run — a sanitized run
    is bit-identical to an unsanitized one — and its report lands in
    ``result.setup["sanitize"]``.

    ``slo`` attaches streaming SLO monitoring (:mod:`repro.obs`):
    ``True`` derives one objective per QoS class from the class's own
    latency bounds, a path loads an :class:`~repro.obs.SloSpec` JSON,
    or pass a spec directly.  ``observer`` injects a fully configured
    :class:`~repro.obs.ServeObserver` instead (mutually exclusive
    with ``slo``).  Either way the scheduler feeds it arrivals,
    completions, sheds, and boundaries; burn rates and windowed
    quantiles are published as ``slo/`` / ``obs/`` gauges, and the
    end-of-run report lands in ``result.setup["slo"]``.  The default
    ``None`` attaches nothing and leaves the run bit-identical.

    ``checkpoint`` (a :class:`~repro.serve.state.CheckpointPlan`)
    snapshots the full run state at iteration boundaries; ``restore``
    resumes from such a snapshot (the one carried by a raised
    :class:`~repro.errors.SimulatedCrash`), replaying the run
    bit-identically from the checkpointed boundary.  Resuming expects
    the *same* configuration arguments as the crashed call.
    """
    telemetry = resolve_telemetry(telemetry)
    engine = OffloadEngine(
        model=model,
        host=host,
        placement=placement,
        compress_weights=compress_weights,
        batch_size=1,
    )
    costs = engine.cost_model(overlap=overlap)
    if telemetry.enabled:
        engine.price_cache.bind_telemetry(telemetry.registry)
        scope = telemetry.scoped("engine")
        scope.gauge("spilled_layers").set(len(engine.spill_log))
        scope.gauge("host_oversubscribed").set(
            float(engine.host_oversubscribed)
        )
    injector = make_injector(faults, seed=fault_seed)
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
        replanner = engine_replanner(engine, overlap=overlap)
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
    if sanitize is None:
        sanitize = os.environ.get("REPRO_SANITIZE", "") not in (
            "",
            "0",
        )
    sanitizer = None
    if sanitize:
        if isinstance(sanitize, bool):
            from repro.chaos import SanitizerHarness

            sanitizer = SanitizerHarness()
        else:
            sanitizer = sanitize
    if slo is not None and observer is not None:
        raise ConfigurationError(
            "pass either slo= (a spec/path/True) or observer= (a "
            "configured ServeObserver), not both"
        )
    if slo is not None:
        from repro.obs import ServeObserver, SloSpec

        if isinstance(slo, bool):
            if slo:
                spec = SloSpec.for_classes(
                    tuple(qos for qos, _ in class_mix)
                )
                observer = ServeObserver(spec=spec)
        elif isinstance(slo, str):
            observer = ServeObserver(spec=SloSpec.load(slo))
        else:
            observer = ServeObserver(spec=slo)
    kv = None
    if kv_policy is not None:
        from repro.kv import KvCacheManager
        from repro.kv import kv_policy as resolve_kv_policy

        kv = KvCacheManager(
            engine,
            resolve_kv_policy(kv_policy),
            telemetry=telemetry,
            backend=costs.backend,
        )
    simulator = ServingSimulator(
        costs,
        classes=tuple(qos for qos, _ in class_mix),
        max_batch=max_batch,
        injector=injector,
        retry=retry,
        resilience=resilience,
        replanner=replanner,
        fault_targets=fault_targets,
        telemetry=telemetry,
        kv=kv,
        iteration_fault_pricing=iteration_fault_pricing,
        sanitizer=sanitizer,
        observer=observer,
    )
    setup = {
        "model": model,
        "host": host,
        "placement": placement,
        "compress_weights": compress_weights,
        "arrival": arrival if isinstance(arrival, str) else type(arrival).__name__,
        "rate_rps": rate_rps,
        "num_requests": len(specs),
        "seed": seed,
    }
    if injector is not None:
        setup["faults"] = (
            faults if isinstance(faults, str) else "schedule"
        )
        setup["fault_seed"] = injector.seed
    if kv is not None:
        setup["kv_policy"] = kv.policy.name
    return simulator.run(
        specs, setup=setup, checkpoint=checkpoint, restore=restore
    )
