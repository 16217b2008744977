"""The open-loop serving simulator, end to end.

:func:`simulate_serving` serves one placement: it builds one replica
of the fleet wiring (:class:`repro.fleet.replica.ReplicaPlan` +
:func:`repro.fleet.replica.build_replica`: engine, cost model, fault
injector, re-planner, KV manager, sanitizer, observer, scheduler),
runs its scheduler over the sampled request stream as one closed
:class:`~repro.serve.scheduler.SchedulerDrive` (``scheduler.run``,
which also takes a checkpoint plan or a restore), and reduces the run
to operator-facing numbers
(:meth:`repro.fleet.replica.Replica.finalize`).

The request stream, ``slo=`` resolution and the ``setup`` echo are
shared with :func:`repro.fleet.simulate_fleet` through
:func:`request_stream`, :func:`resolve_slo` and :func:`setup_echo`.

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

from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
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
from repro.serve.metrics import ServingMetrics
from repro.serve.request import (
    QosClass,
    RequestRecord,
    RequestSpec,
    ShedRecord,
)
from repro.serve.resilience import ResiliencePolicy
from repro.serve.state import IterationSample
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


def request_stream(
    arrival: Union[str, ArrivalProcess, TraceReplay],
    rate_rps: float,
    burst_rate_rps: Optional[float],
    num_requests: int,
    prompt_lengths: Optional[LengthDistribution],
    gen_lengths: Optional[LengthDistribution],
    class_mix: Sequence[Tuple[QosClass, float]],
    seed: int,
) -> Tuple[RequestSpec, ...]:
    """Sample the request stream both entry points serve.

    A named ``arrival`` goes through :func:`make_arrival_process`;
    lengths default to a fixed 128-token prompt and 21 generated
    tokens.
    """
    if isinstance(arrival, str):
        arrival = make_arrival_process(arrival, rate_rps, burst_rate_rps)
    return generate_requests(
        arrival,
        num_requests,
        prompt_lengths=prompt_lengths or LengthDistribution.fixed(128),
        gen_lengths=gen_lengths or LengthDistribution.fixed(21),
        class_mix=class_mix,
        seed=seed,
    )


def resolve_slo(slo, class_mix: Sequence[Tuple[QosClass, float]]):
    """The :class:`~repro.obs.SloSpec` an ``slo=`` argument names.

    ``True`` derives one objective per QoS class of ``class_mix``, a
    string loads a spec JSON, a spec passes through; ``None`` and
    ``False`` both mean no SLO monitoring.
    """
    if slo is None or slo is False:
        return None
    from repro.obs import SloSpec

    if slo is True:
        return SloSpec.for_classes(tuple(qos for qos, _ in class_mix))
    if isinstance(slo, str):
        return SloSpec.load(slo)
    return slo


def setup_echo(
    scheduler,
    config,
    *,
    arrival: Union[str, ArrivalProcess, TraceReplay],
    rate_rps: float,
    num_requests: int,
    seed: int,
    faults,
) -> Dict[str, object]:
    """The configuration echo a result's ``setup`` starts from: the
    replica ``config`` (a :class:`~repro.fleet.replica.ReplicaConfig`;
    shard degrees only when sharded) and the workload, with fault and
    KV keys read off the (first) replica's ``scheduler``."""
    setup: Dict[str, object] = {
        "model": config.model,
        "host": config.host,
        "placement": config.placement,
        "compress_weights": config.compress_weights,
        "arrival": arrival if isinstance(arrival, str) else type(arrival).__name__,
        "rate_rps": rate_rps,
        "num_requests": num_requests,
        "seed": seed,
    }
    if scheduler.injector is not None:
        setup["faults"] = faults if isinstance(faults, str) else "schedule"
        setup["fault_seed"] = scheduler.injector.seed
    if scheduler.kv is not None:
        setup["kv_policy"] = scheduler.kv.policy.name
    if config.is_sharded:
        setup["tensor_parallel"] = config.tensor_parallel
        setup["pipeline_parallel"] = config.pipeline_parallel
    return setup


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

    One replica of the fleet wiring (see the module docstring), run
    as one closed drive: the result is bit-identical to a one-replica,
    shard-degree-1 :func:`repro.fleet.simulate_fleet`.

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
    with an ``slo`` spec; ``slo=False`` means none).  Either way the scheduler feeds it arrivals,
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
    from repro.fleet.replica import (
        ReplicaConfig,
        ReplicaPlan,
        build_replica,
        mean_shape,
    )

    telemetry = resolve_telemetry(telemetry)
    spec = resolve_slo(slo, class_mix)
    if spec is not None:
        if observer is not None:
            raise ConfigurationError(
                "pass either slo= (a spec/path/True) or observer= (a "
                "configured ServeObserver), not both"
            )
        from repro.obs import ServeObserver

        observer = ServeObserver(spec=spec)
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
    config = ReplicaConfig(
        model=model,
        host=host,
        placement=placement,
        compress_weights=compress_weights,
        overlap=overlap,
    )
    replica = build_replica(
        0,
        ReplicaPlan.build(config),
        classes=tuple(qos for qos, _ in class_mix),
        max_batch=max_batch,
        faults=faults,
        fault_seed=fault_seed,
        retry=retry,
        resilience=resilience,
        telemetry=telemetry,
        kv_policy=kv_policy,
        sanitize=sanitize,
        iteration_fault_pricing=iteration_fault_pricing,
        observer=observer,
    )
    setup = setup_echo(
        replica.scheduler,
        config,
        arrival=arrival,
        rate_rps=rate_rps,
        num_requests=len(specs),
        seed=seed,
        faults=faults,
    )
    outcome = replica.scheduler.run(
        specs, checkpoint=checkpoint, restore=restore
    )
    return replica.finalize(outcome, mean_shape(specs), setup=setup)
