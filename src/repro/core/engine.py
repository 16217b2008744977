"""The :class:`OffloadEngine` façade — the library's main entry point.

Example::

    from repro.core import OffloadEngine

    engine = OffloadEngine(
        model="opt-175b", host="NVDRAM", placement="helm",
        compress_weights=True, batch_size=1,
    )
    metrics = engine.run_timing()
    print(metrics.ttft_s, metrics.tbt_s, metrics.throughput_tps)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.core.batching import (
    GpuMemoryPlan,
    fit_placement_for_batch,
    gpu_memory_plan,
    max_batch_size,
)
from repro.core.functional import FunctionalExecutor, FunctionalResult
from repro.core.metrics import GenerationMetrics
from repro.core.placement.base import PlacementAlgorithm, PlacementResult
from repro.core.placement.registry import placement_algorithm
from repro.core.policy import Policy, default_policy
from repro.devices.gpu import A100_SPEC, GpuSpec
from repro.errors import CapacityError, ConfigurationError
from repro.faults.degrade import degraded_host_config
from repro.faults.injector import FaultInjector, make_injector
from repro.faults.models import FaultSchedule
from repro.faults.retry import RetryPolicy
from repro.memory.hierarchy import HostMemoryConfig, host_config
from repro.models.config import OptConfig, opt_config
from repro.models.transformer import OptWeights


@dataclass(frozen=True)
class EngineSetup:
    """The resolved configuration of one engine instance."""

    model: str
    host: str
    placement: str
    policy: Policy
    batch_size: int
    prompt_len: int
    gen_len: int


class OffloadEngine:
    """Ties together model, host memory, placement, and executors."""

    def __init__(
        self,
        model: Union[str, OptConfig] = "opt-175b",
        host: Union[str, HostMemoryConfig] = "NVDRAM",
        placement: Union[str, PlacementAlgorithm] = "baseline",
        policy: Optional[Policy] = None,
        compress_weights: Optional[bool] = None,
        batch_size: int = 1,
        prompt_len: int = 128,
        gen_len: int = 21,
        gpu_spec: GpuSpec = A100_SPEC,
        allow_spill: bool = True,
        faults: Optional[Union[FaultSchedule, FaultInjector, str]] = None,
        fault_seed: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.config = model if isinstance(model, OptConfig) else opt_config(model)
        self.host = (
            host if isinstance(host, HostMemoryConfig) else host_config(host)
        )
        self.algorithm = (
            placement
            if isinstance(placement, PlacementAlgorithm)
            else placement_algorithm(placement)
        )
        if policy is None:
            policy = default_policy(self.config.name, self.host.label)
        if compress_weights is not None:
            policy = policy.with_compression(compress_weights)
        if policy.disk_percent > 0 and not self.host.has_disk:
            raise ConfigurationError(
                f"host {self.host.label!r} has no storage tier, but the "
                f"policy's disk_percent is {policy.disk_percent:g}"
            )
        self.policy = policy
        self.batch_size = int(batch_size)
        self.prompt_len = int(prompt_len)
        self.gen_len = int(gen_len)
        self.gpu_spec = gpu_spec
        #: Optional fault injection, threaded into every timing run.
        #: ``faults`` accepts a schedule, a ready injector, or a path
        #: to a schedule JSON; ``None`` keeps the fault-free path.
        self.injector = make_injector(faults, seed=fault_seed)
        self.retry = retry

        self.placement_result: PlacementResult = self.algorithm.place_model(
            self.config, self.policy
        )
        self.spill_log: List[str] = []
        if allow_spill:
            self.spill_log = fit_placement_for_batch(
                self.placement_result,
                self.policy,
                self.batch_size,
                self.prompt_len,
                self.gen_len,
                self.gpu_spec,
            )
        else:
            plan = self.memory_plan
            if not plan.fits:
                raise CapacityError(
                    self.gpu_spec.name, plan.total_bytes, plan.usable_bytes
                )

    @property
    def setup(self) -> EngineSetup:
        return EngineSetup(
            model=self.config.name,
            host=self.host.label,
            placement=self.algorithm.name,
            policy=self.policy,
            batch_size=self.batch_size,
            prompt_len=self.prompt_len,
            gen_len=self.gen_len,
        )

    @property
    def host_oversubscribed(self) -> bool:
        """True when the host tier cannot physically hold its share.

        The paper itself evaluates such a configuration: the all-DRAM
        "ideal" for OPT-175B needs ~298 GB of host weights against
        256 GiB of DRAM (Section IV-B: "there is no DRAM optima to
        compare against for OPT-175B").  The timing backend still
        simulates it — as the paper's dashed ideal lines do — but this
        flag makes the hypothetical explicit.
        """
        from repro.core.batching import host_memory_bytes

        needed = host_memory_bytes(
            self.placement_result,
            self.policy,
            self.batch_size,
            self.prompt_len,
            self.gen_len,
        )
        return needed > self.host.host_region.capacity_bytes

    @property
    def memory_plan(self) -> GpuMemoryPlan:
        return gpu_memory_plan(
            self.placement_result,
            self.policy,
            self.batch_size,
            self.prompt_len,
            self.gen_len,
            self.gpu_spec,
        )

    def max_batch_size(self, limit: int = 512) -> int:
        """Largest batch this engine's (possibly spilled) placement
        supports (the paper's "maximum permissible size"), bounded by
        both GPU and host-memory capacity."""
        return max_batch_size(
            self.placement_result,
            self.policy,
            self.prompt_len,
            self.gen_len,
            self.gpu_spec,
            limit=limit,
            host_capacity_bytes=self.host.host_region.capacity_bytes,
        )

    # ------------------------------------------------------------------
    # Backends
    # ------------------------------------------------------------------

    def run_spec(
        self,
        batch_size: Optional[int] = None,
        prompt_len: Optional[int] = None,
        gen_len: Optional[int] = None,
        overlap: bool = True,
        include_faults: bool = True,
    ):
        """This engine's configuration as a :class:`repro.pricing.RunSpec`.

        The shape arguments default to the engine's own; the serving
        cost model overrides them per (batch, context bucket).
        """
        # Lazy, as throughout: repro.pricing imports repro.core.
        from repro.pricing import RunSpec

        return RunSpec(
            host=self.host,
            placement=self.placement_result,
            policy=self.policy,
            batch_size=(
                self.batch_size if batch_size is None else int(batch_size)
            ),
            prompt_len=(
                self.prompt_len if prompt_len is None else int(prompt_len)
            ),
            gen_len=self.gen_len if gen_len is None else int(gen_len),
            gpu_spec=self.gpu_spec,
            overlap=overlap,
            spill_log=tuple(self.spill_log),
            injector=self.injector if include_faults else None,
            retry=self.retry if include_faults else None,
        )

    def cost_model(self, bucket_tokens: int = 32, overlap: bool = True):
        """An iteration cost model over this engine's configuration,
        with its own price memo and hit/miss counters."""
        from repro.serve.costs import IterationCostModel

        return IterationCostModel(
            self, bucket_tokens=bucket_tokens, overlap=overlap
        )

    def run_timing(self, telemetry=None) -> GenerationMetrics:
        """Execute the run on the op-by-op timing executor.

        The executed trace stays available as :attr:`last_trace` for
        inspection or Chrome-trace export
        (:func:`repro.sim.chrome_trace.save_chrome_trace`).

        ``telemetry`` (a :class:`repro.telemetry.Telemetry`, default:
        the ambient one) receives an ``engine`` run span plus
        per-category operation-duration histograms; with the inert
        default this is a no-op and the run is bit-identical.
        """
        from repro.pricing import build_executor
        from repro.telemetry import resolve_telemetry

        telemetry = resolve_telemetry(telemetry)
        executor = build_executor(self.run_spec())
        metrics = executor.run()
        self.last_trace = executor.trace
        if telemetry.enabled:
            self._record_run_telemetry(telemetry, metrics, executor.trace)
        return metrics

    def _record_run_telemetry(self, telemetry, metrics, trace) -> None:
        """One timing run's trace, reduced into the registry/tracer."""
        scope = telemetry.scoped("engine")
        scope.counter("runs").inc()
        scope.counter("trace_ops").inc(len(trace.records))
        histograms = {
            category: scope.histogram(
                "op_duration_s", labels={"category": category}
            )
            for category in ("compute", "transfer")
        }
        for record in trace.records:
            histogram = histograms.get(record.category)
            if histogram is not None:
                histogram.observe(record.duration)
        run_span = telemetry.tracer.start(
            f"engine run {self.config.name}",
            0.0,
            category="engine",
            model=self.config.name,
            host=self.host.label,
            placement=self.algorithm.name,
            batch=self.batch_size,
            ttft_s=metrics.ttft_s,
            tbt_s=metrics.tbt_s,
            throughput_tps=metrics.throughput_tps,
        )
        # Every trace record (per-layer compute, per-layer host/disk
        # transfer) becomes a child span, so exporters see the layer
        # schedule under the run instead of a single opaque box.
        for record in trace.records:
            attrs = dict(record.meta)
            attrs["stream"] = record.stream
            telemetry.tracer.span(
                record.label,
                record.start,
                record.end,
                parent=run_span,
                category=record.category,
                **attrs,
            )
        run_span.end(trace.makespan())

    def replan_for_degradation(
        self,
        host_slowdown: float = 1.0,
        disk_slowdown: float = 1.0,
    ) -> "OffloadEngine":
        """Re-run placement against a degraded bandwidth map.

        Builds a sibling engine whose host configuration delivers
        ``1/host_slowdown`` (and ``1/disk_slowdown``) of the nominal
        tier bandwidth, then re-runs this engine's placement algorithm
        against it.  This is the re-planning step the serving layer
        triggers on sustained tier degradation: the new engine's cost
        model and admission limit price the degraded reality.

        This engine, and every cost model over it, is left as it was:
        its prices still describe the nominal hardware a recovery
        returns to.
        """
        degraded = degraded_host_config(
            self.host,
            host_factor=host_slowdown,
            disk_factor=disk_slowdown,
        )
        return OffloadEngine(
            model=self.config,
            host=degraded,
            placement=self.algorithm,
            policy=self.policy,
            batch_size=self.batch_size,
            prompt_len=self.prompt_len,
            gen_len=self.gen_len,
            gpu_spec=self.gpu_spec,
        )

    def run_functional(
        self,
        weights: Optional[OptWeights] = None,
        token_ids: Optional[np.ndarray] = None,
        seed: int = 0,
    ) -> FunctionalResult:
        """Execute the run with real numpy math (small models only).

        Random weights and prompts are generated when not supplied.
        """
        if self.config.param_count > 2_000_000_000:
            raise ConfigurationError(
                f"{self.config.name} is too large for the functional "
                "backend; use run_timing()"
            )
        if weights is None:
            weights = OptWeights.init_random(self.config, seed=seed)
        if token_ids is None:
            rng = np.random.default_rng(seed)
            token_ids = rng.integers(
                0,
                self.config.vocab_size,
                size=(self.batch_size, self.prompt_len),
            )
        executor = FunctionalExecutor(
            host=self.host,
            placement=self.placement_result,
            policy=self.policy,
            weights=weights,
            gpu_spec=self.gpu_spec,
        )
        try:
            return executor.generate(token_ids, self.gen_len)
        finally:
            executor.release()
