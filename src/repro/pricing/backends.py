"""Cost backends: how a :class:`~repro.pricing.spec.RunSpec` is priced.

Two implementations, float-equal per layer for fault-free runs:

* :class:`EventBackend` — the authoritative path.  Builds the full
  discrete-event :class:`~repro.core.timing.TimingExecutor` for the
  spec and prices each iteration by *executing* it: one load op on the
  copy stream and one kernel op on the compute stream per layer, run
  through the :class:`~repro.sim.engine.SimEngine`.  This is the
  backend that can also run whole generations
  (:meth:`EventBackend.run`) and apply fault injection in virtual
  time.

* :class:`AnalyticBackend` — the closed form.  Prices every request
  as one cell of its configuration's memoized
  :class:`~repro.pricing.vector.LayerCostGrid` (no executor, no
  event engine, no fault bookkeeping).  The grid evaluates the
  :class:`~repro.core.layercosts.LayerCostModel` arithmetic the
  executor inherits, so analytic per-layer parts are **exactly**
  equal to the event backend's for fault-free runs — float for
  float, not a tolerance — at a fraction of the cost, which is what
  lets the open-loop serving simulator price thousands of iterations
  per run.

The serving stack prices through :class:`AnalyticBackend`; the event
backend serves where a timeline is the product (whole runs, per-layer
fault pricing) and as the test oracle.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.layercosts import LayerCostModel
from repro.core.metrics import GenerationMetrics, Stage
from repro.pricing.parts import FaultedIterationParts, IterationParts, KvParts
from repro.pricing.spec import RunSpec
from repro.sim.engine import SimEngine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.timing import TimingExecutor
    from repro.pricing.vector import LayerCostGrid


def build_executor(spec: RunSpec) -> "TimingExecutor":
    """The one place run specs become discrete-event executors.

    Every former hand-rolled ``TimingExecutor(...)`` construction site
    routes through here; nothing outside :mod:`repro.pricing` (and the
    executor's own tests) should build one directly.
    """
    # Imported lazily: repro.core.engine is part of repro.core's
    # package init and itself consumes repro.pricing, so a module-level
    # import here would create a cycle.
    from repro.core.timing import TimingExecutor

    return TimingExecutor(
        host=spec.host,
        placement=spec.placement,
        policy=spec.policy,
        batch_size=spec.batch_size,
        prompt_len=spec.prompt_len,
        gen_len=spec.gen_len,
        gpu_spec=spec.gpu_spec,
        pcie=spec.pcie,
        spill_log=spec.spill_log,
        overlap=spec.overlap,
        injector=spec.injector,
        retry=spec.retry,
    )


class AnalyticBackend:
    """Closed-form pricing straight off the platform models."""

    def __init__(self) -> None:
        self._models: Dict[RunSpec, LayerCostModel] = {}
        self._grids: Dict[RunSpec, "LayerCostGrid"] = {}

    @property
    def cache_info(self) -> Dict[str, int]:
        """Size of the per-spec model and per-family grid memos."""
        return {"entries": len(self._models) + len(self._grids)}

    def layer_model(self, spec: RunSpec) -> LayerCostModel:
        """The (memoized) bare cost model for one spec."""
        model = self._models.get(spec)
        if model is None:
            model = LayerCostModel(
                host=spec.host,
                placement=spec.placement,
                policy=spec.policy,
                batch_size=spec.batch_size,
                prompt_len=spec.prompt_len,
                gen_len=spec.gen_len,
                gpu_spec=spec.gpu_spec,
                pcie=spec.pcie,
            )
            self._models[spec] = model
        return model

    def cost_grid(
        self, spec: RunSpec, stage: Optional[Stage] = None
    ) -> "LayerCostGrid":
        """The (memoized) vectorized grid for one spec *family*.

        A grid prices every (batch, context-bucket) shape of one
        configuration, so it is keyed with the batch normalized away —
        all batch siblings share one grid.  A grid that will only
        price ``Stage.PREFILL`` never reads the spec's prompt length
        (its context axis *is* the prompt bucket), so for that stage
        the prompt is normalized away too and every prompt bucket
        shares one grid.
        """
        from repro.pricing.vector import LayerCostGrid

        key = dataclasses.replace(
            spec,
            injector=None,
            retry=None,
            batch_size=1,
            prompt_len=1 if stage is Stage.PREFILL else spec.prompt_len,
        )
        grid = self._grids.get(key)
        if grid is None:
            grid = LayerCostGrid(key)
            self._grids[key] = grid
        return grid

    def iteration_parts(
        self, spec: RunSpec, stage: Stage, context_len: int
    ) -> IterationParts:
        """Price one iteration as a single cell of the family grid."""
        return (
            self.cost_grid(spec, stage)
            .evaluate(stage, (spec.batch_size,), (context_len,))
            .parts_at(0, 0)
        )

    def kv_parts(
        self, spec: RunSpec, stage: Stage, context_len: int
    ) -> KvParts:
        """Per-MHA-layer (load, store) times for the host-resident KV
        share — the KV sibling of ``staging_transfer_parts``."""
        read_s, write_s = self.layer_model(spec).kv_traffic_times(
            stage, context_len
        )
        return KvParts(read_s=read_s, write_s=write_s)


class EventBackend:
    """Discrete-event pricing through the full timing executor."""

    def __init__(self) -> None:
        self._executors: Dict[RunSpec, "TimingExecutor"] = {}
        #: Virtual-time trace of the most recent one-iteration pass,
        #: kept for inspection / Chrome-trace export.
        self.last_trace = None

    @property
    def cache_info(self) -> Dict[str, int]:
        """Size of the per-spec executor memo."""
        return {"entries": len(self._executors)}

    def executor(self, spec: RunSpec) -> "TimingExecutor":
        """The (memoized) full executor for one spec."""
        executor = self._executors.get(spec)
        if executor is None:
            executor = build_executor(spec)
            self._executors[spec] = executor
        return executor

    def layer_model(self, spec: RunSpec) -> LayerCostModel:
        """The spec's layer cost model: its executor, which inherits
        the very arithmetic :meth:`AnalyticBackend.layer_model` builds."""
        return self.executor(spec)

    def iteration_parts(
        self, spec: RunSpec, stage: Stage, context_len: int
    ) -> IterationParts:
        """Price one layer pass by executing it in virtual time.

        Mirrors Listing 1's stream structure for a single iteration:
        loads land in order on the ``h2d`` stream, each layer's kernel
        on the ``compute`` stream gated on its own load.  The per-op
        durations come from the executor's (inherited) cost model, so
        the extracted parts equal the analytic backend's exactly; what
        the event pass adds is the authoritative machinery — a real
        op-by-op schedule and a trace.
        """
        executor = self.executor(spec)
        engine = SimEngine()
        h2d = engine.stream("h2d")
        compute_stream = engine.stream("compute")
        load_ops: List = []
        compute_ops: List = []
        for index, layer in enumerate(executor.placement.layers):
            load = h2d.enqueue(
                executor.layer_transfer_time(index),
                label=f"load L{index}",
                category="transfer",
                meta={"layer": index, "stage": stage.value},
            )
            kernel = compute_stream.enqueue(
                executor.layer_compute_time(layer, stage, context_len),
                label=f"compute L{index}",
                category="compute",
                deps=[load],
                meta={"layer": index, "stage": stage.value},
            )
            load_ops.append(load)
            compute_ops.append(kernel)
        engine.run()
        self.last_trace = engine.trace
        return IterationParts(
            transfers=tuple(op.duration for op in load_ops),
            computes=tuple(op.duration for op in compute_ops),
            overlap=spec.overlap,
        )

    def kv_parts(
        self, spec: RunSpec, stage: Stage, context_len: int
    ) -> KvParts:
        """Per-MHA-layer KV (load, store) times off the executor's
        inherited cost model — exactly equal to the analytic backend's."""
        read_s, write_s = self.executor(spec).kv_traffic_times(
            stage, context_len
        )
        return KvParts(read_s=read_s, write_s=write_s)

    def faulted_iteration_parts(
        self,
        spec: RunSpec,
        stage: Stage,
        context_len: int,
        now: float = 0.0,
    ) -> FaultedIterationParts:
        """One iteration priced *through* the spec's fault injector.

        Mirrors :meth:`iteration_parts`' stream structure (sequential
        loads on ``h2d``, each kernel gated on its own load), but every
        transfer is priced at its estimated virtual start time —
        ``now`` plus the priced durations of the loads ahead of it on
        the stream — exactly the static start arithmetic the full
        :class:`~repro.core.timing.TimingExecutor` run uses.  Host and
        disk shares are priced against their own target sets, with the
        disk hop starting after the (possibly slowed) host hop.
        Computes stay nominal: faults act on data movement, not
        kernels.  Raises :class:`~repro.errors.TransferError` when a
        transfer exhausts its retries, just like the executor.

        Without an injector this degrades to the nominal parts — and a
        zero-intensity schedule reprices every duration bit-identically
        (the injector returns ``nominal * 1.0`` and the nominal
        summation order is kept when nothing changed).
        """
        injector = spec.injector
        if injector is None:
            return FaultedIterationParts(
                parts=self.iteration_parts(spec, stage, context_len)
            )
        executor = self.executor(spec)
        retry = executor.retry

        def priced(targets, nominal: float, start: float):
            if nominal <= 0:
                return None
            return injector.price_transfer(targets, nominal, start, retry)

        transfers: List[float] = []
        computes: List[float] = []
        retried_layers = 0
        overhead_s = 0.0
        tail = now
        for index, layer in enumerate(executor.placement.layers):
            host_s, disk_s = executor.layer_transfer_parts(index)
            duration = host_s + disk_s
            host_out = priced(executor._host_targets, host_s, tail)
            priced_host = host_out.duration_s if host_out else 0.0
            disk_out = priced(
                executor._disk_targets, disk_s, tail + priced_host
            )
            priced_disk = disk_out.duration_s if disk_out else 0.0
            # Keep the nominal summation order when the faults were
            # inert, so zero-intensity pricing stays bit-exact.
            if priced_host != host_s or priced_disk != disk_s:
                duration = priced_host + priced_disk
            for outcome in (host_out, disk_out):
                if outcome is not None:
                    overhead_s += outcome.wasted_s + outcome.retry_delay_s
            if any(
                outcome.retried
                for outcome in (host_out, disk_out)
                if outcome is not None
            ):
                retried_layers += 1
            transfers.append(duration)
            computes.append(
                executor.layer_compute_time(layer, stage, context_len)
            )
            tail += duration
        return FaultedIterationParts(
            parts=IterationParts(
                transfers=tuple(transfers),
                computes=tuple(computes),
                overlap=spec.overlap,
            ),
            retried_layers=retried_layers,
            retry_overhead_s=overhead_s,
        )

    def run(self, spec: RunSpec) -> GenerationMetrics:
        """Execute the spec's whole generation (zig-zag schedule)."""
        return self.executor(spec).run()

