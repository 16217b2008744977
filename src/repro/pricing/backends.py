"""Cost backends: how a :class:`~repro.pricing.spec.RunSpec` is priced.

Two implementations, float-equal per layer for fault-free runs:

* :class:`EventBackend` — the authoritative path.  Builds the full
  :class:`~repro.core.timing.TimingExecutor` for the spec and prices
  each iteration by *executing* it: one load op on the copy stream
  and one kernel op on the compute stream per layer, timed like the
  executor's own run (:class:`~repro.sim.streams.StreamTimeline`).
  It also runs whole generations (:meth:`EventBackend.run`) and
  applies fault injection in virtual time.

* :class:`AnalyticBackend` — the closed form: one cell of the
  configuration's memoized :class:`~repro.pricing.vector.LayerCostGrid`
  per price (alone, or read off a memoized bucket row), with no
  executor and no fault bookkeeping.  The grid
  evaluates the :class:`~repro.core.layercosts.LayerCostModel`
  arithmetic the executor inherits, so its per-layer parts equal the
  event backend's float for float, at a fraction of the cost.

The serving stack prices through :class:`AnalyticBackend`; the event
backend serves where a timeline is the product (whole runs, per-layer
fault pricing) and as the test oracle.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.layercosts import LayerCostModel
from repro.core.metrics import GenerationMetrics, Stage
from repro.errors import ConfigurationError
from repro.pricing.parts import FaultedIterationParts, IterationParts
from repro.pricing.spec import RunSpec
from repro.sim.streams import StreamTimeline
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.timing import TimingExecutor
    from repro.pricing.vector import CostGrid, LayerCostGrid


def build_executor(spec: RunSpec) -> "TimingExecutor":
    """The one place run specs become timing executors.

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

    def iteration_row(
        self, spec: RunSpec, stage: Stage, buckets: Sequence[int]
    ) -> "CostGrid":
        """The spec's batch size priced over a whole bucket axis: the
        family grid's memoized row (:meth:`LayerCostGrid.row`), read
        per bucket with ``.parts(batch, bucket)``."""
        return self.cost_grid(spec, stage).row(
            stage, spec.batch_size, buckets
        )


class EventBackend:
    """Op-by-op pricing through the full timing executor."""

    def __init__(self) -> None:
        self._executors: Dict[RunSpec, "TimingExecutor"] = {}
        self._last_pass: Optional[StreamTimeline] = None

    @property
    def last_trace(self) -> Optional[Trace]:
        """Trace of the most recent one-iteration pass, kept for
        inspection / Chrome-trace export."""
        return self._last_pass and self._last_pass.trace()

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

        Loads run in order on the ``h2d`` stream, each layer's kernel
        on the ``compute`` stream after its own load, with durations
        from the executor's (inherited) cost model: the parts equal
        the analytic backend's exactly, plus a trace (:attr:`last_trace`).
        """
        return self._iteration_pass(spec, stage, context_len).parts

    def iteration_row(
        self, spec: RunSpec, stage: Stage, buckets: Sequence[int]
    ) -> "CellRow":
        """:meth:`AnalyticBackend.iteration_row`'s read interface,
        answered cell by cell through :meth:`iteration_parts`."""
        return CellRow(self, spec, stage)

    def faulted_iteration_parts(
        self,
        spec: RunSpec,
        stage: Stage,
        context_len: int,
        now: float = 0.0,
    ) -> FaultedIterationParts:
        """One iteration priced *through* the spec's fault injector.

        The pass of :meth:`iteration_parts`, from ``now``, with each
        load priced at its start on the ``h2d`` stream: the host hop,
        then the disk hop after the (possibly slowed) host hop.
        Computes stay nominal.  Raises
        :class:`~repro.errors.TransferError` when a transfer exhausts
        its retries.  Without an injector, or under a zero-intensity
        schedule, the parts are the nominal ones bit for bit.
        """
        return self._iteration_pass(
            spec, stage, context_len, now, faulted=True
        )

    def _iteration_pass(
        self,
        spec: RunSpec,
        stage: Stage,
        context_len: int,
        now: float = 0.0,
        faulted: bool = False,
    ) -> FaultedIterationParts:
        executor = self.executor(spec)
        faulted = faulted and executor.injector is not None
        timeline = StreamTimeline(origin=now)
        transfers: List[float] = []
        computes: List[float] = []
        retried_layers = 0
        overhead_s = 0.0
        for index, layer in enumerate(executor.placement.layers):
            host_s, disk_s = executor.layer_transfer_parts(index)
            duration = host_s + disk_s
            if faulted:
                duration, host, disk = executor.price_load(
                    duration, host_s, disk_s, timeline.start("h2d")
                )
                overhead_s += host.wasted_s + host.retry_delay_s
                overhead_s += disk.wasted_s + disk.retry_delay_s
                retried_layers += host.retried or disk.retried
            compute = executor.layer_compute_time(layer, stage, context_len)
            loaded = timeline.add(
                "h2d",
                duration,
                f"load L{index}",
                "transfer",
                {"layer": index, "stage": stage.value},
            )
            timeline.add(
                "compute",
                compute,
                f"compute L{index}",
                "compute",
                {"layer": index, "stage": stage.value},
                [loaded],
            )
            transfers.append(duration)
            computes.append(compute)
        self._last_pass = timeline
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


class CellRow:
    """One batch size's bucket row whose every read prices one cell
    through ``backend.iteration_parts``.  As on a grid row, a prefill
    cell's prompt is its bucket."""

    def __init__(self, backend, spec: RunSpec, stage: Stage) -> None:
        self._backend = backend
        self._spec = spec
        self._stage = stage

    def parts(self, batch: int, context_len: int) -> IterationParts:
        spec = self._spec
        if batch != spec.batch_size:
            raise ConfigurationError(
                f"batch {batch} is not this row's ({spec.batch_size})"
            )
        if self._stage is Stage.PREFILL:
            spec = spec.with_shape(prompt_len=context_len)
        return self._backend.iteration_parts(spec, self._stage, context_len)
