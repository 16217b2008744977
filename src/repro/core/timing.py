"""Timing executor for large-model runs.

Executes FlexGen's zig-zag schedule (Listing 1) over the platform
models: weight transfers are costed by the
:class:`~repro.interconnect.path.TransferPathSolver`, kernels by the
GPU roofline, and the CUDA-stream semantics (copy stream + compute
stream + per-step sync) by one pass in program order over in-order
streams (:class:`~repro.sim.streams.StreamTimeline`): each op starts
at ``max(its stream's tail, its deps' ends)``.  The output is
a :class:`~repro.core.metrics.GenerationMetrics` with per-(token,
layer) records that the paper's overlap figures are computed from.

The per-layer cost arithmetic itself lives in
:class:`~repro.core.layercosts.LayerCostModel`, which this executor
inherits — the analytic pricing backend uses the same class directly,
so the two can never drift apart.  Construct executors through
:func:`repro.pricing.build_executor` (or the higher-level
:class:`~repro.core.engine.OffloadEngine`) rather than by hand; the
pricing package is the single place run configurations are turned
into executors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.layercosts import LayerCostModel
from repro.core.metrics import GenerationMetrics, LayerTimingRecord, Stage
from repro.core.scheduler import zigzag_schedule
from repro.faults.injector import FaultInjector, TransferOutcome
from repro.faults.models import DISK_TARGET, HOST_TARGET, PCIE_TARGET
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.models.weights import LayerKind
from repro.sim.streams import StreamTimeline


@dataclass
class TimingExecutor(LayerCostModel):
    """One configured generation run, executed in virtual time."""

    spill_log: Tuple[str, ...] = field(default_factory=tuple)
    #: Listing 1's compute/transfer overlap.  False serializes each
    #: step (load layer j+1 only after computing layer j) — the
    #: counterfactual FlexGen's schedule exists to avoid.
    overlap: bool = True
    #: Optional fault injection: when set, every weight/KV/activation
    #: transfer is priced through the injector (degradation slowdowns,
    #: transient-failure retries under ``retry``, outages).  ``None``
    #: — and any zero-intensity schedule — leaves every duration
    #: byte-identical to the fault-free path.
    injector: Optional[FaultInjector] = None
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.retry is None:
            self.retry = DEFAULT_RETRY_POLICY
        #: Names the injector matches fault models against: the
        #: generic tier aliases plus this configuration's own labels.
        self._host_targets = (
            HOST_TARGET,
            self.host.host_region.name,
            self.host.label,
            PCIE_TARGET,
        )
        disk = self.host.disk_region
        self._disk_targets = (
            (DISK_TARGET, disk.name, PCIE_TARGET)
            if disk is not None
            else (DISK_TARGET, PCIE_TARGET)
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def price_load(
        self, nominal: float, host_s: float, disk_s: float, start: float
    ) -> Tuple[float, TransferOutcome, TransferOutcome]:
        """One load issued at ``start``, priced through the injector:
        its duration and (host, disk) outcomes.  The disk hop starts
        after the (possibly slowed) host hop.  Inert faults keep the
        ``nominal`` sum bit for bit, so zero-intensity runs stay exact.
        """
        host = self.injector.price_transfer(
            self._host_targets, host_s, start, self.retry
        )
        disk = self.injector.price_transfer(
            self._disk_targets, disk_s, start + host.duration_s, self.retry
        )
        if host.duration_s != host_s or disk.duration_s != disk_s:
            nominal = host.duration_s + disk.duration_s
        return nominal, host, disk

    def run(self) -> GenerationMetrics:
        """Execute the schedule; returns metrics with per-step records.

        One pass in program order: every op starts once its stream and
        the previous step's ops are done.  Faulted transfers are priced
        at that start, so fault windows are evaluated at the exact
        virtual instant each transfer begins.
        """
        layers = self.placement.layers
        #: Each (token, layer)'s load time, until its compute runs.
        transfers: Dict[Tuple[int, int], float] = {}
        records: List[LayerTimingRecord] = []
        token_times: List[float] = []
        timeline = StreamTimeline()
        injector = self.injector

        def stage_of(token: int) -> Stage:
            return Stage.PREFILL if token == 0 else Stage.DECODE

        def meta(token: int, index: int, stage: Stage) -> Dict[str, object]:
            return {
                "token": token,
                "layer": index,
                "kind": layers[index].kind.value,
                "stage": stage.value,
            }

        def load(token: int, index: int, deps: List[int]) -> int:
            stage = stage_of(token)
            host_s, disk_s = self.layer_transfer_parts(index)
            kv_load, _ = (
                self.kv_traffic_times(stage, self.prompt_len + token)
                if layers[index].kind is LayerKind.MHA
                else (0.0, 0.0)
            )
            kv_load += self._hidden_traffic_times(stage)[0]
            total = host_s + disk_s + kv_load
            if injector is not None:
                start = timeline.start("h2d", deps)
                total = self.price_load(
                    total, host_s + kv_load, disk_s, start
                )[0]
            transfers[token, index] = total
            return timeline.add(
                "h2d",
                total,
                f"load t{token} L{index}",
                "transfer",
                meta(token, index, stage),
                deps,
            )

        def write_back(seconds, label, kind, stage, computed) -> int:
            """A GPU -> host copy after ``computed``, on the host tier."""
            deps = [computed]
            if injector is not None:
                start = timeline.start("d2h", deps)
                seconds = injector.price_transfer(
                    self._host_targets, seconds, start, self.retry
                ).duration_s
            attrs = {"stage": stage.value, "kind": kind}
            return timeline.add("d2h", seconds, label, "transfer", attrs, deps)

        # Initial load of (token 0, layer 0), before the loop starts;
        # every step's ops wait for all of the previous step's.
        sync = [load(0, 0, [])]

        for step in zigzag_schedule(len(layers), self.gen_len):
            token, index = step.token_index, step.layer_index
            stage = stage_of(token)
            layer = layers[index]
            context = self.prompt_len + token

            loaded = None
            if self.overlap and step.prefetch is not None:
                loaded = load(*step.prefetch, sync)

            compute_s = self.layer_compute_time(layer, stage, context)
            computed = timeline.add(
                "compute",
                compute_s,
                f"compute t{token} L{index}",
                "compute",
                meta(token, index, stage),
                sync,
            )
            records.append(
                LayerTimingRecord(
                    token_index=token,
                    layer_index=index,
                    layer_kind=layer.kind,
                    stage=stage,
                    transfer_s=transfers.pop((token, index)),
                    compute_s=compute_s,
                    start_s=timeline[computed].start,
                    end_s=timeline[computed].end,
                )
            )
            sync = [computed]

            # KV / hidden store-back (only for host-resident shares).
            store_back = 0.0
            if layer.kind is LayerKind.MHA:
                store_back += self.kv_traffic_times(stage, context)[1]
            store_back += self._hidden_traffic_times(stage)[1]
            if store_back > 0:
                label = f"store t{token} L{index}"
                sync.append(
                    write_back(store_back, label, "writeback", stage, computed)
                )

            if layer.kind is LayerKind.HEAD:
                written = write_back(
                    self._logits_writeback_time(),
                    f"logits t{token}",
                    "logits",
                    stage,
                    computed,
                )
                token_times.append(timeline[written].end)
                sync.append(written)

            if not self.overlap and step.prefetch is not None:
                # Serial counterfactual: the next layer's weights only
                # start moving once this layer's compute retires.
                loaded = load(*step.prefetch, [computed])

            if loaded is not None:
                sync.append(loaded)

        #: Kept for post-run inspection / Chrome-trace export.
        self.trace = timeline.trace()
        return GenerationMetrics(
            model_name=self.config.name,
            host_label=self.host.label,
            placement_name=self.placement.algorithm,
            batch_size=self.batch_size,
            prompt_len=self.prompt_len,
            gen_len=self.gen_len,
            token_times=token_times,
            records=records,
            total_s=self.trace.makespan(),
            spill_log=tuple(self.spill_log),
            num_gpu_batches=self.policy.num_gpu_batches,
        )
