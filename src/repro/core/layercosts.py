"""Closed-form per-layer cost arithmetic shared by every pricer.

One configured run — (host memory, placement, policy, batch, lengths,
GPU) — induces a per-layer cost structure: how long each layer's
non-resident weights take to stage onto the GPU, and how long its
kernels take at a given stage/context.  Historically this arithmetic
lived inside :class:`~repro.core.timing.TimingExecutor` and every
other consumer (the serving cost model, the CXL projections) had to
instantiate a full executor to reach it.

:class:`LayerCostModel` is that arithmetic on its own: transfers are
costed by the :class:`~repro.interconnect.path.TransferPathSolver`,
kernels by the GPU roofline, CPU attention by the host technology's
streaming bandwidth — with no discrete-event engine anywhere.  The
executor *inherits* from this class, and the vectorized
:class:`~repro.pricing.LayerCostGrid` behind
:class:`~repro.pricing.AnalyticBackend` calls the pure formulas
below over numpy axes, which is what makes the backends exactly equal
per layer: one kernel formula serves both scalar and grid pricing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.metrics import Stage
from repro.core.placement.base import PlacementResult
from repro.core.policy import Policy
from repro.devices.cpu import CpuComputeModel
from repro.devices.device import DeviceKind
from repro.devices.gpu import A100_SPEC, GpuComputeModel, GpuSpec
from repro.errors import ConfigurationError
from repro.interconnect.path import TransferPathSolver
from repro.interconnect.pcie import PcieLink
from repro.memory.hierarchy import HostMemoryConfig
from repro.memory.technology import Direction
from repro.models import flops
from repro.models.hidden import hidden_state_bytes
from repro.models.kv_cache import KvCachePlan
from repro.models.weights import LayerKind, LayerSpec

# ----------------------------------------------------------------------
# Pure cost formulas
#
# The scalar model below and the vectorized grid
# (:mod:`repro.pricing.vector`) evaluate the *same* functions — these,
# the per-kind work of :mod:`repro.models.flops` and the GPU roofline
# (:meth:`~repro.devices.gpu.GpuComputeModel.layer_time`) — which is
# what keeps them float-for-float equal: one kernel formula serves both,
# and they only differ in how many shapes they evaluate it for.
# Every function is working-set-parameterized — nothing here mutates
# the shared :class:`~repro.memory.hierarchy.HostMemoryConfig`.
# ----------------------------------------------------------------------


def resolve_working_set_bytes(
    cpu_tier_bytes: int,
    compression_ratio: float,
    kv_total_bytes: int,
    kv_cpu_fraction: float,
    host_capacity_bytes: int,
) -> int:
    """The host-tier resident footprint one run streams over per token.

    CPU-tier weights (at their stored, possibly compressed size) plus
    the host-resident KV share, clamped to the host region's capacity
    (matching what ``HostMemoryConfig.set_host_working_set`` used to
    store — but as a *per-model* value, never written to the shared
    config).
    """
    host_bytes = cpu_tier_bytes * compression_ratio
    host_bytes += kv_total_bytes * kv_cpu_fraction
    return min(int(host_bytes), host_capacity_bytes)


def staging_transfer_parts(
    solver: TransferPathSolver,
    cpu_weight_bytes: int,
    disk_weight_bytes: int,
    compression_ratio: float,
) -> Tuple[float, float]:
    """Nominal (host, disk) times to stage one layer's non-resident
    weights onto the GPU, split by source tier.

    The solver must already carry the run's
    ``host_working_set_bytes`` — host-tier bandwidth depends on it for
    Optane and Memory Mode.
    """
    cpu_bytes = cpu_weight_bytes * compression_ratio
    disk_bytes = disk_weight_bytes * compression_ratio
    host_time = (
        solver.host_to_gpu_time(cpu_bytes) if cpu_bytes > 0 else 0.0
    )
    disk_time = (
        solver.disk_to_gpu_time(disk_bytes) if disk_bytes > 0 else 0.0
    )
    return host_time, disk_time


def kv_transfer_parts(
    solver: TransferPathSolver,
    kv_plan: KvCachePlan,
    *,
    stage: Stage,
    context_len: int,
    prompt_len: int,
    kv_cpu_fraction: float,
    cpu_attention: bool,
) -> Tuple[float, float]:
    """Nominal (load, store) times per MHA layer for the host-resident
    KV share.

    What :meth:`LayerCostModel.kv_traffic_times` prices, which the
    timing executor charges on every MHA layer.
    """
    share = kv_cpu_fraction
    if share <= 0.0:
        return 0.0, 0.0
    new_tokens = prompt_len if stage is Stage.PREFILL else 1
    # With CPU attention the cache share never crosses PCIe; only
    # the freshly-produced K/V entries are written back to host.
    read_bytes = (
        0.0
        if cpu_attention
        else kv_plan.read_bytes_at(context_len) * share
    )
    write_bytes = kv_plan.write_bytes_per_step(new_tokens) * share
    return (
        solver.host_to_gpu_time(read_bytes) if read_bytes else 0.0,
        solver.gpu_to_host_time(write_bytes) if write_bytes else 0.0,
    )


def cpu_attention_seconds(
    solver: TransferPathSolver,
    cpu_compute: CpuComputeModel,
    *,
    batch: int,
    new_tokens: int,
    context_len: int,
    hidden_size: int,
    kv_read_bytes: int,
    kv_cpu_fraction: float,
    working_set_bytes: Optional[int],
) -> float:
    """Attention over the host-resident cache share, computed on the
    CPU (FlexGen's ``cpu_cache_compute``).

    The kernel streams the cache share out of the *host* memory
    technology; the query/attention-output vectors cross PCIe both
    ways.  ``batch`` covers the whole zig-zag block (all micro-batches).
    """
    share = kv_cpu_fraction
    kv_bytes = kv_read_bytes * share
    attn_flops = 4.0 * batch * new_tokens * context_len * hidden_size * share
    host_read_bw = solver.config.host_region.bandwidth(
        max(kv_bytes, 1.0),
        Direction.READ,
        working_set_bytes=working_set_bytes,
    )
    cpu_time = cpu_compute.kernel_time(
        attn_flops, kv_bytes, memory_bandwidth=host_read_bw
    )
    vector_bytes = batch * new_tokens * hidden_size * 2
    ship = solver.gpu_to_host_time(vector_bytes)
    ship += solver.host_to_gpu_time(vector_bytes)
    return cpu_time + ship


def dequant_compressed_bytes(
    kind: LayerKind,
    layer_total_bytes: int,
    *,
    batch_size: int,
    hidden_size: int,
    compress_weights: bool,
    compression_ratio: float,
) -> float:
    """Compressed bytes the GPU dequantizes to compute one layer
    (``batch_size`` may be a numpy array, as on the cost grid)."""
    if not compress_weights:
        return 0.0
    if kind is LayerKind.EMBED:
        # Only the gathered rows are dequantized.
        rows = batch_size * hidden_size * 2
        return rows * compression_ratio
    return layer_total_bytes * compression_ratio


@dataclass
class LayerCostModel:
    """Per-layer transfer/compute costs for one configured run."""

    host: HostMemoryConfig
    placement: PlacementResult
    policy: Policy
    batch_size: int
    prompt_len: int = 128
    gen_len: int = 21
    gpu_spec: GpuSpec = A100_SPEC
    gpu_compute: Optional[GpuComputeModel] = None
    pcie: Optional[PcieLink] = None

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ConfigurationError("batch size must be positive")
        if self.gen_len < 1:
            raise ConfigurationError("gen_len must be >= 1")
        if self.gpu_compute is None:
            self.gpu_compute = GpuComputeModel(self.gpu_spec)
        self.cpu_compute = CpuComputeModel()
        self.solver = TransferPathSolver(config=self.host, pcie=self.pcie)
        self.config = self.placement.config
        # KV covers the whole zig-zag block (all micro-batches).
        self.kv_plan = KvCachePlan(
            config=self.config,
            batch_size=self.batch_size * self.policy.num_gpu_batches,
            prompt_len=self.prompt_len,
            gen_len=self.gen_len,
            dtype_bytes=self.policy.kv_dtype_bytes,
        )
        self._transfer_cache: Dict[int, Tuple[float, float]] = {}
        self._configure_working_set()

    # ------------------------------------------------------------------
    # Cost models
    # ------------------------------------------------------------------

    def _configure_working_set(self) -> None:
        """Resolve *this model's* host-tier footprint — without mutating
        the shared host configuration.

        Historically this called ``host.set_host_working_set``, which
        silently re-priced every other cost model aliasing the same
        host object (memoized models for different specs would read
        each other's footprint-dependent bandwidths).  The footprint
        is now carried per model: on ``self.host_working_set_bytes``
        and on this model's private solver.
        """
        self.host_working_set_bytes = resolve_working_set_bytes(
            self.placement.tier_total_bytes(DeviceKind.CPU),
            self.policy.compression.ratio,
            self.kv_plan.total_bytes,
            self.policy.kv_cpu_fraction,
            self.host.host_region.capacity_bytes,
        )
        self.solver.host_working_set_bytes = self.host_working_set_bytes

    def layer_transfer_parts(self, layer_index: int) -> Tuple[float, float]:
        """Nominal (host, disk) times to stage one layer's non-resident
        weights onto the GPU — split by source tier so fault models can
        target each tier independently."""
        if layer_index in self._transfer_cache:
            return self._transfer_cache[layer_index]
        parts = staging_transfer_parts(
            self.solver,
            self.placement.layer_tier_bytes(layer_index, DeviceKind.CPU),
            self.placement.layer_tier_bytes(layer_index, DeviceKind.DISK),
            self.policy.compression.ratio,
        )
        self._transfer_cache[layer_index] = parts
        return parts

    def layer_transfer_time(self, layer_index: int) -> float:
        """Time to stage one layer's non-resident weights onto the GPU."""
        host_time, disk_time = self.layer_transfer_parts(layer_index)
        return host_time + disk_time

    def _dequant_bytes(self, layer: LayerSpec) -> float:
        """Compressed bytes the GPU dequantizes to compute this layer."""
        return dequant_compressed_bytes(
            layer.kind,
            layer.total_bytes,
            batch_size=self.batch_size,
            hidden_size=self.config.hidden_size,
            compress_weights=self.policy.compress_weights,
            compression_ratio=self.policy.compression.ratio,
        )

    def _cpu_attention_time(self, stage: Stage, context_len: int) -> float:
        """Attention over the host-resident cache share, computed on
        the CPU (FlexGen's ``cpu_cache_compute``)."""
        new_tokens = self.prompt_len if stage is Stage.PREFILL else 1
        return cpu_attention_seconds(
            self.solver,
            self.cpu_compute,
            batch=self.batch_size * self.policy.num_gpu_batches,
            new_tokens=new_tokens,
            context_len=context_len,
            hidden_size=self.config.hidden_size,
            kv_read_bytes=self.kv_plan.read_bytes_at(context_len),
            kv_cpu_fraction=self.policy.kv_cpu_fraction,
            working_set_bytes=self.host_working_set_bytes,
        )

    def layer_compute_time(
        self, layer: LayerSpec, stage: Stage, context_len: int
    ) -> float:
        """Kernel + dequantization time for one layer at one step.

        With ``num_gpu_batches`` > 1 the kernels run once per
        micro-batch while the (compressed) weights are dequantized
        once per layer pass — the amortization that makes FlexGen's
        zig-zag block effective.
        """
        new_tokens = self.prompt_len if stage is Stage.PREFILL else 1
        work = flops.layer_work(
            self.config,
            layer.kind,
            batch=self.batch_size,
            new_tokens=new_tokens,
            context_len=context_len,
            weight_hbm_bytes=layer.total_bytes,
        )
        time = self.gpu_compute.layer_time(
            work, self.policy.num_gpu_batches, self._dequant_bytes(layer)
        )
        if layer.kind is LayerKind.MHA and self.policy.cpu_attention:
            time += self._cpu_attention_time(stage, context_len)
        return time

    def kv_traffic_times(
        self, stage: Stage, context_len: int
    ) -> Tuple[float, float]:
        """(load, store) times per MHA layer for the host-resident KV
        share (zero in the paper's experiments, which keep the cache on
        the GPU)."""
        return kv_transfer_parts(
            self.solver,
            self.kv_plan,
            stage=stage,
            context_len=context_len,
            prompt_len=self.prompt_len,
            kv_cpu_fraction=self.policy.kv_cpu_fraction,
            cpu_attention=self.policy.cpu_attention,
        )

    def _hidden_bytes(self, stage: Stage) -> int:
        """Size of the residual-stream activation one layer hands the
        next (for the whole zig-zag block)."""
        tokens = self.prompt_len if stage is Stage.PREFILL else 1
        return hidden_state_bytes(
            self.config,
            self.batch_size * self.policy.num_gpu_batches,
            tokens,
        )

    def _hidden_traffic_times(self, stage: Stage) -> Tuple[float, float]:
        """(load, store) per layer when hidden states are offloaded to
        host memory between layers (FlexGen's activation offloading,
        used for batches whose activations outgrow HBM)."""
        if self.policy.hidden_device is not DeviceKind.CPU:
            return 0.0, 0.0
        nbytes = self._hidden_bytes(stage)
        return (
            self.solver.host_to_gpu_time(nbytes),
            self.solver.gpu_to_host_time(nbytes),
        )

    def _logits_writeback_time(self) -> float:
        """GPU -> host copy of the sampled logits after the head layer."""
        nbytes = (
            self.batch_size
            * self.policy.num_gpu_batches
            * self.config.vocab_size
            * 4
        )
        return self.solver.gpu_to_host_time(nbytes)

    # ------------------------------------------------------------------
    # Iteration-level view
    # ------------------------------------------------------------------

    def iteration_layer_times(
        self, stage: Stage, context_len: int
    ) -> Tuple[List[float], List[float]]:
        """One full layer pass's per-layer (transfers, computes).

        The scalar reference walk the vectorized
        :class:`~repro.pricing.LayerCostGrid` is golden-tested against;
        production pricing goes through the grid.
        """
        transfers: List[float] = []
        computes: List[float] = []
        for index, layer in enumerate(self.placement.layers):
            transfers.append(self.layer_transfer_time(index))
            computes.append(self.layer_compute_time(layer, stage, context_len))
        return transfers, computes
