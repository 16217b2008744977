"""GPU device and roofline compute model (Table I: A100-PCIe 40 GB).

The paper's evaluation never needs cycle-level GPU detail: every
result is a function of (a) how long kernels take and (b) how long
weight transfers take.  Kernels are costed with a two-term roofline —
``max(flops / peak_flops, bytes / hbm_bandwidth)`` plus launch
overhead — and, when weights arrive group-wise quantized, an
additional dequantization term proportional to the compressed bytes
(FlexGen decompresses on the fly, which is why the paper sees compute
inflate 2.5x-13x under compression).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.device import Device, DeviceKind
from repro.errors import ConfigurationError
from repro.memory import calibration as cal
from repro.units import MIB


@dataclass(frozen=True)
class GpuSpec:
    """Static description of a GPU."""

    name: str
    #: Total on-board memory (nvidia-smi reports 40536 MiB for A100-40GB).
    hbm_bytes: int
    hbm_bandwidth: float
    fp16_flops: float
    #: Memory reserved by the CUDA context/driver, unavailable to tensors.
    context_reserve_bytes: int = 600 * MIB
    #: Fraction of the remainder lost to fragmentation/allocator slack.
    fragmentation_reserve: float = 0.05

    def __post_init__(self) -> None:
        if self.hbm_bytes <= 0 or self.hbm_bandwidth <= 0 or self.fp16_flops <= 0:
            raise ConfigurationError("GPU spec values must be positive")
        if not (0 <= self.fragmentation_reserve < 1):
            raise ConfigurationError("fragmentation reserve must be in [0, 1)")

    @property
    def usable_bytes(self) -> int:
        """Memory actually available for weights/KV/workspace."""
        after_context = self.hbm_bytes - self.context_reserve_bytes
        return int(after_context * (1.0 - self.fragmentation_reserve))


#: The evaluation platform's GPU.
A100_SPEC = GpuSpec(
    name="NVIDIA A100-PCIe-40GB",
    hbm_bytes=40536 * MIB,
    hbm_bandwidth=cal.GPU_HBM_BANDWIDTH,
    fp16_flops=cal.GPU_FP16_TFLOPS,
)


@dataclass(frozen=True)
class GpuComputeModel:
    """Roofline kernel-time model for one GPU."""

    spec: GpuSpec = A100_SPEC
    gemm_efficiency: float = cal.GPU_GEMM_EFFICIENCY
    hbm_efficiency: float = cal.GPU_HBM_EFFICIENCY
    launch_overhead_s: float = cal.GPU_KERNEL_LAUNCH_OVERHEAD
    kernels_per_layer: int = cal.GPU_KERNELS_PER_LAYER
    dequant_throughput: float = cal.GPU_DEQUANT_THROUGHPUT

    @property
    def effective_flops(self) -> float:
        return self.spec.fp16_flops * self.gemm_efficiency

    @property
    def effective_hbm_bandwidth(self) -> float:
        return self.spec.hbm_bandwidth * self.hbm_efficiency

    def kernel_time(self, flops: float, hbm_bytes: float) -> float:
        """Roofline time for one layer's worth of kernels."""
        if flops < 0 or hbm_bytes < 0:
            raise ConfigurationError("flops and bytes must be >= 0")
        return self.roofline_time(flops, hbm_bytes)

    def roofline_time(self, flops, hbm_bytes, maximum=max):
        """:meth:`kernel_time` without the argument check.

        Plain arithmetic: given numpy arrays and ``maximum=np.maximum``
        it prices a whole cost grid elementwise, float-equal to the
        scalar call.
        """
        roofline = maximum(
            flops / self.effective_flops,
            hbm_bytes / self.effective_hbm_bandwidth,
        )
        return roofline + self.kernels_per_layer * self.launch_overhead_s

    def layer_time(self, work, passes: int, dequant_bytes, maximum=max):
        """One layer's GPU seconds: ``passes`` kernel passes over
        ``work`` (a :class:`~repro.models.flops.LayerWork`) plus one
        dequantization of ``dequant_bytes`` compressed bytes.
        Unchecked, like :meth:`roofline_time`."""
        kernels = self.roofline_time(work.flops, work.hbm_bytes, maximum)
        return passes * kernels + dequant_bytes / self.dequant_throughput

    def dequant_time(self, compressed_bytes: float) -> float:
        """On-the-fly group-wise dequantization cost."""
        if compressed_bytes < 0:
            raise ConfigurationError("compressed bytes must be >= 0")
        return compressed_bytes / self.dequant_throughput


class GpuDevice(Device):
    """An allocatable GPU with its compute model attached."""

    def __init__(
        self,
        spec: GpuSpec = A100_SPEC,
        compute: GpuComputeModel = None,
    ) -> None:
        super().__init__(
            name=spec.name, kind=DeviceKind.GPU, capacity_bytes=spec.usable_bytes
        )
        self.spec = spec
        self.compute = compute if compute is not None else GpuComputeModel(spec)
