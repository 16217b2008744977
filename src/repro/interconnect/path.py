"""End-to-end transfer-time solver.

Composes a host-memory region, the NUMA topology, the PCIe link, and
(for the storage tier) a DRAM bounce buffer into a single answer:
*time to move N bytes along a named path*.  Every data movement in the
system — the Fig. 3 microbenchmark and all engine transfers — is
costed here, so the characterization and the end-to-end results can
never drift apart.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import RoutingError
from repro.interconnect.pcie import PcieLink
from repro.interconnect.upi import UpiLink
from repro.memory import calibration as cal
from repro.memory.hierarchy import HostMemoryConfig, HostRegion
from repro.memory.technology import Direction


# Bound once: reading a member off an enum class costs several plain
# global reads on CPython 3.11, and every price passes a direction.
_READ = Direction.READ
_WRITE = Direction.WRITE


def _empty_transfer(nbytes: float) -> float:
    """The price of a transfer whose size is not positive: nothing for
    zero or fewer bytes, a located error for NaN."""
    if nbytes <= 0:
        return 0.0
    raise ValueError(f"transfer size must be a number, got {nbytes!r}")


class TransferKind(enum.Enum):
    """The data-movement paths the offloading engine uses."""

    HOST_TO_GPU = "host_to_gpu"
    GPU_TO_HOST = "gpu_to_host"
    DISK_TO_GPU = "disk_to_gpu"
    GPU_TO_DISK = "gpu_to_disk"
    DISK_TO_HOST = "disk_to_host"
    HOST_TO_DISK = "host_to_disk"
    HOST_TO_HOST = "host_to_host"


@dataclass
class TransferPathSolver:
    """Computes transfer times over one host-memory configuration.

    ``pcie`` may be passed as ``None`` (the common "use the platform
    default link" case), so callers holding an ``Optional[PcieLink]``
    can forward it directly instead of building conditional kwargs.
    """

    config: HostMemoryConfig
    pcie: Optional[PcieLink] = None
    upi: UpiLink = field(default_factory=UpiLink)
    #: Resident footprint (bytes) the *host* region's transfers stream
    #: over, for technologies whose bandwidth depends on it (Optane's
    #: AIT decay, Memory Mode's cache hit fraction).  ``None`` falls
    #: back to the working set stored on the technology itself — the
    #: microbenchmark path, where callers mutate the shared config via
    #: :meth:`HostMemoryConfig.set_host_working_set`.  Cost models set
    #: this *per solver instance* instead, so concurrent models pricing
    #: different footprints never alias each other's bandwidths.
    host_working_set_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.pcie is None:
            self.pcie = PcieLink()

    # ------------------------------------------------------------------
    # Single-hop building blocks
    # ------------------------------------------------------------------

    def _memory_rate(
        self,
        region: HostRegion,
        nbytes: float,
        direction: Direction,
        link_cap: Optional[float] = None,
    ) -> float:
        """Rate the region sustains, including a UPI bottleneck if the
        region sits on the socket remote from the GPU.

        The technology applies the region's scale and the link cap
        (:meth:`~repro.memory.technology.MemoryTechnology.read_rate`):
        Memory Mode needs the cap *inside* its hit/miss blend, since a
        PCIe consumer streams cache hits at PCIe rate.

        The per-solver footprint override applies to host-region
        queries only; other regions (the disk tier) keep the
        technology's stored working set.
        """
        technology = region.technology
        working_set = (
            self.host_working_set_bytes
            if region is self.config.host_region
            else None
        )
        if direction is _READ:
            rate = technology.read_rate(
                nbytes, region.read_scale, link_cap, working_set
            )
        else:
            rate = technology.write_rate(
                nbytes, region.write_scale, link_cap, working_set
            )
        if self.config.topology.hops_to_gpu(region.node):
            upi_cap = self.upi.bandwidth_up
            return upi_cap if upi_cap < rate else rate
        return rate

    def host_to_gpu_bandwidth(
        self, nbytes: float, region: Optional[HostRegion] = None
    ) -> float:
        """Achievable host->GPU copy bandwidth (bytes/s)."""
        region = region if region is not None else self.config.host_region
        return self._memory_rate(
            region, nbytes, _READ, self.pcie.h2d_bandwidth
        )

    def gpu_to_host_bandwidth(
        self, nbytes: float, region: Optional[HostRegion] = None
    ) -> float:
        """Achievable GPU->host copy bandwidth (bytes/s)."""
        region = region if region is not None else self.config.host_region
        return self._memory_rate(
            region, nbytes, _WRITE, self.pcie.d2h_bandwidth
        )

    def host_to_gpu_time(
        self, nbytes: float, region: Optional[HostRegion] = None
    ) -> float:
        if not nbytes > 0:
            return _empty_transfer(nbytes)
        pcie = self.pcie
        region = region if region is not None else self.config.host_region
        rate = self._memory_rate(region, nbytes, _READ, pcie.h2d_bandwidth)
        return (
            pcie.setup_latency_s
            + region.technology.read_latency_s
            + nbytes / rate
        )

    def gpu_to_host_time(
        self, nbytes: float, region: Optional[HostRegion] = None
    ) -> float:
        if not nbytes > 0:
            return _empty_transfer(nbytes)
        pcie = self.pcie
        region = region if region is not None else self.config.host_region
        rate = self._memory_rate(region, nbytes, _WRITE, pcie.d2h_bandwidth)
        return (
            pcie.setup_latency_s
            + region.technology.write_latency_s
            + nbytes / rate
        )

    # ------------------------------------------------------------------
    # Storage tier (bounce-buffered)
    # ------------------------------------------------------------------

    def _disk_region(self) -> HostRegion:
        region = self.config.disk_region
        if region is None:
            raise RoutingError(
                f"configuration {self.config.label!r} has no storage tier"
            )
        return region

    def disk_to_gpu_time(self, nbytes: float) -> float:
        """Disk -> (DRAM bounce) -> GPU.

        FlexGen reads storage into a pinned host staging buffer and
        then issues the PCIe copy; chunked double-buffering overlaps
        the two hops only partially
        (:data:`~repro.memory.calibration.BOUNCE_PIPELINE_EFFICIENCY`).
        """
        if not nbytes > 0:
            return _empty_transfer(nbytes)
        disk = self._disk_region()
        disk_time = (
            disk.technology.read_latency_s
            + nbytes / self._memory_rate(disk, nbytes, _READ)
        )
        pcie_time = (
            self.pcie.setup_latency_s + nbytes / self.pcie.h2d_bandwidth
        )
        if self.config.disk_bounce:
            return (disk_time + pcie_time) * cal.BOUNCE_PIPELINE_EFFICIENCY
        return max(disk_time, pcie_time)

    def gpu_to_disk_time(self, nbytes: float) -> float:
        """GPU -> (DRAM bounce) -> disk."""
        if not nbytes > 0:
            return _empty_transfer(nbytes)
        disk = self._disk_region()
        disk_time = (
            disk.technology.write_latency_s
            + nbytes / self._memory_rate(disk, nbytes, _WRITE)
        )
        pcie_time = (
            self.pcie.setup_latency_s + nbytes / self.pcie.d2h_bandwidth
        )
        if self.config.disk_bounce:
            return (disk_time + pcie_time) * cal.BOUNCE_PIPELINE_EFFICIENCY
        return max(disk_time, pcie_time)

    def disk_to_host_time(self, nbytes: float) -> float:
        """Disk -> host memory (no PCIe hop)."""
        if not nbytes > 0:
            return _empty_transfer(nbytes)
        disk = self._disk_region()
        return disk.technology.read_latency_s + nbytes / self._memory_rate(
            disk, nbytes, _READ
        )

    def host_to_disk_time(self, nbytes: float) -> float:
        """Host memory -> disk (no PCIe hop; the write mirror of
        :meth:`disk_to_host_time`, used by KV-cache demotions)."""
        if not nbytes > 0:
            return _empty_transfer(nbytes)
        disk = self._disk_region()
        return disk.technology.write_latency_s + nbytes / self._memory_rate(
            disk, nbytes, _WRITE
        )

    def host_to_host_time(self, nbytes: float) -> float:
        """Host-side staging memcpy (e.g. repacking into pinned buffers)."""
        if not nbytes > 0:
            return _empty_transfer(nbytes)
        return nbytes / cal.CPU_MEMCPY_BW

    # ------------------------------------------------------------------
    # Generic entry point
    # ------------------------------------------------------------------

    def transfer_time(
        self,
        nbytes: float,
        kind: TransferKind,
        region: Optional[HostRegion] = None,
    ) -> float:
        """Time (seconds) to move ``nbytes`` along ``kind``."""
        if kind is TransferKind.HOST_TO_GPU:
            return self.host_to_gpu_time(nbytes, region)
        if kind is TransferKind.GPU_TO_HOST:
            return self.gpu_to_host_time(nbytes, region)
        if kind is TransferKind.DISK_TO_GPU:
            return self.disk_to_gpu_time(nbytes)
        if kind is TransferKind.GPU_TO_DISK:
            return self.gpu_to_disk_time(nbytes)
        if kind is TransferKind.DISK_TO_HOST:
            return self.disk_to_host_time(nbytes)
        if kind is TransferKind.HOST_TO_DISK:
            return self.host_to_disk_time(nbytes)
        if kind is TransferKind.HOST_TO_HOST:
            return self.host_to_host_time(nbytes)
        raise RoutingError(f"unsupported transfer kind {kind!r}")

    def measured_bandwidth(
        self,
        nbytes: float,
        kind: TransferKind,
        region: Optional[HostRegion] = None,
    ) -> float:
        """End-to-end bandwidth (bytes/s) as a microbenchmark reports it."""
        time = self.transfer_time(nbytes, kind, region)
        if time <= 0:
            raise RoutingError("cannot report bandwidth for an empty transfer")
        return nbytes / time
