"""Per-call transfer pricing with every constant re-derived: the oracle.

It lives with the tests because no runtime path executes through it.
The runtime model fixes what cannot change when its frozen owners are
built (the PCIe link's rates, the NUMA hop table, each bandwidth
curve's breakpoint logs, the Optane decay's logs) and prices a
transfer in one pass of arithmetic.  This module keeps the
composition as it was before that: every call re-validates the link,
rebuilds the node list, takes the log of every breakpoint and walks
the technology -> region -> solver layers one method at a time.  The
tests check that both return the same floats, ``==``.

It reads only the model's public state (curve points, scale factors,
stored working sets, link parameters), never the derived constants,
so it cannot inherit a mistake in them.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import ConfigurationError, RoutingError
from repro.interconnect.path import TransferKind
from repro.interconnect.pcie import PCIE_GEN_GT_PER_LANE, PcieLink
from repro.interconnect.upi import UpiLink
from repro.memory import calibration as cal
from repro.memory.hierarchy import HostMemoryConfig, HostRegion
from repro.memory.memory_mode import MemoryModeTechnology
from repro.memory.optane import OptaneTechnology
from repro.memory.technology import BandwidthCurve, Direction
from repro.units import GB

_ENCODING = {1: 0.8, 2: 0.8, 3: 128 / 130, 4: 128 / 130, 5: 128 / 130, 6: 1.0}


def curve_at(curve: BandwidthCurve, nbytes: float) -> float:
    if nbytes <= 0:
        raise ValueError("buffer size must be positive")
    points = curve.points
    if nbytes <= points[0][0]:
        return points[0][1]
    if nbytes >= points[-1][0]:
        return points[-1][1]
    for (s0, r0), (s1, r1) in zip(points, points[1:]):
        if s0 <= nbytes <= s1:
            frac = (math.log(nbytes) - math.log(s0)) / (
                math.log(s1) - math.log(s0)
            )
            return r0 + frac * (r1 - r0)
    raise AssertionError("unreachable: breakpoints are sorted")


def _theoretical(link: PcieLink) -> float:
    try:
        gt = PCIE_GEN_GT_PER_LANE[link.generation]
    except KeyError:
        raise ConfigurationError(
            f"unknown PCIe generation {link.generation}"
        ) from None
    if link.lanes not in (1, 2, 4, 8, 16):
        raise ConfigurationError(f"invalid PCIe lane count {link.lanes}")
    return gt * 1e9 / 8.0 * _ENCODING[link.generation] * link.lanes


def h2d_bandwidth(link: PcieLink) -> float:
    return _theoretical(link) * link.h2d_efficiency


def d2h_bandwidth(link: PcieLink) -> float:
    return _theoretical(link) * link.d2h_efficiency


def hops_to_gpu(config: HostMemoryConfig, node_id: int) -> int:
    topology = config.topology
    if node_id not in [node.node_id for node in topology.nodes]:
        raise ConfigurationError(f"unknown NUMA node {node_id}")
    return 0 if node_id == topology.gpu_node else 1


def footprint_decay(working_set_bytes: float) -> float:
    start = 16 * GB
    end = 300 * GB
    low = 0.84
    floor = 0.82
    if working_set_bytes <= start:
        return 1.0
    if working_set_bytes >= end:
        return max(
            floor,
            low - 0.02 * (math.log(working_set_bytes / end) / math.log(2)),
        )
    frac = math.log(working_set_bytes / start) / math.log(end / start)
    return 1.0 + frac * (low - 1.0)


def _read_bandwidth(technology, nbytes, working_set_bytes=None) -> float:
    """A flat-memory technology's read bandwidth (not Memory Mode)."""
    base = curve_at(technology.read_curve, nbytes)
    if isinstance(technology, OptaneTechnology):
        working_set = (
            technology.working_set_bytes
            if working_set_bytes is None
            else working_set_bytes
        )
        if working_set > nbytes:
            base *= footprint_decay(working_set)
    return base


def _write_bandwidth(technology, nbytes) -> float:
    return curve_at(technology.write_curve, nbytes)


def _mm_mixed(mm, nbytes, hit_bw, miss_bw, link_cap, working_set_bytes):
    if link_cap is not None:
        hit_bw = min(hit_bw, link_cap)
        miss_bw = min(miss_bw, link_cap)
    working_set = (
        mm.working_set_bytes if working_set_bytes is None else working_set_bytes
    )
    footprint = max(float(nbytes), float(working_set))
    hit = 1.0 if footprint <= mm.cache_bytes else mm.cache_bytes / footprint
    miss = 1.0 - hit
    if miss <= 0.0:
        return hit_bw
    miss_bw = miss_bw / (1.0 + cal.MEMORY_MODE_MISS_OVERHEAD)
    return 1.0 / (hit / hit_bw + miss / miss_bw)


def _mm_optane_working_set(mm, working_set_bytes) -> Optional[int]:
    if working_set_bytes is None:
        return None
    uncached = max(0, working_set_bytes - mm.cache_bytes)
    return min(uncached, mm.optane.capacity_bytes)


def _mm_bandwidth(mm, nbytes, direction, link_cap, working_set_bytes):
    if direction is Direction.READ:
        hit_bw = _read_bandwidth(mm.dram, nbytes)
        miss_bw = _read_bandwidth(
            mm.optane,
            nbytes,
            _mm_optane_working_set(mm, working_set_bytes),
        )
    else:
        hit_bw = _write_bandwidth(mm.dram, nbytes)
        miss_bw = _write_bandwidth(mm.optane, nbytes)
    return _mm_mixed(mm, nbytes, hit_bw, miss_bw, link_cap, working_set_bytes)


def _latency(region: HostRegion, direction: Direction) -> float:
    if direction is Direction.READ:
        return region.technology.read_latency_s
    return region.technology.write_latency_s


class ReferenceSolver:
    """``TransferPathSolver``'s answers, composed call by call."""

    def __init__(
        self,
        config: HostMemoryConfig,
        pcie: Optional[PcieLink] = None,
        upi: Optional[UpiLink] = None,
        host_working_set_bytes: Optional[int] = None,
    ) -> None:
        self.config = config
        self.pcie = pcie if pcie is not None else PcieLink()
        self.upi = upi if upi is not None else UpiLink()
        self.host_working_set_bytes = host_working_set_bytes

    def _host_working_set(self, region: HostRegion) -> Optional[int]:
        if self.host_working_set_bytes is None:
            return None
        if region is self.config.host_region:
            return self.host_working_set_bytes
        return None

    def _memory_rate(self, region, nbytes, direction, link_cap=None):
        technology = region.technology
        working_set = self._host_working_set(region)
        scale = (
            region.read_scale
            if direction is Direction.READ
            else region.write_scale
        )
        if isinstance(technology, MemoryModeTechnology):
            rate = _mm_bandwidth(
                technology, nbytes, direction, link_cap, working_set
            )
            rate *= scale
        else:
            if direction is Direction.READ:
                base = _read_bandwidth(technology, nbytes, working_set)
            else:
                base = _write_bandwidth(technology, nbytes)
            rate = base * scale
            if link_cap is not None:
                rate = min(rate, link_cap)
        if hops_to_gpu(self.config, region.node) > 0:
            rate = min(rate, self.upi.bandwidth_up)
        return rate

    def host_to_gpu_bandwidth(self, nbytes, region=None):
        region = region if region is not None else self.config.host_region
        return self._memory_rate(
            region, nbytes, Direction.READ, link_cap=h2d_bandwidth(self.pcie)
        )

    def gpu_to_host_bandwidth(self, nbytes, region=None):
        region = region if region is not None else self.config.host_region
        return self._memory_rate(
            region, nbytes, Direction.WRITE, link_cap=d2h_bandwidth(self.pcie)
        )

    def host_to_gpu_time(self, nbytes, region=None):
        if nbytes <= 0:
            return 0.0
        region = region if region is not None else self.config.host_region
        rate = self.host_to_gpu_bandwidth(nbytes, region)
        return (
            self.pcie.setup_latency_s
            + _latency(region, Direction.READ)
            + nbytes / rate
        )

    def gpu_to_host_time(self, nbytes, region=None):
        if nbytes <= 0:
            return 0.0
        region = region if region is not None else self.config.host_region
        rate = self.gpu_to_host_bandwidth(nbytes, region)
        return (
            self.pcie.setup_latency_s
            + _latency(region, Direction.WRITE)
            + nbytes / rate
        )

    def _disk_region(self) -> HostRegion:
        region = self.config.disk_region
        if region is None:
            raise RoutingError(
                f"configuration {self.config.label!r} has no storage tier"
            )
        return region

    def disk_to_gpu_time(self, nbytes):
        if nbytes <= 0:
            return 0.0
        disk = self._disk_region()
        disk_time = _latency(disk, Direction.READ) + nbytes / self._memory_rate(
            disk, nbytes, Direction.READ
        )
        pcie_time = self.pcie.setup_latency_s + nbytes / h2d_bandwidth(
            self.pcie
        )
        if self.config.disk_bounce:
            return (disk_time + pcie_time) * cal.BOUNCE_PIPELINE_EFFICIENCY
        return max(disk_time, pcie_time)

    def gpu_to_disk_time(self, nbytes):
        if nbytes <= 0:
            return 0.0
        disk = self._disk_region()
        disk_time = _latency(
            disk, Direction.WRITE
        ) + nbytes / self._memory_rate(disk, nbytes, Direction.WRITE)
        pcie_time = self.pcie.setup_latency_s + nbytes / d2h_bandwidth(
            self.pcie
        )
        if self.config.disk_bounce:
            return (disk_time + pcie_time) * cal.BOUNCE_PIPELINE_EFFICIENCY
        return max(disk_time, pcie_time)

    def disk_to_host_time(self, nbytes):
        if nbytes <= 0:
            return 0.0
        disk = self._disk_region()
        return _latency(disk, Direction.READ) + nbytes / self._memory_rate(
            disk, nbytes, Direction.READ
        )

    def host_to_disk_time(self, nbytes):
        if nbytes <= 0:
            return 0.0
        disk = self._disk_region()
        return _latency(disk, Direction.WRITE) + nbytes / self._memory_rate(
            disk, nbytes, Direction.WRITE
        )

    def host_to_host_time(self, nbytes):
        if nbytes <= 0:
            return 0.0
        return nbytes / cal.CPU_MEMCPY_BW

    def transfer_time(self, nbytes, kind, region=None):
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

    def measured_bandwidth(self, nbytes, kind, region=None):
        time = self.transfer_time(nbytes, kind, region)
        if time <= 0:
            raise RoutingError("cannot report bandwidth for an empty transfer")
        return nbytes / time
