"""Assembled host-memory configurations (the labels of Table II).

A :class:`HostMemoryConfig` bundles, for one experimental
configuration:

* per-NUMA-node *regions* (technology + node + empirical scale
  factors) used by the Fig. 3 microbenchmark, and
* the *host* region where CPU-tier weights/KV live plus an optional
  *disk* region, used by the offloading engine.

The per-node write-scale factors encode the paper's Fig. 3b
measurements verbatim: Optane writes are slower on the GPU-side
socket (node 0), and Memory Mode on node 0 cannot reach DRAM write
bandwidth while MM on node 1 can.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.memory import calibration as cal
from repro.memory.cxl import CXL_ASIC, CXL_FPGA, CxlDeviceSpec, CxlMemoryTechnology
from repro.memory.dram import DramTechnology
from repro.memory.fsdax import FsdaxTechnology
from repro.memory.memory_mode import MemoryModeTechnology
from repro.memory.numa import DEFAULT_TOPOLOGY, NumaTopology
from repro.memory.optane import OptaneTechnology
from repro.memory.ssd import SsdTechnology
from repro.memory.technology import Direction, MemoryTechnology
from repro.units import GIB


@dataclass
class HostRegion:
    """A memory technology instance pinned to one NUMA node.

    Scale factors fold in node-specific effects measured in Fig. 3
    that the raw technology curves do not capture (PCIe root-port
    contention, remote write penalties).
    """

    name: str
    technology: MemoryTechnology
    node: int
    read_scale: float = 1.0
    write_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.read_scale <= 0 or self.write_scale <= 0:
            raise ConfigurationError(
                f"region {self.name}: scale factors must be positive"
            )

    def bandwidth(
        self,
        nbytes: float,
        direction: Direction,
        working_set_bytes: Optional[int] = None,
    ) -> float:
        """The technology's bandwidth times this region's scale."""
        if direction is Direction.READ:
            return self.technology.read_rate(
                nbytes, self.read_scale, None, working_set_bytes
            )
        return self.technology.write_rate(
            nbytes, self.write_scale, None, working_set_bytes
        )

    def latency(self, direction: Direction) -> float:
        return self.technology.latency(direction)

    @property
    def capacity_bytes(self) -> int:
        return self.technology.capacity_bytes


@dataclass
class HostMemoryConfig:
    """One named host-memory configuration (a row label of Table II)."""

    label: str
    description: str
    regions: Dict[str, HostRegion]
    host_region_name: str
    disk_region_name: Optional[str] = None
    #: Whether disk-tier transfers to/from the GPU must stage through a
    #: DRAM bounce buffer (true for both NVMe SSD and FSDAX).
    disk_bounce: bool = False
    topology: NumaTopology = field(default_factory=lambda: DEFAULT_TOPOLOGY)

    def __post_init__(self) -> None:
        if self.host_region_name not in self.regions:
            raise ConfigurationError(
                f"{self.label}: host region {self.host_region_name!r} "
                "is not among the configured regions"
            )
        if (
            self.disk_region_name is not None
            and self.disk_region_name not in self.regions
        ):
            raise ConfigurationError(
                f"{self.label}: disk region {self.disk_region_name!r} "
                "is not among the configured regions"
            )

    @property
    def host_region(self) -> HostRegion:
        return self.regions[self.host_region_name]

    @property
    def disk_region(self) -> Optional[HostRegion]:
        if self.disk_region_name is None:
            return None
        return self.regions[self.disk_region_name]

    @property
    def has_disk(self) -> bool:
        return self.disk_region_name is not None

    def region(self, name: str) -> HostRegion:
        try:
            return self.regions[name]
        except KeyError:
            raise ConfigurationError(
                f"{self.label}: no region named {name!r}; "
                f"have {sorted(self.regions)}"
            ) from None

    def set_host_working_set(self, nbytes: int) -> None:
        """Tell the host technology how much data streams over it."""
        self.host_region.technology.set_working_set(
            min(nbytes, self.host_region.capacity_bytes)
        )

    def microbench_regions(self) -> Tuple[HostRegion, ...]:
        """Per-node regions in a stable order, for the Fig. 3 sweep.

        Excludes the engine-facing aggregate "host"/"disk" regions.
        """
        aggregate = {self.host_region_name, self.disk_region_name}
        return tuple(
            self.regions[name]
            for name in sorted(self.regions)
            if name not in aggregate
        )


def _dram_regions() -> Dict[str, HostRegion]:
    return {
        f"dram{node}": HostRegion(
            name=f"DRAM-{node}",
            technology=DramTechnology(),
            node=node,
        )
        for node in (0, 1)
    }


def _nvdram_regions() -> Dict[str, HostRegion]:
    regions = {}
    for node in (0, 1):
        write_scale = cal.OPTANE_WRITE_NODE0_SCALE if node == 0 else 1.0
        read_scale = 1.0 if node == 0 else cal.OPTANE_READ_REMOTE_SCALE
        regions[f"nvdram{node}"] = HostRegion(
            name=f"NVDRAM-{node}",
            technology=OptaneTechnology(),
            node=node,
            read_scale=read_scale,
            write_scale=write_scale,
        )
    return regions


def _memory_mode_regions() -> Dict[str, HostRegion]:
    regions = {}
    for node in (0, 1):
        write_scale = (
            cal.MEMORY_MODE_REMOTE_WRITE_SCALE if node == 0 else 1.0
        )
        regions[f"mm{node}"] = HostRegion(
            name=f"MM-{node}",
            technology=MemoryModeTechnology(),
            node=node,
            write_scale=write_scale,
        )
    return regions


def _system_dram(capacity_bytes: int = 256 * GIB) -> HostRegion:
    """Both sockets' DRAM treated as one pool for the engine's host tier."""
    return HostRegion(
        name="DRAM",
        technology=DramTechnology(capacity_bytes=capacity_bytes),
        node=0,
    )


def _system_optane(capacity_bytes: int = 1024 * GIB) -> HostRegion:
    return HostRegion(
        name="NVDRAM",
        technology=OptaneTechnology(capacity_bytes=capacity_bytes),
        node=0,
    )


def _system_memory_mode() -> HostRegion:
    tech = MemoryModeTechnology(
        dram=DramTechnology(capacity_bytes=256 * GIB),
        optane=OptaneTechnology(capacity_bytes=1024 * GIB),
    )
    return HostRegion(name="MemoryMode", technology=tech, node=0)


def host_config(label: str) -> HostMemoryConfig:
    """Build a named host configuration.

    Supported labels (Table II plus the Table III projections):
    ``DRAM``, ``NVDRAM``, ``MemoryMode``, ``SSD``, ``FSDAX``,
    ``CXL-FPGA``, ``CXL-ASIC``.
    """
    if label == "DRAM":
        regions = _dram_regions()
        regions["host"] = _system_dram()
        return HostMemoryConfig(
            label=label,
            description="All host memory is DDR4 DRAM",
            regions=regions,
            host_region_name="host",
        )
    if label == "NVDRAM":
        regions = _nvdram_regions()
        regions["host"] = _system_optane()
        return HostMemoryConfig(
            label=label,
            description=(
                "Optane exposed as flat memory-only NUMA nodes (Memkind); "
                "application data lives on Optane"
            ),
            regions=regions,
            host_region_name="host",
        )
    if label == "MemoryMode":
        regions = _memory_mode_regions()
        regions["host"] = _system_memory_mode()
        return HostMemoryConfig(
            label=label,
            description="Optane main memory with DRAM as direct-mapped cache",
            regions=regions,
            host_region_name="host",
        )
    if label == "SSD":
        regions = _dram_regions()
        regions["host"] = _system_dram()
        regions["disk"] = HostRegion(
            name="SSD", technology=SsdTechnology(), node=0
        )
        return HostMemoryConfig(
            label=label,
            description="NVMe SSD storage tier below DRAM host memory",
            regions=regions,
            host_region_name="host",
            disk_region_name="disk",
            disk_bounce=True,
        )
    if label == "FSDAX":
        regions = _dram_regions()
        regions["host"] = _system_dram()
        regions["disk"] = HostRegion(
            name="FSDAX",
            technology=FsdaxTechnology(capacity_bytes=1024 * GIB),
            node=0,
        )
        return HostMemoryConfig(
            label=label,
            description=(
                "Optane as ext4-DAX storage tier below DRAM host memory "
                "(bounce buffer on the GPU path)"
            ),
            regions=regions,
            host_region_name="host",
            disk_region_name="disk",
            disk_bounce=True,
        )
    if label in ("CXL-FPGA", "CXL-ASIC"):
        spec: CxlDeviceSpec = CXL_FPGA if label == "CXL-FPGA" else CXL_ASIC
        regions = {
            "host": HostRegion(
                name=spec.name,
                technology=CxlMemoryTechnology(spec),
                node=0,
            )
        }
        return HostMemoryConfig(
            label=label,
            description=f"Host memory behind a CXL Type-3 expander: {spec}",
            regions=regions,
            host_region_name="host",
        )
    raise ConfigurationError(
        f"unknown host memory configuration {label!r}; "
        f"choose one of {sorted(HOST_CONFIG_LABELS)}"
    )


#: All labels :func:`host_config` accepts.
HOST_CONFIG_LABELS = (
    "DRAM",
    "NVDRAM",
    "MemoryMode",
    "SSD",
    "FSDAX",
    "CXL-FPGA",
    "CXL-ASIC",
)
