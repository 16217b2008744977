"""NUMA topology of the dual-socket evaluation platform (Table I).

The paper's Figure 3 distinguishes the two sockets ("NUMA node 0" and
"NUMA node 1"): the GPU hangs off PCIe root ports attached to node 0,
and Optane write bandwidth differs visibly between the nodes.  The
topology object records which node owns the GPU and the cost of
crossing the inter-socket (UPI) link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import ConfigurationError
from repro.memory import calibration as cal


@dataclass(frozen=True)
class NumaNode:
    """One socket of the dual-socket host."""

    node_id: int

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ConfigurationError("NUMA node ids must be >= 0")

    def __str__(self) -> str:
        return f"node{self.node_id}"


@dataclass(frozen=True)
class NumaTopology:
    """Sockets plus the inter-socket interconnect.

    Attributes:
        nodes: The sockets, in id order.
        gpu_node: Id of the socket whose PCIe root ports host the GPU.
        upi_bandwidth: Aggregate inter-socket link bandwidth (bytes/s).
        upi_latency_s: One-way inter-socket hop latency.
    """

    nodes: Tuple[NumaNode, ...] = field(
        default=(NumaNode(0), NumaNode(1))
    )
    gpu_node: int = 0
    upi_bandwidth: float = cal.UPI_BANDWIDTH
    upi_latency_s: float = cal.UPI_LATENCY

    def __post_init__(self) -> None:
        ids = [node.node_id for node in self.nodes]
        if ids != sorted(set(ids)):
            raise ConfigurationError("NUMA node ids must be unique and sorted")
        if self.gpu_node not in ids:
            raise ConfigurationError(
                f"gpu_node {self.gpu_node} is not one of the nodes {ids}"
            )
        if self.upi_bandwidth <= 0:
            raise ConfigurationError("UPI bandwidth must be positive")
        # Hops per node id, fixed with the topology.  A plain attribute,
        # not a field: ``eq``, ``repr`` and ``hash`` see only the above.
        object.__setattr__(
            self,
            "_hops",
            {node_id: 0 if node_id == self.gpu_node else 1 for node_id in ids},
        )

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def hops_to_gpu(self, node_id: int) -> int:
        """Inter-socket hops between a memory node and the GPU's root port."""
        try:
            return self._hops[node_id]
        except KeyError:
            raise ConfigurationError(f"unknown NUMA node {node_id}") from None


#: The paper's platform: two sockets, GPU on node 0.
DEFAULT_TOPOLOGY = NumaTopology()
