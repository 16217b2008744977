"""PCI Express link model.

The platform pairs the A100 with 16 PCIe Gen 4 lanes (Table I:
32.0 GB/s theoretical).  Achievable DMA rates are lower and slightly
direction-dependent; the defaults reproduce the paper's Fig. 3 DRAM
plateaus (~24.9 GB/s host-to-GPU, ~27.2 GB/s GPU-to-host, the latter
implied by NVDRAM writes being "88% lower ... maxing out at
3.26 GB/s").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.memory import calibration as cal
from repro.units import GB

#: Per-lane raw rate in GT/s by PCIe generation.
PCIE_GEN_GT_PER_LANE = {1: 2.5, 2: 5.0, 3: 8.0, 4: 16.0, 5: 32.0, 6: 64.0}

#: Encoding efficiency by generation (8b/10b for gen1/2, 128b/130b after).
_ENCODING = {1: 0.8, 2: 0.8, 3: 128 / 130, 4: 128 / 130, 5: 128 / 130, 6: 1.0}


def theoretical_bandwidth(generation: int, lanes: int) -> float:
    """Raw payload bandwidth (bytes/s) of a PCIe link."""
    try:
        gt = PCIE_GEN_GT_PER_LANE[generation]
    except KeyError:
        raise ConfigurationError(
            f"unknown PCIe generation {generation}"
        ) from None
    if lanes not in (1, 2, 4, 8, 16):
        raise ConfigurationError(f"invalid PCIe lane count {lanes}")
    return gt * 1e9 / 8.0 * _ENCODING[generation] * lanes


@dataclass(frozen=True)
class PcieLink:
    """A host/GPU PCIe connection with direction-specific efficiency.

    Derived, fixed at construction: ``theoretical`` (raw payload
    bytes/s) and the achievable ``h2d_bandwidth`` / ``d2h_bandwidth``
    (bytes/s).
    """

    generation: int = 4
    lanes: int = 16
    #: Host-to-device DMA efficiency vs. theoretical.
    h2d_efficiency: float = 0.79
    #: Device-to-host DMA efficiency vs. theoretical.
    d2h_efficiency: float = 0.86
    setup_latency_s: float = cal.PCIE_SETUP_LATENCY

    def __post_init__(self) -> None:
        if not (0 < self.h2d_efficiency <= 1 and 0 < self.d2h_efficiency <= 1):
            raise ConfigurationError("PCIe efficiencies must be in (0, 1]")
        # The link's rates are fixed, so they are computed (and the
        # generation and lane count checked) once, here.  Plain
        # attributes, not fields: ``eq``, ``repr``, ``hash`` and
        # ``replace`` see only the parameters above.
        theoretical = theoretical_bandwidth(self.generation, self.lanes)
        object.__setattr__(self, "theoretical", theoretical)
        object.__setattr__(
            self, "h2d_bandwidth", theoretical * self.h2d_efficiency
        )
        object.__setattr__(
            self, "d2h_bandwidth", theoretical * self.d2h_efficiency
        )


#: The evaluation platform's link (Table I).
A100_PCIE = PcieLink(generation=4, lanes=16)
