"""Intel Optane DCPMM ("NVDRAM") model.

Models the three behaviours the paper leans on (Section II-C, IV-A):

* **Read/write asymmetry** — sequential reads reach ~20 GB/s while
  streaming writes top out at 3.26 GB/s (Fig. 3b), consistent with the
  Izraelevitz et al. characterization the paper cites.
* **AIT-buffer / wear-leveling decay** — single large transfers decay
  from 19.91 GB/s at 4 GB to 15.52 GB/s at 32 GB (Fig. 3a) because the
  Address Indirection Table buffer stops covering the footprint and
  wear-leveling scatters physically-consecutive data.
* **Footprint decay for chunked streaming** — repeatedly streaming a
  multi-hundred-GB model through layer-sized chunks also defeats the
  AIT, but more mildly than one huge DMA; the paper's OPT-30B (+33%
  per-layer time, ~50 GB resident) and OPT-175B (+~49% transfer time,
  ~300 GB resident) measurements pin the two ends of the decay.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.memory import calibration as cal
from repro.memory.technology import BandwidthCurve, MemoryTechnology
from repro.units import GB


#: Footprint decay calibration: 1.0 up to ``_DECAY_START``, ``_DECAY_LOW``
#: at ``_DECAY_END``, never below ``_DECAY_FLOOR``.
_DECAY_START = 16 * GB
_DECAY_END = 300 * GB
_DECAY_LOW = 0.84
_DECAY_FLOOR = 0.82
#: The decay's fixed logs, so a query takes only its footprint's own.
_LOG_DECAY_SPAN = math.log(_DECAY_END / _DECAY_START)
_LOG_2 = math.log(2)


def _footprint_decay(working_set_bytes: float) -> float:
    """Mild AIT decay for layer-granular streaming over a large footprint.

    1.0 up to 16 GB; log-interpolates down to 0.84 at 300 GB (the
    OPT-175B resident size) and floors at 0.82.  The 16 GB onset is
    calibrated against the paper's OPT-30B result (+33% TTFT on
    NVDRAM with a ~30 GB resident set).
    """
    if working_set_bytes <= _DECAY_START:
        return 1.0
    if working_set_bytes >= _DECAY_END:
        return max(
            _DECAY_FLOOR,
            _DECAY_LOW
            - 0.02 * (math.log(working_set_bytes / _DECAY_END) / _LOG_2),
        )
    frac = math.log(working_set_bytes / _DECAY_START) / _LOG_DECAY_SPAN
    return 1.0 + frac * (_DECAY_LOW - 1.0)


class OptaneTechnology(MemoryTechnology):
    """Optane DCPMM exposed as a flat memory-only NUMA node (Memkind)."""

    def __init__(
        self,
        capacity_bytes: int = cal.OPTANE_CAPACITY_PER_SOCKET,
        name: str = "Optane DCPMM (200 series)",
    ) -> None:
        read_curve = BandwidthCurve.from_points(
            [
                (256e6, cal.OPTANE_READ_PEAK),
                (4 * GB, cal.OPTANE_READ_PEAK),
                (8 * GB, 18.4 * GB),
                (16 * GB, 17.0 * GB),
                (32 * GB, cal.OPTANE_READ_AIT_MISS),
            ]
        )
        write_curve = BandwidthCurve.from_points(
            [
                (256e6, cal.OPTANE_WRITE_SMALL),
                (1 * GB, cal.OPTANE_WRITE_PEAK),
                (4 * GB, 3.1 * GB),
                (32 * GB, cal.OPTANE_WRITE_LARGE),
            ]
        )
        super().__init__(
            name=name,
            capacity_bytes=int(capacity_bytes),
            read_curve=read_curve,
            write_curve=write_curve,
            read_latency_s=cal.OPTANE_READ_LATENCY,
            write_latency_s=cal.OPTANE_WRITE_LATENCY,
        )

    def read_bandwidth(
        self, nbytes: float, working_set_bytes: Optional[int] = None
    ) -> float:
        base = self.read_curve.at(nbytes)
        working_set = (
            self.working_set_bytes
            if working_set_bytes is None
            else working_set_bytes
        )
        if working_set > nbytes:
            base *= _footprint_decay(working_set)
        return base
