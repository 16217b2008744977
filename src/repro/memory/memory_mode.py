"""Optane Memory Mode: DRAM as a direct-mapped cache in front of Optane.

In Memory Mode the platform exposes only the Optane capacity; all of
DRAM becomes a hardware-managed, direct-mapped, line-granular cache
(Section II-C).  The performance consequence the paper measures:

* While the resident working set fits in the DRAM cache, bandwidth is
  indistinguishable from DRAM (Fig. 3: the MM lines overlap DRAM).
* Once the working set outgrows the cache (OPT-175B's 324 GiB weights
  vs. a 256 GiB cache), a streaming pass hits in DRAM only for the
  cached fraction and pays Optane plus a fill penalty for the rest —
  MemoryMode lands between DRAM and NVDRAM (Fig. 4/5).

We model a streaming pass over a working set ``W`` with cache size
``C`` as a bandwidth mix with hit fraction ``min(1, C/W)`` (what a
direct-mapped cache retains of a circularly-streamed working set) and
a miss path at Optane bandwidth degraded by the cache-fill overhead.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.memory import calibration as cal
from repro.memory.dram import DramTechnology
from repro.memory.optane import OptaneTechnology
from repro.memory.technology import MemoryTechnology


class MemoryModeTechnology(MemoryTechnology):
    """Optane in Memory Mode with a DRAM direct-mapped cache."""

    def __init__(
        self,
        dram: DramTechnology = None,
        optane: OptaneTechnology = None,
        name: str = "Optane Memory Mode",
    ) -> None:
        self.dram = dram if dram is not None else DramTechnology()
        self.optane = optane if optane is not None else OptaneTechnology()
        if self.dram.capacity_bytes >= self.optane.capacity_bytes:
            raise ConfigurationError(
                "Memory Mode requires the DRAM cache to be smaller than "
                "the Optane capacity it fronts"
            )
        super().__init__(
            name=name,
            # Only the Optane capacity is visible in Memory Mode.
            capacity_bytes=self.optane.capacity_bytes,
            read_curve=self.dram.read_curve,
            write_curve=self.dram.write_curve,
            read_latency_s=self.dram.read_latency_s,
            write_latency_s=self.dram.write_latency_s,
        )

    @property
    def cache_bytes(self) -> int:
        return self.dram.capacity_bytes

    def set_working_set(self, nbytes: int) -> None:
        super().set_working_set(nbytes)
        # Misses stream from the Optane media, whose own AIT decay
        # depends on the uncached footprint.
        uncached = max(0, nbytes - self.cache_bytes)
        self.optane.set_working_set(min(uncached, self.optane.capacity_bytes))

    def _working_set(self, working_set_bytes: Optional[int]) -> int:
        """The footprint one query prices against (override or stored)."""
        if working_set_bytes is None:
            return self.working_set_bytes
        return working_set_bytes

    def uncached_working_set(
        self, working_set_bytes: Optional[int] = None
    ) -> int:
        """Bytes of the working set that overflow the DRAM cache —
        the footprint the Optane miss path streams over."""
        uncached = max(0, self._working_set(working_set_bytes) - self.cache_bytes)
        return min(uncached, self.optane.capacity_bytes)

    def hit_fraction(
        self, nbytes: float, working_set_bytes: Optional[int] = None
    ) -> float:
        """Fraction of a streaming access that hits the DRAM cache."""
        footprint = max(
            float(nbytes), float(self._working_set(working_set_bytes))
        )
        if footprint <= self.cache_bytes:
            return 1.0
        return self.cache_bytes / footprint

    def _mixed_bandwidth(
        self,
        nbytes: float,
        hit_bw: float,
        miss_bw: float,
        link_cap: float = None,
        working_set_bytes: Optional[int] = None,
    ) -> float:
        """Harmonic hit/miss blend.

        ``link_cap`` matters when the consumer sits behind a slower
        link (PCIe): cache *hits* stream at the link rate, so blending
        against raw DRAM bandwidth would let the link ``min()``
        swallow the miss penalty entirely.  The transfer-path solver
        passes its link rate here instead of applying ``min()`` after.
        """
        if link_cap is not None:
            hit_bw = min(hit_bw, link_cap)
            miss_bw = min(miss_bw, link_cap)
        hit = self.hit_fraction(nbytes, working_set_bytes=working_set_bytes)
        miss = 1.0 - hit
        if miss <= 0.0:
            return hit_bw
        # A miss is a synchronous demand fill from the Optane media
        # that also writes the line back into the DRAM cache.
        miss_bw = miss_bw / (1.0 + cal.MEMORY_MODE_MISS_OVERHEAD)
        return 1.0 / (hit / hit_bw + miss / miss_bw)

    def _optane_working_set(
        self, working_set_bytes: Optional[int]
    ) -> Optional[int]:
        """The Optane-side footprint override for the miss path.

        ``None`` (no override) keeps the Optane technology's own
        stored working set — which :meth:`set_working_set` maintains —
        so the mutating path stays bit-identical.
        """
        if working_set_bytes is None:
            return None
        return self.uncached_working_set(working_set_bytes)

    def read_bandwidth(
        self,
        nbytes: float,
        link_cap: float = None,
        working_set_bytes: Optional[int] = None,
    ) -> float:
        return self._mixed_bandwidth(
            nbytes,
            self.dram.read_bandwidth(nbytes),
            self.optane.read_bandwidth(
                nbytes,
                working_set_bytes=self._optane_working_set(working_set_bytes),
            ),
            link_cap,
            working_set_bytes=working_set_bytes,
        )

    def write_bandwidth(
        self,
        nbytes: float,
        link_cap: float = None,
        working_set_bytes: Optional[int] = None,
    ) -> float:
        return self._mixed_bandwidth(
            nbytes,
            self.dram.write_bandwidth(nbytes),
            self.optane.write_bandwidth(nbytes),
            link_cap,
            working_set_bytes=working_set_bytes,
        )

    def read_rate(
        self,
        nbytes: float,
        scale: float,
        link_cap: Optional[float],
        working_set_bytes: Optional[int],
    ) -> float:
        """The link cap goes inside the hit/miss blend
        (:meth:`_mixed_bandwidth`), the region's scale after it."""
        return self.read_bandwidth(
            nbytes, link_cap=link_cap, working_set_bytes=working_set_bytes
        ) * scale

    def write_rate(
        self,
        nbytes: float,
        scale: float,
        link_cap: Optional[float],
        working_set_bytes: Optional[int],
    ) -> float:
        """The write mirror of :meth:`read_rate`."""
        return self.write_bandwidth(
            nbytes, link_cap=link_cap, working_set_bytes=working_set_bytes
        ) * scale
