"""Base abstractions for memory technologies.

A :class:`MemoryTechnology` answers one question for the rest of the
system: *at what rate can a buffer of N bytes be streamed out of (read)
or into (write) this memory?*  The answer can depend on the buffer
size (e.g. Optane's Address Indirection Table stops being effective
past a few GiB) and on the resident working-set size (e.g. Memory Mode
behaves like DRAM only while the working set fits the DRAM cache).

Bandwidths are expressed in bytes/second; buffer sizes in bytes.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.errors import ConfigurationError


class Direction(enum.Enum):
    """Direction of a memory access, from the memory's point of view."""

    #: Data is streamed *out of* this memory (e.g. host-to-GPU copy).
    READ = "read"
    #: Data is streamed *into* this memory (e.g. GPU-to-host copy).
    WRITE = "write"


@dataclass(frozen=True)
class BandwidthCurve:
    """Piecewise bandwidth as a function of buffer size.

    The curve is defined by ``(buffer_bytes, bytes_per_second)``
    breakpoints.  Between breakpoints the bandwidth is interpolated
    linearly in ``log(buffer size)``, which matches how measured
    bandwidth curves (e.g. the paper's Figure 3) are customarily
    plotted and interpolated.  Outside the breakpoint range the curve
    is clamped to its end values.
    """

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ConfigurationError("a bandwidth curve needs at least one point")
        sizes = [size for size, _ in self.points]
        if sorted(sizes) != sizes or len(set(sizes)) != len(sizes):
            raise ConfigurationError(
                "bandwidth curve breakpoints must be strictly increasing"
            )
        for size, rate in self.points:
            if size <= 0 or rate <= 0:
                raise ConfigurationError(
                    "bandwidth curve breakpoints must be positive"
                )
        # Fixed per curve, so ``at`` takes only the query's own log.
        # Plain attributes, not fields: ``eq``, ``repr``, ``hash`` and
        # ``replace`` see only the points.
        object.__setattr__(self, "_sizes", tuple(sizes))
        object.__setattr__(
            self,
            "_segments",
            tuple(
                (math.log(s0), math.log(s1) - math.log(s0), r0, r1 - r0)
                for (s0, r0), (s1, r1) in zip(self.points, self.points[1:])
            ),
        )

    @classmethod
    def flat(cls, bytes_per_second: float) -> "BandwidthCurve":
        """A size-independent bandwidth."""
        return cls(((1.0, float(bytes_per_second)),))

    @classmethod
    def from_points(
        cls, points: Sequence[Tuple[float, float]]
    ) -> "BandwidthCurve":
        return cls(tuple((float(s), float(r)) for s, r in points))

    def at(self, nbytes: float) -> float:
        """Bandwidth (bytes/s) for a buffer of ``nbytes`` bytes."""
        if not nbytes > 0:
            raise ValueError(f"buffer size must be positive, got {nbytes!r}")
        sizes = self._sizes
        if nbytes <= sizes[0]:
            return self.points[0][1]
        if nbytes >= sizes[-1]:
            return self.points[-1][1]
        # The first segment whose end is >= nbytes: an interior
        # breakpoint prices as the end of the segment below it.
        log_s0, log_span, r0, rise = self._segments[
            bisect_left(sizes, nbytes) - 1
        ]
        return r0 + (math.log(nbytes) - log_s0) / log_span * rise

    def scaled(self, factor: float) -> "BandwidthCurve":
        """A copy of this curve with every rate multiplied by ``factor``."""
        if factor <= 0:
            raise ConfigurationError("scale factor must be positive")
        return BandwidthCurve(
            tuple((size, rate * factor) for size, rate in self.points)
        )


@dataclass
class MemoryTechnology:
    """A memory technology with capacity and direction-dependent bandwidth.

    Subclasses provide technology-specific constructors and may override
    :meth:`read_bandwidth` / :meth:`write_bandwidth` to model effects
    beyond a static curve (e.g. caching in Memory Mode).

    Attributes:
        name: Human-readable technology name.
        capacity_bytes: Usable capacity.
        read_curve: Bandwidth curve for streaming reads.
        write_curve: Bandwidth curve for streaming writes.
        read_latency_s: Idle load-to-use latency.
        write_latency_s: Idle store-commit latency.
    """

    name: str
    capacity_bytes: int
    read_curve: BandwidthCurve
    write_curve: BandwidthCurve
    read_latency_s: float = 0.0
    write_latency_s: float = 0.0
    #: Size of the resident working set that transfers stream over.  Only
    #: technologies with internal caching (Memory Mode) or translation
    #: structures (Optane's AIT) consult it; the engine sets it to the
    #: total number of bytes it placed in this memory.
    working_set_bytes: int = field(default=0)

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError(
                f"{self.name}: capacity must be positive"
            )
        if self.read_latency_s < 0 or self.write_latency_s < 0:
            raise ConfigurationError(f"{self.name}: latency must be >= 0")

    def set_working_set(self, nbytes: int) -> None:
        """Record the workload's resident footprint in this memory."""
        if nbytes < 0:
            raise ConfigurationError("working set must be >= 0")
        if nbytes > self.capacity_bytes:
            raise ConfigurationError(
                f"{self.name}: working set {nbytes} exceeds capacity "
                f"{self.capacity_bytes}"
            )
        self.working_set_bytes = int(nbytes)

    def read_bandwidth(
        self, nbytes: float, working_set_bytes: Optional[int] = None
    ) -> float:
        """Streaming read bandwidth (bytes/s) for an ``nbytes`` buffer.

        ``working_set_bytes`` overrides the stored
        :attr:`working_set_bytes` for this one query, so concurrent
        cost models can price different resident footprints against
        the *same* technology object without mutating it.  ``None``
        falls back to the stored value (the microbenchmark path).
        Technologies with no footprint sensitivity ignore it.
        """
        return self.read_curve.at(nbytes)

    def write_bandwidth(
        self, nbytes: float, working_set_bytes: Optional[int] = None
    ) -> float:
        """Streaming write bandwidth (bytes/s) for an ``nbytes`` buffer."""
        return self.write_curve.at(nbytes)

    def read_rate(
        self,
        nbytes: float,
        scale: float,
        link_cap: Optional[float],
        working_set_bytes: Optional[int],
    ) -> float:
        """Read rate as a transfer path sees it: the bandwidth times a
        region's ``scale``, capped at ``link_cap`` (``None``: no cap)."""
        rate = self.read_bandwidth(
            nbytes, working_set_bytes=working_set_bytes
        ) * scale
        return link_cap if link_cap is not None and link_cap < rate else rate

    def write_rate(
        self,
        nbytes: float,
        scale: float,
        link_cap: Optional[float],
        working_set_bytes: Optional[int],
    ) -> float:
        """The write mirror of :meth:`read_rate`."""
        rate = self.write_bandwidth(
            nbytes, working_set_bytes=working_set_bytes
        ) * scale
        return link_cap if link_cap is not None and link_cap < rate else rate

    def bandwidth(
        self,
        nbytes: float,
        direction: Direction,
        working_set_bytes: Optional[int] = None,
    ) -> float:
        if direction is Direction.READ:
            return self.read_bandwidth(
                nbytes, working_set_bytes=working_set_bytes
            )
        return self.write_bandwidth(
            nbytes, working_set_bytes=working_set_bytes
        )

    def latency(self, direction: Direction) -> float:
        if direction is Direction.READ:
            return self.read_latency_s
        return self.write_latency_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
