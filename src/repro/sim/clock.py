"""Virtual clock for the discrete-event engine."""

from __future__ import annotations

import math

from repro.errors import SimulationError


class SimClock:
    """Monotonically advancing virtual time, in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        if not 0 <= start < math.inf:
            raise SimulationError(
                f"clock must start at a finite time >= 0, not {start}"
            )
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, timestamp: float) -> None:
        """Move the clock forward to ``timestamp``.

        Raises:
            SimulationError: If ``timestamp`` is in the past (the
                engine must never process events out of order) or is
                not finite (a NaN would stop every later comparison
                from noticing anything).
        """
        if not self._now <= timestamp < math.inf:
            if timestamp < self._now:
                raise SimulationError(
                    f"cannot move clock backwards: {timestamp} < "
                    f"{self._now}"
                )
            raise SimulationError(
                f"cannot move clock to a non-finite time: {timestamp}"
            )
        self._now = float(timestamp)

    def reset(self) -> None:
        self._now = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimClock now={self._now:.9f}>"
