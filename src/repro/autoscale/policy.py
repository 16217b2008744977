"""Autoscaling policy knobs and the decision record.

The policy is deliberately small: a control interval, replica bounds,
a headroom multiplier on the observed rate, and two dampers —
*cooldown* (minimum virtual time between applied changes) and
*scale-down streaks* (the planner must ask for fewer replicas at
several consecutive intervals before a drain is applied).  Scale-ups
only wait for cooldown; under-capacity hurts the SLO immediately,
while over-capacity only costs money.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigurationError

__all__ = ["AutoscalePolicy", "ScalingDecision"]


@dataclass(frozen=True)
class AutoscalePolicy:
    """Knobs for the planner-in-the-loop controller.

    ``interval_s`` is the control period in *virtual* seconds; it is
    also the default telemetry window width, so "the last
    ``rate_windows`` windows" spans exactly that many control
    periods.  ``headroom`` inflates the observed arrival rate before
    planning, so capacity is sized for a bit more than the trailing
    average — the classic utilization-target trick.
    """

    interval_s: float = 60.0
    cooldown_s: float = 120.0
    min_replicas: int = 1
    max_replicas: int = 4
    #: Trailing windows used for the rate estimate and TTFT readout.
    rate_windows: int = 2
    #: Multiplier on the observed rate before re-planning.
    headroom: float = 1.25
    #: Consecutive shrink-requesting decisions before a drain.
    scale_down_periods: int = 2
    #: Add one replica beyond the plan when the *observed* windowed
    #: TTFT p99 already breaches the target (the plan's closed-form
    #: queueing model can lag a burst).
    breach_boost: bool = True
    #: Cap new replicas' admission at the plan's chosen batch size.
    apply_batch_cap: bool = True
    #: Let the planner sweep placements too; new replicas are built
    #: with the chosen scheme (existing replicas keep theirs).
    replan_placement: bool = False
    #: Telemetry window width; defaults to ``interval_s``.
    window_s: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("interval_s", "cooldown_s", "headroom", "window_s"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(
                    f"autoscale {name} must be finite, not {value}"
                )
        if self.interval_s <= 0:
            raise ConfigurationError(
                "autoscale interval must be positive"
            )
        if self.cooldown_s < 0:
            raise ConfigurationError("autoscale cooldown must be >= 0")
        if self.min_replicas < 1:
            raise ConfigurationError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ConfigurationError(
                "max_replicas must be >= min_replicas"
            )
        if self.rate_windows < 1:
            raise ConfigurationError("rate_windows must be >= 1")
        if self.headroom <= 0:
            raise ConfigurationError("headroom must be positive")
        if self.scale_down_periods < 1:
            raise ConfigurationError("scale_down_periods must be >= 1")
        if self.window_s is not None and self.window_s <= 0:
            raise ConfigurationError("window width must be positive")

    @property
    def effective_window_s(self) -> float:
        return self.window_s if self.window_s is not None else self.interval_s


@dataclass(frozen=True)
class ScalingDecision:
    """One control-interval verdict, applied or not."""

    at_s: float
    #: Headroom-inflated rate the plan was asked to cover.
    offered_rps: float
    #: Observed windowed TTFT p99 at decision time (0 when no data).
    ttft_p99_s: float
    current_replicas: int
    desired_replicas: int
    #: The plan's chosen batch point (None when the plan was
    #: infeasible or the fleet was idle).
    batch_cap: Optional[int]
    #: The plan's chosen placement (None unless ``replan_placement``).
    placement: Optional[str]
    reason: str
    #: Whether the fleet acted on it (cooldown/hysteresis may veto).
    applied: bool

    def as_dict(self) -> Dict[str, object]:
        return {
            "at_s": self.at_s,
            "offered_rps": self.offered_rps,
            "ttft_p99_s": self.ttft_p99_s,
            "current_replicas": self.current_replicas,
            "desired_replicas": self.desired_replicas,
            "batch_cap": self.batch_cap,
            "placement": self.placement,
            "reason": self.reason,
            "applied": self.applied,
        }
