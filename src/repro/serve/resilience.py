"""Graceful-degradation policy for the serving scheduler.

When a host tier degrades (GC pause, media wear, link flap), an
unprepared scheduler keeps admitting work the hardware can no longer
serve: every class's latency balloons together and the interactive
SLO is lost along with everything else.  The resilience policy
encodes the operator playbook instead:

1. **Shed** — reject waiting/arriving requests of the lowest-priority
   (batch) classes while degraded, and preempt running ones on entry
   into the event, preserving capacity for interactive tenants.
2. **Shrink** — cap the admitted batch at the degraded tier's
   effective capacity (``nominal / slowdown``).
3. **Re-plan** — re-run the placement algorithm against the degraded
   bandwidth map (:func:`repro.faults.degraded_host_config`), pricing
   iterations and the admission limit off what the hardware actually
   delivers.  Triggered at most once per degradation event.

All reactions are driven by the same seeded
:class:`~repro.faults.injector.FaultInjector` that prices the faults,
so a resilient chaos run is exactly as reproducible as a clean one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs for the scheduler's degraded-mode behavior."""

    #: Transfer slowdown at which a tier counts as degraded.
    degraded_threshold: float = 2.0
    #: Consecutive degraded iteration boundaries before reacting
    #: (debounces sub-second blips).
    sustain_iterations: int = 3
    #: Consecutive healthy boundaries before leaving degraded mode.
    recover_iterations: int = 3
    #: Reject waiting/arriving requests of sheddable classes while
    #: degraded.
    shed: bool = True
    #: Also preempt *running* sheddable requests on entry into a
    #: degradation event, freeing their KV slots for interactive
    #: admissions.  Without eviction, batch-tier sequences admitted
    #: before the event hold every slot for the whole (slowed) rest of
    #: their generation, and rejecting waiting work alone cannot
    #: protect the interactive tier.
    evict: bool = True
    #: QoS priorities >= this are sheddable (default: everything below
    #: the interactive tier, whose priority is 0).
    shed_priority_floor: int = 1
    #: Shrink the admitted batch to ``nominal / slowdown``.
    shrink_batch: bool = True
    #: Re-run placement against the degraded bandwidth map on entry
    #: into a degradation event (needs a replanner).
    replan: bool = True
    #: With a KV manager attached, demote KV resident on the degraded
    #: host tier to storage on entry into a degradation event (dynamic
    #: policies only; the migration is priced into the next
    #: iteration).  Tri-state: ``None`` auto-enables when a KV manager
    #: is attached at use-site; an explicit ``True`` with no manager
    #: is a contradiction and raises ``ConfigurationError`` there
    #: instead of silently doing nothing.
    demote_kv: Optional[bool] = None
    #: Emergency-migrate KV off a *structurally lost* tier (rescue)
    #: instead of shedding every request whose KV it held.  Tri-state
    #: like ``demote_kv``: ``None`` auto-enables with a dynamic KV
    #: manager; explicit ``True`` without one raises at use-site;
    #: ``False`` is the shed-only baseline chaos runs compare against.
    rescue_kv: Optional[bool] = None
    #: Consecutive fully-stalled boundaries (tier down) before the run
    #: aborts by shedding all outstanding work — the backstop that
    #: keeps a permanent outage from hanging the simulation.
    stall_limit: int = 20
    #: Per-request queueing deadline: a request still waiting this
    #: long after arrival is shed with reason ``"timeout"``.  ``None``
    #: (default) disables deadlines — bit-identical to the pre-chaos
    #: scheduler.
    queue_deadline_s: Optional[float] = None
    #: Client-side retry of shed requests: requests shed for a
    #: *recoverable* reason (timeout, lost KV, failed rescue) re-enter
    #: the arrival stream after a deterministic exponential backoff,
    #: modeling a well-behaved client.  Permanent rejections
    #: (``degraded`` load shedding, outage aborts) are not retried.
    retry_shed: bool = False
    #: Maximum client attempts per request (1 = no retry).
    retry_max_attempts: int = 3
    #: First client backoff, doubled (``retry_backoff_multiplier``)
    #: per subsequent attempt.  Deterministic — no jitter, no RNG.
    retry_backoff_s: float = 30.0
    retry_backoff_multiplier: float = 2.0
    #: Severity fed to the replanner when a tier is structurally lost
    #: (bandwidth degradations report their own slowdown; a loss has
    #: none, so the playbook plans for this effective derating).
    tier_loss_severity: float = 8.0

    def __post_init__(self) -> None:
        if self.degraded_threshold < 1.0:
            raise ConfigurationError("degraded_threshold must be >= 1")
        if self.sustain_iterations < 1 or self.recover_iterations < 1:
            raise ConfigurationError(
                "sustain/recover iteration counts must be >= 1"
            )
        if self.stall_limit < 1:
            raise ConfigurationError("stall_limit must be >= 1")
        if self.shed_priority_floor < 0:
            raise ConfigurationError("shed_priority_floor must be >= 0")
        if not self.shed and self.evict:
            raise ConfigurationError(
                "evict=True contradicts shed=False: eviction preempts "
                "running requests by shedding them, which the policy "
                "just forbade — enable shed or disable evict"
            )
        if self.queue_deadline_s is not None and self.queue_deadline_s <= 0:
            raise ConfigurationError("queue_deadline_s must be positive")
        if self.retry_shed:
            if self.retry_max_attempts < 2:
                raise ConfigurationError(
                    "retry_shed=True contradicts retry_max_attempts < 2: "
                    "the first attempt is the original request, so at "
                    "least one more is needed for a retry to exist"
                )
            if self.retry_backoff_s <= 0:
                raise ConfigurationError("retry_backoff_s must be positive")
            if self.retry_backoff_multiplier < 1.0:
                raise ConfigurationError(
                    "retry_backoff_multiplier must be >= 1"
                )
        if self.tier_loss_severity < 1.0:
            raise ConfigurationError("tier_loss_severity must be >= 1")

    def wants_demote_kv(self, kv) -> bool:
        """Resolve the tri-state ``demote_kv`` against the manager
        actually attached; raises on the contradictory combination."""
        return _resolve_kv_flag("demote_kv", self.demote_kv, kv)

    def wants_rescue_kv(self, kv) -> bool:
        """Resolve the tri-state ``rescue_kv`` likewise."""
        return _resolve_kv_flag("rescue_kv", self.rescue_kv, kv)

    def client_backoff_s(self, attempt: int) -> float:
        """Backoff before client attempt ``attempt`` (2 = first
        retry).  Deterministic exponential — no RNG."""
        return self.retry_backoff_s * (
            self.retry_backoff_multiplier ** max(0, attempt - 2)
        )


def _resolve_kv_flag(name: str, value: Optional[bool], kv) -> bool:
    if value is None:
        return kv is not None
    if value and kv is None:
        raise ConfigurationError(
            f"{name}=True needs a KV manager attached to the scheduler "
            "(kv=...): there is no KV to act on, so the flag would be "
            "a silent no-op — pass a manager or leave the flag None"
        )
    return bool(value)


#: The default playbook: shed + shrink + re-plan.
DEFAULT_RESILIENCE = ResiliencePolicy()

#: Price the faults honestly but react to nothing — the baseline the
#: ablation compares against.
NO_RESILIENCE = ResiliencePolicy(
    shed=False, evict=False, shrink_batch=False, replan=False,
    demote_kv=False, rescue_kv=False,
)


@dataclass
class ReplanOutcome:
    """What a placement re-plan produced."""

    #: A cost model priced against the degraded bandwidth map.
    costs: object
    #: The degraded admission limit.
    max_batch: int
    label: str = ""


#: severity (observed slowdown) -> degraded cost model + limit.
Replanner = Callable[[float], ReplanOutcome]


def engine_replanner(engine, overlap: bool = True) -> Replanner:
    """A :data:`Replanner` that re-runs ``engine``'s placement against
    the degraded bandwidth map via
    :meth:`~repro.core.engine.OffloadEngine.replan_for_degradation`.

    Outcomes are cached per rounded severity so repeated degradation
    events at the same intensity reuse one degraded engine.  The
    degraded cost model is a sibling with its own price memo; the
    nominal model keeps its prices, which still describe the hardware
    a recovery returns to.
    """
    cache: dict = {}

    def replan(severity: float) -> ReplanOutcome:
        key = round(max(1.0, severity), 2)
        if key not in cache:
            degraded_engine = engine.replan_for_degradation(host_slowdown=key)
            costs = degraded_engine.cost_model(overlap=overlap)
            cache[key] = ReplanOutcome(
                costs=costs,
                max_batch=costs.max_concurrency(),
                label=f"replan@{key:g}x",
            )
        return cache[key]

    return replan
