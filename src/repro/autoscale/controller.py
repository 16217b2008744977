"""The planner-in-the-loop control plane for fleet serving.

:class:`AutoscaleController` is a passive, deterministic observer of
the fleet's virtual timeline until a control interval elapses; then
it turns the trailing arrival rate into an offered-load estimate,
re-plans capacity through a warm :class:`~repro.plan.CapacityPlanner`
(the priced ladders are built once, at construction, from the fleet's
one :class:`~repro.fleet.replica.ReplicaConfig`), and emits a
:class:`~repro.autoscale.policy.ScalingDecision` the fleet applies by
adding or draining replicas.

Everything the controller reads is a deterministic function of
virtual time — the arrival counter, the TTFT window, the plan — so
the decision stream replays bit-identically for the same seed and
trace, which is what lets autoscaled runs live under the same
determinism guard tests as everything else in the repo.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.core.qos import QosTarget
from repro.errors import ConfigurationError
from repro.fleet.replica import ReplicaConfig
from repro.obs.window import RollingCounter, WindowConfig, WindowedHistogram
from repro.autoscale.policy import AutoscalePolicy, ScalingDecision
from repro.plan import DEFAULT_PLACEMENTS, CapacityPlanner
from repro.serve.request import RequestRecord, RequestSpec

__all__ = ["AutoscaleController"]


class AutoscaleController:
    """Watches streaming telemetry, periodically re-plans capacity.

    ``planner`` may be injected (anything with
    ``plan(target, rates_rps=..., replica_counts=...)``) for tests;
    by default a :class:`~repro.plan.CapacityPlanner` over every field
    of the fleet's unsharded ``config`` — with
    ``policy.replan_placement``, over all placements — is built once
    and reused warm at every interval.
    """

    def __init__(
        self,
        policy: AutoscalePolicy,
        target: QosTarget,
        config: ReplicaConfig = ReplicaConfig(),
        *,
        prompt_len: int = 128,
        gen_len: int = 21,
        max_batch_limit: int = 512,
        planner=None,
    ) -> None:
        if config.is_sharded:
            raise ConfigurationError(
                "autoscaling adds and drains unsharded replicas; got "
                f"tensor_parallel={config.tensor_parallel}, "
                f"pipeline_parallel={config.pipeline_parallel} — "
                "combine it with shard degree 1"
            )
        self.policy = policy
        self.target = target
        if planner is None:
            planner = CapacityPlanner(
                model=config.model,
                hosts=(config.host,),
                placements=(
                    DEFAULT_PLACEMENTS
                    if policy.replan_placement
                    else (config.placement,)
                ),
                compress_weights=config.compress_weights,
                prompt_len=prompt_len,
                gen_len=gen_len,
                overlap=config.overlap,
                max_batch_limit=max_batch_limit,
            )
        self.planner = planner
        window = WindowConfig(
            width_s=policy.effective_window_s,
            windows=max(2, policy.rate_windows + 2),
        )
        self._arrivals = RollingCounter("autoscale_arrivals", window)
        self._ttft = WindowedHistogram("autoscale_ttft", window)
        self._next_decision_s = policy.interval_s
        self._last_change_s = -math.inf
        self._down_streak = 0
        self.decisions: List[ScalingDecision] = []
        self._scope = None
        self._span = None
        self._replica_range = tuple(
            range(policy.min_replicas, policy.max_replicas + 1)
        )

    # -- streaming inputs ----------------------------------------------

    def on_arrival(self, spec: RequestSpec) -> None:
        self._arrivals.inc(spec.arrival_s)

    def on_finish(self, record: RequestRecord) -> None:
        # Key the observation by when the first token was emitted —
        # that is the instant the TTFT became known.
        self._ttft.observe(record.ttft_s, record.arrival_s + record.ttft_s)

    # -- telemetry ------------------------------------------------------

    def bind(self, telemetry) -> None:
        """Publish decisions as ``autoscale/`` gauges + span events."""
        if telemetry is None or not telemetry.enabled:
            return
        self._scope = telemetry.scoped("autoscale")
        self._span = telemetry.tracer.start(
            "autoscale controller", 0.0, category="run"
        )

    def finalize(self, now: float) -> None:
        if self._span is not None and not self._span.finished:
            self._span.set("decisions", len(self.decisions))
            self._span.set(
                "applied",
                sum(1 for d in self.decisions if d.applied),
            )
            self._span.end(max(now, 0.0))

    def _publish(self, decision: ScalingDecision) -> None:
        if self._scope is not None:
            self._scope.gauge("offered_rate_rps").set(decision.offered_rps)
            self._scope.gauge("ttft_p99_s").set(decision.ttft_p99_s)
            self._scope.gauge("desired_replicas").set(
                decision.desired_replicas
            )
            self._scope.gauge("replicas").set(
                decision.desired_replicas
                if decision.applied
                else decision.current_replicas
            )
            self._scope.gauge("decisions").set(len(self.decisions))
        if self._span is not None:
            self._span.event(
                "autoscale_decision",
                decision.at_s,
                offered_rps=decision.offered_rps,
                current=decision.current_replicas,
                desired=decision.desired_replicas,
                applied=decision.applied,
                reason=decision.reason,
            )

    # -- the control loop ----------------------------------------------

    def due(self, now: float) -> bool:
        """Whether :meth:`maybe_decide` at ``now`` would evaluate.

        The one owner of that comparison: the fleet harvests
        completions only when a decision is due, so the two must
        agree."""
        return now >= self._next_decision_s

    def maybe_decide(
        self, now: float, current_replicas: int
    ) -> Optional[ScalingDecision]:
        """Run one control evaluation if an interval has elapsed.

        Returns the decision (also appended to :attr:`decisions`), or
        ``None`` between intervals.  The fleet acts only when
        ``decision.applied`` and the desired count differs.
        """
        if not self.due(now):
            return None
        policy = self.policy
        # Skip empty intervals deterministically (sparse troughs).
        while self._next_decision_s <= now:
            self._next_decision_s += policy.interval_s
        observed = self._arrivals.rate(policy.rate_windows, now=now)
        offered = observed * policy.headroom
        ttft_p99 = self._ttft.quantile(
            0.99, windows=policy.rate_windows, now=now
        )
        batch_cap: Optional[int] = None
        placement: Optional[str] = None
        if offered <= 0:
            desired = policy.min_replicas
            reason = "idle: no arrivals in the trailing windows"
        else:
            plan = self.planner.plan(
                self.target,
                rates_rps=(offered,),
                replica_counts=self._replica_range,
            )
            feasible = plan.feasible_candidates()
            if not feasible:
                desired = policy.max_replicas
                reason = (
                    f"infeasible at {offered:.4f} rps even at "
                    f"{policy.max_replicas} replicas; scaling to max"
                )
            else:
                # The plan's per-token cost is replica-invariant (its
                # batches are assumed full), so "cheapest feasible"
                # alone would always ride the lower-queueing-delay
                # tie-break up to max replicas.  Provisioned-but-idle
                # replicas burn real GPU-seconds: take the *smallest*
                # feasible count, then the cheapest candidate at it
                # (candidates are already in deterministic cost
                # order).
                desired = min(c.replicas for c in feasible)
                chosen = next(
                    c for c in feasible if c.replicas == desired
                )
                if policy.apply_batch_cap:
                    batch_cap = chosen.batch_size
                if policy.replan_placement:
                    placement = chosen.placement
                reason = (
                    f"plan: {chosen.replicas} replica(s) x batch "
                    f"{chosen.batch_size} covers {offered:.4f} rps "
                    f"(ttft {chosen.ttft_s:.2f}s, rho "
                    f"{chosen.utilization:.2f})"
                )
        if (
            policy.breach_boost
            and self.target.max_ttft_s is not None
            and ttft_p99 > self.target.max_ttft_s
            and desired <= current_replicas
        ):
            desired = current_replicas + 1
            reason = (
                f"observed ttft p99 {ttft_p99:.2f}s breaches "
                f"{self.target.max_ttft_s:.2f}s; boosting past the plan"
            )
        desired = max(policy.min_replicas, min(policy.max_replicas, desired))
        cooled = now - self._last_change_s >= policy.cooldown_s
        applied = False
        if desired > current_replicas:
            self._down_streak = 0
            applied = cooled
            if not cooled:
                reason += " [held: cooldown]"
        elif desired < current_replicas:
            self._down_streak += 1
            if self._down_streak < policy.scale_down_periods:
                reason += (
                    f" [held: shrink streak "
                    f"{self._down_streak}/{policy.scale_down_periods}]"
                )
            elif not cooled:
                reason += " [held: cooldown]"
            else:
                applied = True
        else:
            self._down_streak = 0
        if applied:
            self._last_change_s = now
            self._down_streak = 0
        decision = ScalingDecision(
            at_s=now,
            offered_rps=offered,
            ttft_p99_s=ttft_p99,
            current_replicas=current_replicas,
            desired_replicas=desired,
            batch_cap=batch_cap,
            placement=placement,
            reason=reason,
            applied=applied,
        )
        self.decisions.append(decision)
        self._publish(decision)
        return decision
