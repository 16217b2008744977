"""AutoscalePolicy validation and the controller's decision logic,
driven through an injected fake planner (no engines are built)."""

import pytest

from repro.autoscale import AutoscalePolicy, ScalingDecision
from repro.autoscale.controller import AutoscaleController
from repro.core.qos import QosTarget
from repro.errors import ConfigurationError

TARGET = QosTarget(max_ttft_s=5.0)


class FakeCandidate:
    def __init__(self, replicas, feasible=True, batch_size=4,
                 placement="helm", ttft_s=1.0, utilization=0.5):
        self.replicas = replicas
        self.feasible = feasible
        self.batch_size = batch_size
        self.placement = placement
        self.ttft_s = ttft_s
        self.utilization = utilization


class FakePlan:
    def __init__(self, candidates):
        self.candidates = tuple(candidates)

    def feasible_candidates(self):
        return tuple(c for c in self.candidates if c.feasible)


class FakePlanner:
    """Feasibility threshold in replicas, keyed off the offered rate:
    each replica covers ``per_replica_rps``."""

    def __init__(self, per_replica_rps=1.0):
        self.per_replica_rps = per_replica_rps
        self.calls = []

    def plan(self, target, rates_rps, replica_counts):
        self.calls.append((rates_rps, replica_counts))
        rate = rates_rps[0]
        return FakePlan(
            FakeCandidate(n, feasible=n * self.per_replica_rps >= rate)
            for n in replica_counts
        )


def controller(policy=None, planner=None, target=TARGET):
    policy = policy or AutoscalePolicy(
        interval_s=10.0, cooldown_s=10.0, min_replicas=1, max_replicas=4
    )
    return AutoscaleController(
        policy, target, planner=planner or FakePlanner()
    )


class Spec:
    def __init__(self, arrival_s):
        self.arrival_s = arrival_s


def feed(ctrl, times):
    for t in times:
        ctrl.on_arrival(Spec(t))


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval_s": 0.0},
            {"interval_s": -1.0},
            {"cooldown_s": -0.1},
            {"min_replicas": 0},
            {"min_replicas": 3, "max_replicas": 2},
            {"rate_windows": 0},
            {"headroom": 0.0},
            {"scale_down_periods": 0},
            {"window_s": 0.0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            AutoscalePolicy(**kwargs)

    @pytest.mark.parametrize(
        "field", ("interval_s", "cooldown_s", "headroom", "window_s")
    )
    @pytest.mark.parametrize("bad", (float("nan"), float("inf")))
    def test_rejects_non_finite_knobs(self, field, bad):
        with pytest.raises(ConfigurationError, match=field):
            AutoscalePolicy(**{field: bad})

    @pytest.mark.parametrize("bad", (2.5, 2.0, True))
    def test_rejects_a_rate_window_count_that_is_not_an_integer(self, bad):
        with pytest.raises(ConfigurationError, match="rate_windows"):
            AutoscalePolicy(rate_windows=bad)

    def test_nan_interval_fails_before_the_fleet_runs(self):
        from repro.fleet import simulate_fleet

        with pytest.raises(ConfigurationError, match="interval_s"):
            simulate_fleet(
                model="opt-1.3b",
                host="DRAM",
                num_requests=4,
                autoscale=AutoscalePolicy(interval_s=float("nan")),
            )

    def test_window_defaults_to_interval(self):
        assert AutoscalePolicy(interval_s=42.0).effective_window_s == 42.0
        assert (
            AutoscalePolicy(interval_s=42.0, window_s=7.0).effective_window_s
            == 7.0
        )

    def test_decision_round_trips_as_dict(self):
        decision = ScalingDecision(
            at_s=10.0, offered_rps=1.0, ttft_p99_s=0.5,
            current_replicas=1, desired_replicas=2, batch_cap=4,
            placement=None, reason="test", applied=True,
        )
        assert decision.as_dict()["desired_replicas"] == 2
        assert decision.as_dict()["applied"] is True


class TestControllerDecisions:
    def test_no_decision_between_intervals(self):
        ctrl = controller()
        assert ctrl.maybe_decide(5.0, 1) is None
        assert ctrl.decisions == []

    def test_idle_trough_requests_min_replicas(self):
        ctrl = controller()
        decision = ctrl.maybe_decide(10.0, 3)
        assert decision.desired_replicas == 1
        assert "idle" in decision.reason

    def test_picks_fewest_feasible_replicas(self):
        planner = FakePlanner(per_replica_rps=1.0)
        ctrl = controller(planner=planner)
        # 25 arrivals over the trailing 20 s window -> 1.25 rps;
        # with 1.25x headroom the offered rate needs 2 replicas.
        feed(ctrl, [i * 0.4 for i in range(25)])
        decision = ctrl.maybe_decide(10.0, 1)
        assert decision.desired_replicas == 2
        assert decision.applied

    def test_infeasible_load_scales_to_max(self):
        planner = FakePlanner(per_replica_rps=0.01)
        ctrl = controller(planner=planner)
        feed(ctrl, [i * 0.4 for i in range(25)])
        decision = ctrl.maybe_decide(10.0, 1)
        assert decision.desired_replicas == 4
        assert "infeasible" in decision.reason

    def test_scale_down_needs_consecutive_shrinks(self):
        policy = AutoscalePolicy(
            interval_s=10.0, cooldown_s=0.0, min_replicas=1,
            max_replicas=4, scale_down_periods=2,
        )
        ctrl = controller(policy=policy)
        first = ctrl.maybe_decide(10.0, 3)
        assert first.desired_replicas == 1 and not first.applied
        assert "shrink streak" in first.reason
        second = ctrl.maybe_decide(20.0, 3)
        assert second.applied

    def test_scale_up_waits_for_cooldown(self):
        policy = AutoscalePolicy(
            interval_s=10.0, cooldown_s=100.0, min_replicas=1,
            max_replicas=4,
        )
        planner = FakePlanner(per_replica_rps=0.5)
        ctrl = controller(policy=policy, planner=planner)
        feed(ctrl, [i * 0.4 for i in range(25)])
        first = ctrl.maybe_decide(10.0, 1)
        assert first.applied  # nothing has changed yet; cooldown clear
        feed(ctrl, [10.0 + i * 0.1 for i in range(100)])
        second = ctrl.maybe_decide(20.0, first.desired_replicas)
        if second.desired_replicas > first.desired_replicas:
            assert not second.applied
            assert "cooldown" in second.reason

    def test_breach_boost_overrides_plan(self):
        ctrl = controller()
        feed(ctrl, [i * 0.4 for i in range(25)])

        class Record:
            # Observed at arrival + ttft = 9.5 s, inside the trailing
            # window of the decision at t = 10 s.
            arrival_s = 4.0
            ttft_s = 5.5

        for _ in range(5):
            ctrl.on_finish(Record())
        decision = ctrl.maybe_decide(10.0, 2)
        assert decision.desired_replicas == 3
        assert "breaches" in decision.reason

    def test_desired_clamped_to_policy_bounds(self):
        policy = AutoscalePolicy(
            interval_s=10.0, cooldown_s=0.0, min_replicas=2,
            max_replicas=3,
        )
        ctrl = controller(policy=policy)
        decision = ctrl.maybe_decide(10.0, 2)
        assert decision.desired_replicas == 2  # idle clamps up to min

    def test_sparse_trough_skips_missed_intervals(self):
        ctrl = controller()
        decision = ctrl.maybe_decide(55.0, 1)
        assert decision is not None
        # The next boundary is past 55 s, not a backlog of five.
        assert ctrl.maybe_decide(58.0, 1) is None
