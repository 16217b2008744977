"""Tests for the QoS-aware serving planner."""

import pytest

from repro.core.qos import (
    QosTarget,
    _batch_ladder,
    evaluate_qos_ladder,
    plan_for_qos,
    select_for_qos,
)
from repro.errors import ConfigurationError


class TestQosTarget:
    def test_needs_at_least_one_bound(self):
        with pytest.raises(ConfigurationError):
            QosTarget()

    def test_bounds_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            QosTarget(max_tbt_s=-1)

    def test_satisfaction_logic(self):
        from repro.core.metrics import GenerationMetrics

        metrics = GenerationMetrics(
            model_name="m", host_label="h", placement_name="p",
            batch_size=4, prompt_len=8, gen_len=2,
            token_times=[1.0, 2.0], records=[], total_s=2.0,
        )
        assert QosTarget(max_ttft_s=1.5).satisfied_by(metrics)
        assert not QosTarget(max_ttft_s=0.5).satisfied_by(metrics)
        assert QosTarget(max_tbt_s=1.5).satisfied_by(metrics)
        assert QosTarget(min_throughput_tps=3.0).satisfied_by(metrics)
        assert not QosTarget(min_throughput_tps=10.0).satisfied_by(metrics)


class TestBatchLadder:
    def test_powers_of_two_plus_max(self):
        assert _batch_ladder(46) == [1, 2, 4, 8, 16, 32, 46]
        assert _batch_ladder(8) == [1, 2, 4, 8]
        assert _batch_ladder(1) == [1]


@pytest.fixture(scope="module")
def latency_plan():
    # A TBT bound only HeLM-class placements can hit at batch 1.
    return plan_for_qos(
        QosTarget(max_tbt_s=4.5), model="opt-175b", host="NVDRAM",
        gen_len=5,
    )


@pytest.fixture(scope="module")
def throughput_plan():
    return plan_for_qos(
        QosTarget(min_throughput_tps=5.0), model="opt-175b", host="NVDRAM",
        gen_len=5,
    )


class TestPlanner:
    def test_latency_slo_selects_helm(self, latency_plan):
        """A tight TBT bound forces the latency-optimized placement —
        the trade-off the paper's Section VII hopes for."""
        assert latency_plan.meets_target
        assert latency_plan.chosen.placement == "helm"
        assert latency_plan.chosen.metrics.tbt_s <= 4.5

    def test_throughput_slo_selects_allcpu_at_large_batch(
        self, throughput_plan
    ):
        assert throughput_plan.meets_target
        assert throughput_plan.chosen.placement == "allcpu"
        assert throughput_plan.chosen.batch_size >= 32

    def test_chosen_maximizes_throughput_among_feasible(self, latency_plan):
        feasible = [c for c in latency_plan.candidates if c.feasible]
        best = max(c.metrics.throughput_tps for c in feasible)
        assert latency_plan.chosen.metrics.throughput_tps == best

    def test_impossible_target_returns_best_effort(self):
        plan = plan_for_qos(
            QosTarget(max_tbt_s=0.001), model="opt-175b", host="NVDRAM",
            gen_len=3, candidates=("baseline", "helm"),
        )
        assert not plan.meets_target
        assert plan.chosen is not None
        # Best effort = lowest TBT seen.
        assert plan.chosen.metrics.tbt_s == min(
            c.metrics.tbt_s for c in plan.candidates
        )

    def test_one_ladder_serves_every_target(
        self, latency_plan, throughput_plan
    ):
        ladder = evaluate_qos_ladder(
            model="opt-175b", host="NVDRAM", gen_len=5
        )
        for plan in (latency_plan, throughput_plan):
            assert select_for_qos(plan.target, ladder) == plan

    def test_empty_ladder_has_no_choice(self):
        plan = select_for_qos(QosTarget(max_tbt_s=1.0), ())
        assert plan.chosen is None and not plan.meets_target

    def test_summary(self, latency_plan):
        summary = latency_plan.summary()
        assert summary["meets_target"] is True
        assert summary["placement"] == "helm"
