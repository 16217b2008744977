"""End-to-end autoscaled fleet runs: determinism, inertness, and
conservation through real scale-up/drain cycles."""

import pytest

from repro.autoscale import AutoscalePolicy
from repro.core.qos import QosTarget
from repro.errors import ConfigurationError
from repro.fleet import simulate_fleet
from repro.fleet.replica import Replica
from repro.serve.arrivals import DiurnalProcess, FlashCrowdProcess
from repro.serve.request import INTERACTIVE
from repro.serve.simulator import simulate_serving
from repro.telemetry import Telemetry
from repro.workloads.lengths import LengthDistribution

MODEL = "opt-6.7b"
HOST = "CXL-ASIC"

DIURNAL = dict(
    model=MODEL,
    host=HOST,
    placement="helm",
    num_requests=200,
    prompt_lengths=LengthDistribution.fixed(128),
    gen_lengths=LengthDistribution.fixed(16),
    class_mix=((INTERACTIVE, 1.0),),
    seed=7,
    max_batch=4,
)

POLICY = AutoscalePolicy(
    interval_s=15.0, cooldown_s=15.0, min_replicas=1, max_replicas=4,
    scale_down_periods=2, headroom=1.5,
)
PLAN_TARGET = QosTarget(max_ttft_s=2.0)


def _diurnal(**overrides):
    kwargs = dict(
        DIURNAL,
        arrival=DiurnalProcess(
            base_rate_rps=0.4, peak_rate_rps=4.0, period_s=240.0
        ),
    )
    kwargs.update(overrides)
    return simulate_fleet(**kwargs)


def test_same_seed_same_decisions_and_records():
    first = _diurnal(autoscale=POLICY, autoscale_target=PLAN_TARGET)
    second = _diurnal(autoscale=POLICY, autoscale_target=PLAN_TARGET)
    assert first.records == second.records
    assert (
        first.metrics["autoscale"]["decisions"]
        == second.metrics["autoscale"]["decisions"]
    )
    assert (
        first.metrics["autoscale"]["scaling_events"]
        == second.metrics["autoscale"]["scaling_events"]
    )
    assert first.summary() == second.summary()


def test_autoscale_off_is_bit_identical_to_plain_fleet():
    plain = _diurnal()
    off = _diurnal(autoscale=None)
    assert off.records == plain.records
    assert off.summary() == plain.summary()
    assert "autoscale" not in off.metrics


def test_one_replica_autoscale_off_is_simulate_serving():
    kwargs = dict(
        model=MODEL,
        host=HOST,
        placement="helm",
        arrival="poisson",
        rate_rps=0.5,
        num_requests=15,
        seed=3,
        max_batch=8,
    )
    solo_tel = Telemetry.create()
    fleet_tel = Telemetry.create()
    solo = simulate_serving(telemetry=solo_tel, **kwargs)
    fleet = simulate_fleet(
        telemetry=fleet_tel, replicas=1, autoscale=None, **kwargs
    )
    replica = fleet.replicas[0].result
    assert replica.summary() == solo.summary()
    assert replica.records == solo.records
    assert fleet_tel.registry.snapshot() == solo_tel.registry.snapshot()


def test_clamped_controller_matches_static_fleet():
    clamp = AutoscalePolicy(
        interval_s=15.0, cooldown_s=15.0, min_replicas=2, max_replicas=2
    )
    clamped = _diurnal(
        replicas=2, autoscale=clamp, autoscale_target=PLAN_TARGET
    )
    static = _diurnal(replicas=2)
    assert clamped.records == static.records
    assert clamped.metrics["autoscale"]["scaling_events"] == []
    assert clamped.metrics["autoscale"]["peak_replicas"] == 2


def test_diurnal_swing_scales_up_and_back_down():
    result = _diurnal(
        num_requests=600, autoscale=POLICY, autoscale_target=PLAN_TARGET
    )
    info = result.metrics["autoscale"]
    assert info["peak_replicas"] > 1
    assert info["final_replicas"] < info["peak_replicas"]
    actions = [event["action"] for event in info["scaling_events"]]
    assert "add" in actions and "drain" in actions
    # Accounting: provisioned replica-seconds exceed any single
    # replica's span but undercut always-on peak provisioning.
    span = result.metrics["span_s"]
    assert span < info["replica_seconds"] < info["peak_replicas"] * span


def test_drained_replicas_leave_the_fleet_loops(monkeypatch):
    """A draining replica takes no arrivals, so the fleet advances it
    only when the controller harvests it, and never again once its
    drive has finished."""
    draining_advances = []
    advance = Replica.advance

    def counted(replica, until):
        if replica.draining:
            draining_advances.append(replica.drive._result is not None)
        advance(replica, until)

    monkeypatch.setattr(Replica, "advance", counted)
    result = _diurnal(
        num_requests=600, autoscale=POLICY, autoscale_target=PLAN_TARGET
    )
    info = result.metrics["autoscale"]
    assert "drain" in [event["action"] for event in info["scaling_events"]]
    assert draining_advances
    assert len(draining_advances) <= len(info["decisions"])
    assert not any(draining_advances)
    assert len(result.records) + result.metrics["shed_requests"] == 600


def test_flash_crowd_scales_up_and_conserves_requests():
    result = simulate_fleet(
        **DIURNAL,
        arrival=FlashCrowdProcess(
            base_rate_rps=0.4,
            peak_rate_rps=4.0,
            start_s=40.0,
            ramp_s=10.0,
            hold_s=60.0,
            decay_s=10.0,
        ),
        sanitize=True,
        autoscale=POLICY,
        autoscale_target=PLAN_TARGET,
    )
    info = result.metrics["autoscale"]
    assert info["peak_replicas"] > 1
    completed = result.metrics["completed"]
    shed = result.metrics["shed_requests"]
    assert completed + shed == DIURNAL["num_requests"]
    for entry in result.replicas:
        report = entry.result.setup.get("sanitize")
        assert report is not None and report["violations"] == []


def test_autoscale_gauges_and_span_land_in_registry():
    telemetry = Telemetry.create()
    result = _diurnal(
        telemetry=telemetry, autoscale=POLICY, autoscale_target=PLAN_TARGET
    )
    snapshot = telemetry.registry.snapshot()
    gauges = {g["name"] for g in snapshot["gauges"]}
    assert "autoscale/desired_replicas" in gauges
    assert "autoscale/offered_rate_rps" in gauges
    spans = [
        s for s in telemetry.tracer.to_dicts()
        if s["name"] == "autoscale controller"
    ]
    assert len(spans) == 1
    events = spans[0]["events"]
    assert any(e["name"] == "autoscale_decision" for e in events)
    assert len(result.metrics["autoscale"]["decisions"]) == len(
        [e for e in events if e["name"] == "autoscale_decision"]
    )


def test_autoscale_rejects_sharded_fleets():
    with pytest.raises(ConfigurationError):
        _diurnal(tensor_parallel=2, autoscale=POLICY)


def test_setup_records_initial_replicas_and_flag():
    result = _diurnal(autoscale=POLICY, autoscale_target=PLAN_TARGET)
    assert result.setup["replicas"] == 1
    assert result.setup["autoscale"] is True
