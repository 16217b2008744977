"""The refactor's inertness guard: a 1-replica, degree-1 fleet IS
``simulate_serving`` — summary, records, shed list, and telemetry
snapshot all compare equal, across models and placements.

This is the machine check behind the multi-layer refactor: the fleet
wiring (SchedulerDrive, Replica, FleetSimulator) must collapse to the
single-engine object graph when nothing is actually fleet-shaped.
"""

import pytest

from repro.faults.models import (
    DegradationWindow,
    FaultSchedule,
    TransientFaults,
)
from repro.fleet import simulate_fleet
from repro.serve.simulator import simulate_serving
from repro.telemetry import Telemetry
from repro.workloads.lengths import LengthDistribution

HOST = "CXL-ASIC"


def run_both(**kwargs):
    """Run simulate_serving and a 1-replica fleet on identical knobs."""
    solo_telemetry = Telemetry.create()
    fleet_telemetry = Telemetry.create()
    solo = simulate_serving(telemetry=solo_telemetry, **kwargs)
    fleet = simulate_fleet(telemetry=fleet_telemetry, replicas=1, **kwargs)
    return solo, solo_telemetry, fleet, fleet_telemetry


@pytest.mark.parametrize("model", ["opt-6.7b", "opt-13b"])
@pytest.mark.parametrize("placement", ["helm", "baseline"])
def test_single_replica_fleet_is_simulate_serving(model, placement):
    solo, solo_tel, fleet, fleet_tel = run_both(
        model=model,
        host=HOST,
        placement=placement,
        arrival="poisson",
        rate_rps=0.5,
        num_requests=12,
        seed=7,
        max_batch=8,
    )
    replica = fleet.replicas[0].result
    assert replica.summary() == solo.summary()
    assert replica.records == solo.records
    assert replica.shed == solo.shed
    assert fleet_tel.registry.snapshot() == solo_tel.registry.snapshot()


def test_identity_survives_the_full_stack():
    """Faults + KV policy + sanitizer + bursty arrivals all thread
    through the replica unchanged."""
    schedule = FaultSchedule(
        faults=(
            DegradationWindow(
                target="host", slowdown=1.5, start_s=2.0, duration_s=18.0
            ),
        )
    )
    solo, solo_tel, fleet, fleet_tel = run_both(
        model="opt-6.7b",
        host="NVDRAM",
        placement="baseline",
        arrival="bursty",
        rate_rps=0.4,
        burst_rate_rps=2.0,
        num_requests=10,
        seed=11,
        max_batch=4,
        faults=schedule,
        fault_seed=5,
        kv_policy="hotness",
        sanitize=True,
    )
    replica = fleet.replicas[0].result
    assert replica.summary() == solo.summary()
    assert replica.records == solo.records
    assert fleet_tel.registry.snapshot() == solo_tel.registry.snapshot()


def test_identity_holds_for_per_layer_fault_pricing():
    """``iteration_fault_pricing`` reaches the replica's cost model:
    the 1-replica fleet prices per layer exactly as
    ``simulate_serving`` does, not lump-sum."""
    schedule = FaultSchedule(
        faults=(
            DegradationWindow(
                target="host", slowdown=3.0, start_s=5.0, duration_s=40.0
            ),
            TransientFaults(
                target="host", probability=0.1, start_s=0.0, end_s=1e9
            ),
        ),
        seed=4,
    )
    knobs = dict(
        model="opt-30b",
        host="DRAM",
        placement="baseline",
        arrival="poisson",
        rate_rps=0.3,
        num_requests=12,
        gen_lengths=LengthDistribution.fixed(4),
        seed=2,
        faults=schedule,
    )
    solo, _, fleet, _ = run_both(iteration_fault_pricing=True, **knobs)
    replica = fleet.replicas[0].result
    assert replica.summary() == solo.summary()
    assert replica.records == solo.records
    assert replica.shed == solo.shed
    lump = simulate_fleet(replicas=1, **knobs).replicas[0].result
    assert replica.records != lump.records


def test_fleet_summary_adds_only_fleet_keys():
    solo, _, fleet, _ = run_both(
        model="opt-6.7b",
        host=HOST,
        placement="helm",
        rate_rps=0.5,
        num_requests=8,
        seed=1,
        max_batch=4,
    )
    summary = fleet.summary()
    assert summary["replicas"] == 1
    assert summary["router"] == "round-robin"
    # The single replica serves the whole stream.
    assert summary["completed"] == len(solo.records)
    assert fleet.records == solo.records
