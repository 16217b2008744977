"""The refactor's inertness guard: a 1-replica, degree-1 fleet IS
``simulate_serving`` — summary, records, shed list, and telemetry
snapshot all compare equal, across models and placements.

This is the machine check behind the multi-layer refactor: the fleet
wiring (SchedulerDrive, Replica, FleetSimulator) must collapse to the
single-engine object graph when nothing is actually fleet-shaped.
"""

import pytest

from repro.chaos import generate_chaos_schedule
from repro.faults.models import (
    DISK_TARGET,
    HOST_TARGET,
    DegradationWindow,
    FaultSchedule,
    TransientFaults,
)
from repro.fleet import simulate_fleet
from repro.kv import HotnessKvPolicy
from repro.serve.arrivals import PoissonProcess, TraceReplay, generate_requests
from repro.serve.request import BATCH, INTERACTIVE, STANDARD, RequestSpec
from repro.serve.resilience import ResiliencePolicy
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


def test_identity_holds_in_the_serve_benchmark_shape():
    """The serve benchmark's combination — a replayed trace, hotness
    KV tiering with overcommit, default SLO objectives and the
    sanitizer — threads through the replica unchanged."""
    specs = generate_requests(
        PoissonProcess(rate_rps=0.2),
        12,
        gen_lengths=LengthDistribution.uniform(4, 24),
        class_mix=((INTERACTIVE, 0.5), (STANDARD, 0.5)),
        seed=3,
    )
    solo, solo_tel, fleet, fleet_tel = run_both(
        model="opt-175b",
        host="NVDRAM",
        placement="helm",
        arrival=TraceReplay(specs),
        num_requests=len(specs),
        class_mix=((INTERACTIVE, 0.5), (STANDARD, 0.5)),
        kv_policy=HotnessKvPolicy(overcommit=8.0),
        slo=True,
        sanitize=True,
    )
    replica = fleet.replicas[0].result
    assert "slo" in solo.setup and "sanitize" in solo.setup
    assert replica.summary() == solo.summary()
    assert replica.records == solo.records
    assert replica.shed == solo.shed
    assert fleet.metrics["slo"] == solo.setup["slo"]
    assert fleet_tel.registry.snapshot() == solo_tel.registry.snapshot()


def chaos_stream():
    """Long-context interactive requests that overcommit the fast KV
    tiers onto SSD, plus a short batch trickle."""
    wave = [
        (5.0 * i, 1536, 12 + (i % 9) * 3, INTERACTIVE) for i in range(24)
    ]
    trickle = [(40.0 * i + 3.0, 128, 16, BATCH) for i in range(10)]
    return tuple(
        RequestSpec(
            request_id=index,
            arrival_s=arrival,
            prompt_len=prompt,
            gen_len=gen,
            qos_class=qos.name,
        )
        for index, (arrival, prompt, gen, qos) in enumerate(
            sorted(wave + trickle, key=lambda entry: entry[0])
        )
    )


def test_identity_holds_under_client_retries():
    """Chaos with queueing deadlines and client retries of shed
    requests: retries re-enter the replica's stream, and the run
    span's ``requests`` still counts the stream, not its retries."""
    specs = chaos_stream()
    solo, solo_tel, fleet, fleet_tel = run_both(
        model="opt-175b",
        host="SSD",
        placement="allcpu",
        arrival=TraceReplay(specs),
        num_requests=len(specs),
        class_mix=((INTERACTIVE, 0.7), (BATCH, 0.3)),
        faults=generate_chaos_schedule(
            2, span_s=600.0, targets=(DISK_TARGET, HOST_TARGET)
        ),
        resilience=ResiliencePolicy(
            rescue_kv=True,
            queue_deadline_s=100.0,
            retry_shed=True,
            retry_max_attempts=3,
            retry_backoff_s=20.0,
        ),
        kv_policy="hotness",
        max_batch=16,
        sanitize=True,
    )
    replica = fleet.replicas[0].result
    assert solo.metrics.faults.client_retries > 0
    assert replica.summary() == solo.summary()
    assert replica.records == solo.records
    assert replica.shed == solo.shed
    assert fleet_tel.registry.snapshot() == solo_tel.registry.snapshot()
    spans = solo_tel.tracer.to_dicts()
    assert fleet_tel.tracer.to_dicts() == spans
    (run_span,) = [span for span in spans if span["category"] == "run"]
    assert run_span["attrs"]["requests"] == len(specs)
