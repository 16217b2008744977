"""Golden: everything the serving loop emits, pinned scenario by scenario.

Each scenario drives :class:`~repro.serve.scheduler.ContinuousBatchingScheduler`
down one branch of its loop (fault-free, KV capacity shed, degraded
mode with re-plan or batch shrink, transfer stalls, outage abort,
structural chaos with rescue and client retries, fleet pushes,
crash/restore).  A scenario's *payload* is every artifact the run
produces: request/shed records, the iteration timeline, trace
records, fault accounting, the telemetry registry and span tree,
observer gauges and alerts, and every checkpoint handed to a
:class:`~repro.serve.state.CheckpointPlan` sink.  The golden file
stores the sha256 of the payload's canonical JSON plus a few readable
headline numbers, so a refactor of the loop that moves any float,
counter, span or checkpoint byte fails here with the headline diff
shown.

Streams are explicit :class:`RequestSpec` tuples (replayed through
:class:`TraceReplay` where a simulator entry point is used), so no
arrival RNG is an input.  Each scenario also asserts that it reached
the branch it exists for.

Regenerate only when a change is meant to move numbers::

    PYTHONPATH=src python tests/serve/test_scheduler_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.chaos import generate_chaos_schedule
from repro.errors import SimulatedCrash, TransferError
from repro.faults.injector import FaultInjector
from repro.faults.models import (
    DISK_TARGET,
    HOST_TARGET,
    DegradationWindow,
    FaultSchedule,
    LinkOutage,
    TransientFaults,
)
from repro.fleet import simulate_fleet
from repro.kv import HotnessKvPolicy
from repro.serve.arrivals import TraceReplay
from repro.serve.costs import FixedCostModel, IterationCostModel
from repro.serve.request import BATCH, INTERACTIVE, STANDARD, RequestSpec
from repro.serve.resilience import ResiliencePolicy
from repro.serve.scheduler import ContinuousBatchingScheduler
from repro.serve.simulator import simulate_serving
from repro.serve.state import CheckpointPlan
from repro.telemetry import Telemetry

GOLDEN = Path(__file__).with_name("scheduler_golden.json")

MIX = ((INTERACTIVE, 0.3), (BATCH, 0.7))
SMALL = dict(model="opt-1.3b", host="DRAM", placement="helm")


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


class Sink:
    """A ``CheckpointPlan.sink`` that keeps each snapshot's digest
    (taken at hand-off, before the run mutates anything further)."""

    def __init__(self) -> None:
        self.digests = []
        self.boundaries = []

    def __call__(self, checkpoint: dict) -> None:
        self.digests.append(digest(checkpoint))
        self.boundaries.append(checkpoint["boundary"])


def trace_dicts(trace):
    return [
        {
            "label": record.label,
            "stream": record.stream,
            "category": record.category,
            "start": record.start,
            "end": record.end,
            "meta": record.meta,
        }
        for record in trace.records
    ]


def rows(items):
    return [dataclasses.asdict(item) for item in items]


def telemetry_dicts(telemetry):
    return {
        "registry": telemetry.registry.snapshot(),
        "spans": telemetry.tracer.to_dicts(),
    }


def run_events(telemetry, name):
    """Events called ``name`` on the run span(s)."""
    return [
        event
        for span in telemetry.tracer.to_dicts()
        if span["category"] == "run"
        for event in span.get("events", ())
        if event["name"] == name
    ]


def serving_payload(result, telemetry, sink=None):
    """Everything a ``simulate_serving`` run emitted."""
    return {
        "summary": result.summary(),
        "faults": dataclasses.asdict(result.metrics.faults),
        "records": rows(result.records),
        "shed": rows(result.shed),
        "timeline": rows(result.timeline),
        "trace": trace_dicts(result.trace),
        "telemetry": telemetry_dicts(telemetry),
        "checkpoints": [] if sink is None else sink.digests,
    }


def headline(records, shed, span_s, faults):
    return {
        "records": len(records),
        "shed": dict(sorted(Counter(s.reason for s in shed).items())),
        "span_s": span_s,
        "replans": faults.replans,
        "stalls": faults.stalls,
    }


def serving_headline(result):
    return headline(
        result.records,
        result.shed,
        result.metrics.duration_s,
        result.metrics.faults,
    )


def spec(i, arrival, prompt, gen, qos=BATCH, **extra):
    return RequestSpec(
        request_id=i,
        arrival_s=arrival,
        prompt_len=prompt,
        gen_len=gen,
        qos_class=qos.name,
        **extra,
    )


def mixed_stream(n, gap_s, prompt=256, gen=12):
    """Interactive every third request, batch otherwise; prompt and
    generation lengths cycle so batches are uneven."""
    return tuple(
        spec(
            i,
            round(i * gap_s, 6),
            prompt + 32 * (i % 7),
            gen + (i % 5),
            INTERACTIVE if i % 3 == 0 else BATCH,
        )
        for i in range(n)
    )


def serve(specs, sink_every=None, **kwargs):
    kwargs.setdefault("sanitize", False)
    telemetry = Telemetry.create()
    sink = Sink() if sink_every else None
    result = simulate_serving(
        **{**SMALL, **kwargs.pop("config", {})},
        arrival=TraceReplay(tuple(specs)),
        num_requests=len(specs),
        class_mix=kwargs.pop("class_mix", MIX),
        telemetry=telemetry,
        checkpoint=(
            CheckpointPlan(every=sink_every, sink=sink) if sink else None
        ),
        **kwargs,
    )
    return result, telemetry, sink


# -- scenarios -------------------------------------------------------------


def fixed_cost():
    """Fault-free loop on a fixed-cost model: admission, prefill,
    decode, idle jumps between bursts, checkpoints every 3rd boundary."""
    specs = tuple(
        spec(i, arrival, 32, 3 + (i % 4), STANDARD)
        for i, arrival in enumerate(
            [0.0, 0.0, 0.2, 0.3, 0.3, 1.1, 9.0, 9.5, 9.5, 30.0, 30.1]
        )
    )
    telemetry = Telemetry.create()
    sink = Sink()
    scheduler = ContinuousBatchingScheduler(
        FixedCostModel(prefill_s=1.0, decode_s=0.25, slots=3),
        classes=(STANDARD,),
        telemetry=telemetry,
    )
    run = scheduler.run(specs, checkpoint=CheckpointPlan(every=3, sink=sink))
    assert len(run.records) == len(specs) and not run.shed
    assert run.prefill_iterations > 1 and run.decode_iterations > 1
    assert sink.boundaries[:2] == [0, 2] and len(sink.boundaries) > 3
    payload = {
        "records": rows(run.records),
        "shed": rows(run.shed),
        "timeline": rows(run.timeline),
        "trace": trace_dicts(run.trace),
        "faults": dataclasses.asdict(run.faults),
        "span_s": run.span_s,
        "gpu_busy_s": run.gpu_busy_s,
        "telemetry": telemetry_dicts(telemetry),
        "checkpoints": sink.digests,
    }
    return payload, headline(run.records, run.shed, run.span_s, run.faults)


def kv_slo_sanitize():
    """The serve benchmark's shape on a small engine: dynamic KV
    admission, SLO observer, strict sanitizer — plus one request whose
    KV window can never fit (shed ``kv_capacity``)."""
    specs = list(mixed_stream(30, 0.5))
    specs[7] = dataclasses.replace(specs[7], gen_len=10**8)
    result, telemetry, sink = serve(
        specs,
        sink_every=5,
        kv_policy=HotnessKvPolicy(overcommit=8.0),
        slo=True,
        sanitize=True,
    )
    reasons = Counter(s.reason for s in result.shed)
    assert reasons == {"kv_capacity": 1}
    assert result.setup["sanitize"]["violations"] == []
    assert "slo" in result.setup
    registry = telemetry.registry.snapshot()
    assert any(
        entry["name"].startswith("slo/")
        for kind in registry.values()
        for entry in kind
    )
    return serving_payload(result, telemetry, sink), serving_headline(result)


def degradation(shrink_only):
    """A mid-run host slowdown: degraded entry (evict + shed, and a
    re-plan unless ``shrink_only``), then recovery to the nominal
    plan."""
    specs = mixed_stream(60, 0.4)
    schedule = FaultSchedule(
        faults=(
            DegradationWindow(
                target=HOST_TARGET, slowdown=6.0, start_s=6.0, duration_s=8.0
            ),
        ),
        seed=5,
    )
    resilience = (
        ResiliencePolicy(replan=False, shrink_batch=True)
        if shrink_only
        else ResiliencePolicy()
    )
    result, telemetry, sink = serve(
        specs,
        sink_every=7,
        faults=schedule,
        resilience=resilience,
        max_batch=8,
    )
    faults = result.metrics.faults
    assert faults.degradation_events >= 1
    assert run_events(telemetry, "degraded_enter")
    assert run_events(telemetry, "degraded_exit")
    assert Counter(s.reason for s in result.shed)["degraded"] > 0
    prefilled = {
        request_id
        for record in result.trace.records
        if record.category == "prefill"
        for request_id in record.meta["requests"]
    }
    evicted = [
        s for s in result.shed
        if s.reason == "degraded" and s.request_id in prefilled
    ]
    assert evicted, "no running request was evicted"
    if shrink_only:
        assert faults.replans == 0
        assert max(
            sample.batch for sample in result.timeline if sample.degraded
        ) < 8
    else:
        assert faults.replans >= 1
        assert run_events(telemetry, "replan")
    return serving_payload(result, telemetry, sink), serving_headline(result)


class StallSpy:
    """Records which iteration kind each exhausted transfer hit."""

    def __init__(self, monkeypatch) -> None:
        self.kinds = []
        self._last = None
        spy = self

        def wrap_parts(kind, original):
            def parts(model, *args):
                spy._last = kind
                return original(model, *args)

            return parts

        for kind in ("prefill", "decode"):
            name = f"{kind}_parts"
            monkeypatch.setattr(
                IterationCostModel,
                name,
                wrap_parts(kind, getattr(IterationCostModel, name)),
            )
        faulted = IterationCostModel.faulted_parts

        def faulted_parts(model, kind, *args, **kwargs):
            spy._last = kind
            return faulted(model, kind, *args, **kwargs)

        monkeypatch.setattr(IterationCostModel, "faulted_parts", faulted_parts)
        price = FaultInjector.price_transfer

        def price_transfer(injector, *args, **kwargs):
            try:
                return price(injector, *args, **kwargs)
            except TransferError:
                spy.kinds.append(spy._last)
                raise

        monkeypatch.setattr(FaultInjector, "price_transfer", price_transfer)


def transient(per_layer, monkeypatch):
    """Transient transfer failures, priced lump-sum or per layer,
    exhausting retries on both a prefill and a decode (stall, then
    resume)."""
    spy = StallSpy(monkeypatch)
    specs = mixed_stream(40, 0.3, prompt=128, gen=12)
    schedule = FaultSchedule(
        faults=(
            TransientFaults(
                target=HOST_TARGET, probability=0.2 if per_layer else 0.55
            ),
        ),
        seed=11,
    )
    result, telemetry, sink = serve(
        specs,
        sink_every=9,
        faults=schedule,
        resilience=ResiliencePolicy(shed=False, evict=False, replan=False),
        iteration_fault_pricing=per_layer,
        max_batch=6,
    )
    faults = result.metrics.faults
    assert faults.stalls > 0 and not faults.aborted
    assert faults.retried_iterations > 0
    assert {"prefill", "decode"} <= set(spy.kinds), spy.kinds
    return serving_payload(result, telemetry, sink), serving_headline(result)


def outage_abort():
    """A permanent host outage outlasts ``stall_limit``: the run
    aborts, shedding everything outstanding as ``outage``."""
    specs = mixed_stream(20, 0.5)
    schedule = FaultSchedule(
        faults=(LinkOutage(target=HOST_TARGET, start_s=4.0),), seed=3
    )
    result, telemetry, sink = serve(
        specs,
        sink_every=4,
        faults=schedule,
        resilience=ResiliencePolicy(stall_limit=3),
    )
    faults = result.metrics.faults
    assert faults.aborted and faults.stalls == 3
    assert Counter(s.reason for s in result.shed)["outage"] > 0
    assert run_events(telemetry, "abort")
    return serving_payload(result, telemetry, sink), serving_headline(result)


CHAOS = dict(model="opt-175b", host="SSD", placement="allcpu")


def chaos_stream():
    """A long-context interactive wave that overcommits the fast KV
    tiers onto SSD, plus a short batch trickle."""
    wave = [
        spec(i, round(5.0 * i, 3), 1536, 12 + (i % 9) * 3, INTERACTIVE)
        for i in range(24)
    ]
    trickle = [
        spec(24 + i, round(40.0 * i + 3.0, 3), 128, 16)
        for i in range(10)
    ]
    merged = sorted(wave + trickle, key=lambda s: (s.arrival_s, s.request_id))
    return tuple(
        dataclasses.replace(s, request_id=i) for i, s in enumerate(merged)
    )


def chaos(seed, rescue, reasons):
    """A seeded chaos schedule (tier loss, capacity shrink, slowdown,
    transient noise) against dynamic KV tiering, with a queueing
    deadline and client retries of recoverable sheds; ``rescue``
    migrates KV off a lost tier instead of shedding its requests."""
    specs = chaos_stream()
    schedule = generate_chaos_schedule(
        seed, span_s=600.0, targets=(DISK_TARGET, HOST_TARGET)
    )
    result, telemetry, sink = serve(
        specs,
        sink_every=11,
        config=CHAOS,
        faults=schedule,
        resilience=ResiliencePolicy(
            rescue_kv=rescue,
            queue_deadline_s=100.0,
            retry_shed=True,
            retry_max_attempts=3,
            retry_backoff_s=20.0,
        ),
        kv_policy="hotness",
        max_batch=16,
        sanitize=True,
    )
    faults = result.metrics.faults
    assert result.setup["sanitize"]["violations"] == []
    assert faults.tier_losses >= 1 and faults.client_retries > 0
    assert faults.timeouts > 0 and run_events(telemetry, "client_retry")
    for event in ("tier_restored", "replan_reset", "stall"):
        assert run_events(telemetry, event), event
    assert reasons <= {s.reason for s in result.shed}
    if rescue:
        assert run_events(telemetry, "kv_rescue")
    return serving_payload(result, telemetry, sink), serving_headline(result)


def fleet_prefix():
    """Two replicas behind prefix-affinity routing: every arrival is
    pushed into a live ``SchedulerDrive``."""
    specs = tuple(
        spec(
            i,
            round(0.7 * i, 6),
            512 + 16 * (i % 5),
            6 + (i % 4),
            STANDARD,
            prefix_group=f"tenant-{i % 3}",
            prefix_len=384,
        )
        for i in range(24)
    )
    telemetry = Telemetry.create()
    fleet = simulate_fleet(
        **SMALL,
        arrival=TraceReplay(specs),
        num_requests=len(specs),
        class_mix=((STANDARD, 1.0),),
        max_batch=4,
        replicas=2,
        router="prefix-affinity",
        prefix_cache_size=2,
        sanitize=False,
        telemetry=telemetry,
    )
    assert sorted(set(fleet.assignments.values())) == [0, 1]
    assert sum(
        replica.result.setup["prefix_cache"]["hits"]
        for replica in fleet.replicas
    ) > 0
    payload = {
        "summary": fleet.summary(),
        "assignments": sorted(fleet.assignments.items()),
        "registry": fleet.registry.snapshot(),
        "spans": telemetry.tracer.to_dicts(),
        "replicas": [
            {
                "routed": replica.routed,
                "summary": replica.result.summary(),
                "records": rows(replica.result.records),
                "shed": rows(replica.result.shed),
                "timeline": rows(replica.result.timeline),
                "trace": trace_dicts(replica.result.trace),
                "telemetry": replica.telemetry_snapshot,
            }
            for replica in fleet.replicas
        ],
    }
    shed = [s for r in fleet.replicas for s in r.result.shed]
    faults = fleet.replicas[0].result.metrics.faults
    return payload, headline(
        fleet.records,
        shed,
        max(r.result.metrics.duration_s for r in fleet.replicas),
        faults,
    )


def crash_restore():
    """Crash at boundary 9 with snapshots every 4th boundary, then
    resume from the carried checkpoint."""
    specs = mixed_stream(16, 0.6)
    kwargs = dict(kv_policy="hotness", slo=True)
    with pytest.raises(SimulatedCrash) as excinfo:
        simulate_serving(
            **SMALL,
            arrival=TraceReplay(specs),
            num_requests=len(specs),
            class_mix=MIX,
            telemetry=Telemetry.create(),
            checkpoint=CheckpointPlan(every=4, crash_at=9),
            sanitize=False,
            **kwargs,
        )
    crash = excinfo.value
    assert crash.boundary == 9 and crash.checkpoint["boundary"] == 7
    result, telemetry, sink = serve(
        specs, sink_every=4, restore=crash.checkpoint, **kwargs
    )
    payload = serving_payload(result, telemetry, sink)
    payload["crash_checkpoint"] = digest(crash.checkpoint)
    return payload, serving_headline(result)


SCENARIOS = {
    "fixed_cost": lambda patch: fixed_cost(),
    "kv_slo_sanitize": lambda patch: kv_slo_sanitize(),
    "degraded_replan": lambda patch: degradation(shrink_only=False),
    "degraded_shrink": lambda patch: degradation(shrink_only=True),
    "transient_lump": lambda patch: transient(False, patch),
    "transient_per_layer": lambda patch: transient(True, patch),
    "outage_abort": lambda patch: outage_abort(),
    "chaos_s2_rescue": lambda patch: chaos(2, True, {"kv_shrink"}),
    "chaos_s2_shed": lambda patch: chaos(2, False, {"kv_shrink", "kv_lost"}),
    "chaos_s3_rescue": lambda patch: chaos(3, True, {"rescue_failed"}),
    "chaos_s3_shed": lambda patch: chaos(3, False, {"kv_lost"}),
    "fleet_prefix": lambda patch: fleet_prefix(),
    "crash_restore": lambda patch: crash_restore(),
}


def load_golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_scenario():
    assert sorted(load_golden()) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden(name, monkeypatch):
    payload, head = SCENARIOS[name](monkeypatch)
    expected = load_golden()[name]
    assert head == expected["headline"]
    assert digest(payload) == expected["sha256"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    golden = {}
    for name, scenario in SCENARIOS.items():
        with pytest.MonkeyPatch.context() as patch:
            payload, head = scenario(patch)
        golden[name] = {"headline": head, "sha256": digest(payload)}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
