"""The serving loop's plain virtual clock is byte-identical to SimEngine.

Iterations run back to back on one GPU, so the scheduler advances a
``SimClock`` by each iteration's price and appends the ``gpu`` trace
record itself instead of pushing a one-op job through a
``SimEngine``.  This test records every clock move and trace record a
serve run makes, replays them through a ``SimEngine`` whose ``gpu``
stream runs each iteration at its cost-model price (labels and meta
rebuilt from the run's timeline and records), and checks that the
trace records, the Chrome export and every checkpoint's ``"engine"``
section come out identical.
"""

import json

from repro.core.engine import OffloadEngine
from repro.serve.simulator import simulate_serving
from repro.serve.state import CheckpointPlan
from repro.sim.clock import SimClock
from repro.sim.engine import SimEngine
from repro.sim.trace import Trace
from repro.telemetry import Telemetry
from repro.telemetry.export import to_chrome_trace

CONFIG = dict(model="opt-1.3b", host="DRAM", placement="helm")


def _recorded_run(monkeypatch):
    """A serve run plus its clock moves, trace appends and snapshots.

    ``events`` holds ``("advance", t)``, ``("record", record)`` and,
    for an iteration (a clock move then its ``gpu`` record),
    ``("iteration", record)``.  Each checkpoint is paired with the
    number of events that preceded it.
    """
    events = []
    checkpoints = []
    advance_to, record = SimClock.advance_to, Trace.record

    def recording_advance(clock, timestamp):
        events.append(("advance", timestamp))
        advance_to(clock, timestamp)

    def recording_record(trace, entry):
        if entry.stream == "gpu":
            assert events.pop()[0] == "advance"
            events.append(("iteration", entry))
        else:
            events.append(("record", entry))
        record(trace, entry)

    def sink(checkpoint):
        checkpoints.append((len(events), checkpoint))

    telemetry = Telemetry.create()
    with monkeypatch.context() as patch:
        patch.setattr(SimClock, "advance_to", recording_advance)
        patch.setattr(Trace, "record", recording_record)
        result = simulate_serving(
            **CONFIG,
            rate_rps=0.5,
            num_requests=24,
            seed=3,
            max_batch=4,
            telemetry=telemetry,
            checkpoint=CheckpointPlan(every=3, sink=sink),
        )
    return result, telemetry, events, checkpoints


def _iterations(result):
    """Each iteration's (label, category, meta), rebuilt from the
    run's timeline and request records rather than its trace."""
    records = sorted(
        result.records, key=lambda r: (r.arrival_s, r.request_id)
    )
    gpu = [r for r in result.trace.records if r.stream == "gpu"]
    assert len(gpu) == len(result.timeline)
    for sample, traced in zip(result.timeline, gpu):
        label = f"{sample.kind} x{sample.batch}"
        if sample.kind == "prefill":
            admitted = [r for r in records if r.admitted_s == traced.start]
            meta = {
                "batch": sample.batch,
                "prompt_len": max(r.prompt_len for r in admitted),
                "requests": [r.request_id for r in admitted],
                "degraded": sample.degraded,
            }
        else:
            # The one decode field the run's outputs do not carry; a
            # wrong value would misprice the replayed iteration.
            meta = {
                "batch": sample.batch,
                "context_len": traced.meta["context_len"],
                "degraded": sample.degraded,
            }
        yield label, sample.kind, meta


def _replay(events, costs, iterations):
    """Drive a SimEngine through ``events`` the pre-clock way."""
    engine = SimEngine()
    gpu = engine.stream("gpu")
    iterations = iter(iterations)
    for kind, value in events:
        if kind == "advance":
            engine.clock.advance_to(value)
        elif kind == "record":
            engine.trace.record(value)
        else:
            label, category, meta = next(iterations)
            if category == "prefill":
                duration = costs.prefill_time(
                    meta["batch"], meta["prompt_len"]
                )
            else:
                duration = costs.decode_time(
                    meta["batch"], meta["context_len"]
                )
            gpu.enqueue(duration, label=label, category=category, meta=meta)
            engine.run()
    return engine


def _engine_section(engine):
    """A SimEngine's clock and trace in checkpoint form."""
    return {
        "now": engine.now,
        "trace": [
            {
                "label": record.label,
                "stream": record.stream,
                "category": record.category,
                "start": record.start,
                "end": record.end,
                "meta": dict(record.meta),
            }
            for record in engine.trace.records
        ],
    }


def test_serving_clock_matches_simengine(monkeypatch):
    result, telemetry, events, checkpoints = _recorded_run(monkeypatch)
    costs = OffloadEngine(
        **CONFIG, compress_weights=True, batch_size=1
    ).cost_model()

    iterations = list(_iterations(result))
    reference = _replay(events, costs, iterations)
    assert reference.trace.records == result.trace.records
    assert reference.now == result.metrics.duration_s
    kinds = {record.category for record in result.trace.records}
    assert {"prefill", "decode", "request"} <= kinds
    # The run idled between arrivals, so plain clock jumps are covered.
    assert any(kind == "advance" for kind, _ in events)

    bundle = telemetry.bundle()
    assert json.dumps(
        to_chrome_trace(bundle, trace=result.trace)
    ) == json.dumps(to_chrome_trace(bundle, trace=reference.trace))

    assert len(checkpoints) > 3
    for seen, checkpoint in checkpoints:
        expected = _engine_section(
            _replay(events[:seen], costs, iterations)
        )
        assert json.dumps(checkpoint["engine"]) == json.dumps(expected)
