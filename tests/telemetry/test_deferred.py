"""Deferred entries: trace records and spans built on first read.

A deferred entry takes its place when written (its list position in a
:class:`~repro.sim.trace.Trace`, its span id in a
:class:`~repro.telemetry.Tracer`) and is built from its row the first
time anything reads the collection.
"""

import pytest

import repro.serve.scheduler as scheduler_module
from repro.errors import TelemetryError
from repro.serve.simulator import simulate_serving
from repro.sim.trace import Trace, TraceRecord
from repro.telemetry import Span, Telemetry, Tracer


def record(label, start, end, stream="s"):
    return TraceRecord(
        label=label, stream=stream, category="op", start=start, end=end
    )


def build_record(row):
    label, start, end = row
    return record(label, start, end, stream="gpu")


def build_span(span_id, row):
    name, start, end = row
    return Span(name=name, span_id=span_id, start_s=start, end_s=end)


class Counting:
    """A builder that counts its calls."""

    def __init__(self, build):
        self.build = build
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.build(*args)


class TestDeferredTrace:
    def test_order_kept_among_eager_records(self):
        trace = Trace()
        trace.record(record("a", 0.0, 1.0))
        trace.defer(build_record, ("b", 1.0, 2.0))
        trace.record(record("c", 0.5, 1.5))
        trace.defer(build_record, ("d", 2.0, 3.0))
        assert [r.label for r in trace.records] == ["a", "b", "c", "d"]
        assert trace.records[1] == record("b", 1.0, 2.0, stream="gpu")

    def test_len_counts_deferred(self):
        trace = Trace()
        trace.defer(build_record, ("a", 0.0, 1.0))
        trace.record(record("b", 0.0, 1.0))
        assert len(trace) == 2

    def test_reads_settle_once_and_later_writes_follow(self):
        build = Counting(build_record)
        trace = Trace()
        trace.defer(build, ("a", 0.0, 1.0))
        assert build.calls == 0
        assert trace.makespan() == 1.0
        assert build.calls == 1
        trace.defer(build, ("b", 1.0, 4.0))
        trace.record(record("c", 4.0, 5.0))
        assert trace.stream_busy_time("gpu") == 4.0
        assert [r.label for r in trace.filter(stream="gpu")] == ["a", "b"]
        assert [r.label for r in trace.records] == ["a", "b", "c"]
        # Each entry was built once, on the first read after its write.
        assert build.calls == 2

    @pytest.mark.parametrize(
        "read",
        [
            lambda t: t.records,
            lambda t: t.filter(),
            lambda t: t.makespan(),
            lambda t: t.stream_busy_time("gpu"),
            lambda t: t.overlap_fraction("gpu", "s"),
            lambda t: t.total_time(),
            lambda t: t.mean_duration(),
        ],
    )
    def test_every_read_sees_deferred_records(self, read):
        eager, deferred = Trace(), Trace()
        for trace, write in (
            (eager, lambda row: eager.record(build_record(row))),
            (deferred, lambda row: deferred.defer(build_record, row)),
        ):
            trace.record(record("x", 0.0, 2.0))
            write(("a", 1.0, 3.0))
        assert read(deferred) == read(eager)


class TestDeferredTracer:
    def test_reserved_ids_among_eager_spans(self):
        tracer = Tracer()
        run = tracer.start("run", 0.0)
        first = tracer.defer(build_span, ("it0", 0.0, 1.0), 0.0, 1.0)
        eager = tracer.span("req", 0.5, 1.5, parent=run)
        second = tracer.defer(build_span, ("it1", 1.0, 2.0), 1.0, 2.0)
        later = tracer.start("late", 2.0)
        assert (run.span_id, first, eager.span_id, second, later.span_id) == (
            0, 1, 2, 3, 4,
        )
        spans = tracer.spans
        assert [span.name for span in spans] == [
            "run", "it0", "req", "it1", "late",
        ]
        assert [span.span_id for span in spans] == [0, 1, 2, 3, 4]

    def test_len_counts_deferred(self):
        tracer = Tracer()
        tracer.start("run", 0.0)
        tracer.defer(build_span, ("it", 0.0, 1.0), 0.0, 1.0)
        assert len(tracer) == 2

    def test_reads_settle_once_and_later_writes_follow(self):
        build = Counting(build_span)
        tracer = Tracer()
        run = tracer.start("run", 0.0)
        tracer.defer(build, ("it0", 0.0, 1.0), 0.0, 1.0)
        assert build.calls == 0
        assert [s.name for s in tracer.finished_spans()] == ["it0"]
        assert build.calls == 1
        tracer.defer(build, ("it1", 1.0, 2.0), 1.0, 2.0)
        child = tracer.span("req", 1.0, 2.0, parent=run)
        assert tracer.children_of(run) == (child,)
        assert [d["name"] for d in tracer.to_dicts()] == ["it0", "it1", "req"]
        assert [s.span_id for s in tracer.spans] == [0, 1, 2, 3]
        assert build.calls == 2

    def test_disabled_tracer_reserves_nothing(self):
        build = Counting(build_span)
        tracer = Tracer(enabled=False)
        assert tracer.defer(build, ("it", 0.0, 1.0), 0.0, 1.0) == -1
        assert len(tracer) == 0
        assert tracer.spans == ()
        assert build.calls == 0

    def test_end_before_start_raises_at_write(self):
        tracer = Tracer()
        with pytest.raises(TelemetryError, match="'it' would end before"):
            tracer.defer(build_span, ("it", 2.0, 1.0), 2.0, 1.0)
        assert len(tracer) == 0
        with pytest.raises(TelemetryError, match="'it' would end before"):
            tracer.span("it", 2.0, 1.0)


def test_serving_run_builds_iteration_entries_on_read(monkeypatch):
    records = Counting(scheduler_module._iteration_record)
    spans = Counting(scheduler_module._iteration_span)
    monkeypatch.setattr(scheduler_module, "_iteration_record", records)
    monkeypatch.setattr(scheduler_module, "_iteration_span", spans)
    telemetry = Telemetry.create()
    result = simulate_serving(
        model="opt-1.3b", host="DRAM", placement="helm",
        rate_rps=0.5, num_requests=8, seed=3, max_batch=4,
        telemetry=telemetry,
    )
    iterations = len(result.timeline)
    assert (records.calls, spans.calls) == (0, 0)
    gpu = result.trace.filter(stream="gpu")
    assert len(gpu) == records.calls == iterations
    kinds = [span.attrs["kind"] for span in telemetry.tracer.spans
             if span.category == "iteration"]
    assert kinds == [sample.kind for sample in result.timeline]
    assert spans.calls == iterations
