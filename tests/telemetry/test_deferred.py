"""Deferred entries: trace records and spans built on first read.

A deferred entry takes its places when written (its list positions in
a :class:`~repro.sim.trace.Trace`, its consecutive span ids in a
:class:`~repro.telemetry.Tracer`) and is built from its row the first
time anything reads the collection: one row builds a run of ``count``
records or spans, and a single one is a run of one.
"""

import dataclasses

import pytest

import repro.serve.scheduler as scheduler_module
from repro.errors import TelemetryError
from repro.fleet import simulate_fleet
from repro.kv import HotnessKvPolicy
from repro.serve import TraceReplay
from repro.serve.request import RequestSpec, ShedRecord
from repro.serve.simulator import simulate_serving
from repro.sim.trace import Trace, TraceRecord
from repro.telemetry import Span, Telemetry, Tracer


def record(label, start, end, stream="s"):
    return TraceRecord(
        label=label, stream=stream, category="op", start=start, end=end
    )


def build_record(row):
    label, start, end = row
    return (record(label, start, end, stream="gpu"),)


def build_run(row):
    """``(label, start, ends)``: one record per end, back to back."""
    label, start, ends = row
    records = []
    for index, end in enumerate(ends):
        records.append(record(f"{label}{index}", start, end, stream="gpu"))
        start = end
    return records


def build_span(span_id, row):
    name, start, end = row
    return (Span(name=name, span_id=span_id, start_s=start, end_s=end),)


def build_span_run(first_id, row):
    """``(name, start, ends)``: one span per end, back to back."""
    name, start, ends = row
    spans = []
    for span_id, end in enumerate(ends, first_id):
        spans.append(
            Span(name=f"{name}{span_id - first_id}", span_id=span_id,
                 start_s=start, end_s=end)
        )
        start = end
    return spans


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

    def test_runs_interleaved_with_eager_single_and_shed_entries(self):
        runs = Counting(build_run)
        singles = Counting(build_record)
        sheds = Counting(scheduler_module._shed_records)
        trace = Trace()
        trace.record(record("a", 0.0, 1.0))
        trace.defer(runs, ("r", 1.0, [2.0, 3.0, 4.0]), 3)
        trace.defer(singles, ("b", 1.5, 4.0))
        trace.defer(
            sheds, ShedRecord(7, "batch", 0.5, 4.0, "kv_capacity")
        )
        trace.record(record("c", 4.0, 5.0))
        trace.defer(runs, ("s", 5.0, [6.0, 7.0]), 2)
        assert len(trace) == 9
        assert (runs.calls, singles.calls, sheds.calls) == (0, 0, 0)
        assert [r.label for r in trace.records] == [
            "a", "r0", "r1", "r2", "b", "shed 7", "c", "s0", "s1",
        ]
        assert [(r.start, r.end) for r in trace.filter(stream="gpu")] == [
            (1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (1.5, 4.0),
            (5.0, 6.0), (6.0, 7.0),
        ]
        shed = trace.filter(category="shed")[0]
        assert (shed.stream, shed.start, shed.end, shed.meta) == (
            "qos:batch", 0.5, 4.0, {"reason": "kv_capacity", "qos": "batch"},
        )
        trace.makespan()
        # Each row was built once, on the first read after its write.
        assert (runs.calls, singles.calls, sheds.calls) == (2, 1, 1)

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
            (eager, lambda row: eager.record(*build_record(row))),
            (deferred, lambda row: deferred.defer(build_record, row)),
        ):
            trace.record(record("x", 0.0, 2.0))
            write(("a", 1.0, 3.0))
        assert read(deferred) == read(eager)


class TestDeferredTracer:
    def test_reserved_ids_among_eager_spans(self):
        tracer = Tracer()
        run = tracer.start("run", 0.0)
        first = tracer.defer(build_span, ("it0", 0.0, 1.0), 0.0, (1.0,))
        eager = tracer.span("req", 0.5, 1.5, parent=run)
        second = tracer.defer(build_span, ("it1", 1.0, 2.0), 1.0, (2.0,))
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
        tracer.defer(build_span, ("it", 0.0, 1.0), 0.0, (1.0,))
        assert len(tracer) == 2

    def test_reads_settle_once_and_later_writes_follow(self):
        build = Counting(build_span)
        tracer = Tracer()
        run = tracer.start("run", 0.0)
        tracer.defer(build, ("it0", 0.0, 1.0), 0.0, (1.0,))
        assert build.calls == 0
        assert [s.name for s in tracer.finished_spans()] == ["it0"]
        assert build.calls == 1
        tracer.defer(build, ("it1", 1.0, 2.0), 1.0, (2.0,))
        child = tracer.span("req", 1.0, 2.0, parent=run)
        assert tracer.children_of(run) == (child,)
        assert [d["name"] for d in tracer.to_dicts()] == ["it0", "it1", "req"]
        assert [s.span_id for s in tracer.spans] == [0, 1, 2, 3]
        assert build.calls == 2

    def test_disabled_tracer_reserves_nothing(self):
        build = Counting(build_span)
        tracer = Tracer(enabled=False)
        assert tracer.defer(build, ("it", 0.0, 1.0), 0.0, (1.0,)) == -1
        assert len(tracer) == 0
        assert tracer.spans == ()
        assert build.calls == 0

    def test_end_before_start_raises_at_write(self):
        tracer = Tracer()
        with pytest.raises(TelemetryError, match="'it' would end before"):
            tracer.defer(build_span, ("it", 2.0, 1.0), 2.0, (1.0,))
        assert len(tracer) == 0
        with pytest.raises(TelemetryError, match="'it' would end before"):
            tracer.span("it", 2.0, 1.0)


class TestDeferredRuns:
    def test_a_run_reserves_consecutive_ids(self):
        build = Counting(build_span_run)
        tracer = Tracer()
        run = tracer.start("run", 0.0)
        first = tracer.defer(build, ("it", 0.0, [1.0, 2.0, 3.0]), 0.0,
                             [1.0, 2.0, 3.0])
        eager = tracer.span("req", 0.5, 2.5, parent=run)
        single = tracer.defer(build_span, ("one", 3.0, 4.0), 3.0, (4.0,))
        assert (first, eager.span_id, single) == (1, 4, 5)
        assert len(tracer) == 6
        assert build.calls == 0
        spans = tracer.spans
        assert [(s.name, s.span_id) for s in spans] == [
            ("run", 0), ("it0", 1), ("it1", 2), ("it2", 3), ("req", 4),
            ("one", 5),
        ]
        assert [(s.start_s, s.end_s) for s in spans[1:4]] == [
            (0.0, 1.0), (1.0, 2.0), (2.0, 3.0),
        ]
        tracer.to_dicts()
        assert build.calls == 1

    def test_negative_duration_inside_a_run_raises_at_write(self):
        build = Counting(build_span_run)
        tracer = Tracer()
        tracer.start("run", 0.0)
        ends = [1.0, 0.5, 2.0]
        with pytest.raises(
            TelemetryError, match=r"'it1' would end before it starts "
            r"\(0.5 < 1.0\)"
        ):
            tracer.defer(build, ("it", 0.0, ends), 0.0, ends)
        assert len(tracer) == 1
        assert [s.name for s in tracer.spans] == ["run"]


#: The entry builders the serving loop defers through.
BUILDERS = ("_run_records", "_request_records", "_shed_records")


@pytest.fixture
def builds(monkeypatch):
    """Count the serving loop's deferred trace builds, per builder."""
    counters = {}
    for name in BUILDERS:
        counters[name] = Counting(getattr(scheduler_module, name))
        monkeypatch.setattr(scheduler_module, name, counters[name])
    return counters


def _calls(builds):
    return tuple(builds[name].calls for name in BUILDERS)


def test_telemetry_off_serve_builds_nothing_until_read(builds):
    specs = [
        RequestSpec(
            request_id=i, arrival_s=2.0 * i, prompt_len=256 + 32 * (i % 5),
            gen_len=24, qos_class="standard",
        )
        for i in range(12)
    ]
    # A KV window that can never fit: one ``kv_capacity`` shed.
    specs[5] = dataclasses.replace(specs[5], gen_len=10**8)
    result = simulate_serving(
        model="opt-1.3b", host="DRAM", placement="helm",
        arrival=TraceReplay(tuple(specs)), num_requests=len(specs),
        kv_policy=HotnessKvPolicy(overcommit=8.0),
    )
    kinds = [sample.kind for sample in result.timeline]
    assert [s.reason for s in result.shed] == ["kv_capacity"]
    assert "prefill" in kinds
    assert _calls(builds) == (0, 0, 0)
    records = result.trace.records
    runs = builds["_run_records"].calls
    # Some runs covered several iterations.
    assert runs < len(kinds)
    assert _calls(builds) == (runs, len(result.records), 1)
    assert [r.category for r in records if r.stream == "gpu"] == kinds
    assert len(records) == len(kinds) + len(result.records) + 1
    result.trace.records
    assert _calls(builds) == (runs, len(result.records), 1)


def test_telemetry_off_fleet_builds_nothing_until_read(builds):
    fleet = simulate_fleet(
        model="opt-1.3b", host="DRAM", placement="helm",
        rate_rps=2.0, num_requests=40, seed=5, replicas=4,
    )
    assert _calls(builds) == (0, 0, 0)
    iterations = requests = 0
    for replica in fleet.replicas:
        result = replica.result
        gpu = result.trace.filter(stream="gpu")
        assert [r.category for r in gpu] == [
            sample.kind for sample in result.timeline
        ]
        iterations += len(gpu)
        requests += len(result.trace.filter(category="request"))
    assert requests == len(fleet.records) == 40
    runs, built_requests, sheds = _calls(builds)
    assert (built_requests, sheds) == (40, 0)
    assert runs < iterations


def test_serving_run_builds_iteration_entries_on_read(monkeypatch):
    records = Counting(scheduler_module._run_records)
    spans = Counting(scheduler_module._run_spans)
    commit = scheduler_module._ServingLoop.commit
    commits = []

    def counted_commit(loop, *args):
        commits.append(len(args[2]))
        return commit(loop, *args)

    monkeypatch.setattr(scheduler_module, "_run_records", records)
    monkeypatch.setattr(scheduler_module, "_run_spans", spans)
    monkeypatch.setattr(
        scheduler_module._ServingLoop, "commit", counted_commit
    )
    telemetry = Telemetry.create()
    result = simulate_serving(
        model="opt-1.3b", host="DRAM", placement="helm",
        rate_rps=0.5, num_requests=8, seed=3, max_batch=4,
        telemetry=telemetry,
    )
    iterations = len(result.timeline)
    assert (records.calls, spans.calls) == (0, 0)
    gpu = result.trace.filter(stream="gpu")
    assert len(gpu) == sum(commits) == iterations
    # One build per committed run, fewer than the iterations.
    assert records.calls == len(commits) < iterations
    kinds = [span.attrs["kind"] for span in telemetry.tracer.spans
             if span.category == "iteration"]
    assert kinds == [sample.kind for sample in result.timeline]
    assert spans.calls == len(commits)
