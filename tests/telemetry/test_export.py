"""Exporter golden files: Prometheus text, JSONL, Chrome trace."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import Telemetry
from repro.telemetry.export import (
    ENGINE_PID,
    SPAN_PID,
    to_chrome_trace,
    to_jsonl_lines,
    to_prometheus_text,
)
from repro.telemetry.summary import cache_stats_line, render_summary


def small_bundle() -> dict:
    telemetry = Telemetry.create(tool="test")
    scope = telemetry.scoped("serve")
    scope.counter("requests", help_text="completed requests").inc(3)
    scope.counter("iterations", labels={"kind": "decode"}).inc(5)
    scope.gauge("max_batch").set(46)
    histogram = scope.histogram("wait_s", buckets=(1.0, 10.0))
    histogram.observe(0.5)
    histogram.observe(2.0)
    run = telemetry.tracer.start("run", 0.0, category="run")
    telemetry.tracer.span(
        "req 0", 0.5, 3.0, parent=run, category="request", qos="std"
    ).event("admitted", 1.0, batch=2)
    run.end(4.0)
    return telemetry.bundle()


GOLDEN_PROM = """\
# TYPE serve_iterations_total counter
serve_iterations_total{kind="decode"} 5
# HELP serve_requests_total completed requests
# TYPE serve_requests_total counter
serve_requests_total 3
# TYPE serve_max_batch gauge
serve_max_batch 46
# TYPE serve_wait_s histogram
serve_wait_s_bucket{le="1"} 1
serve_wait_s_bucket{le="10"} 2
serve_wait_s_bucket{le="+Inf"} 2
serve_wait_s_sum 2.5
serve_wait_s_count 2
"""


class TestPrometheus:
    def test_golden_text(self):
        assert to_prometheus_text(small_bundle()) == GOLDEN_PROM

    def test_not_a_bundle_raises(self):
        with pytest.raises(TelemetryError):
            to_prometheus_text({"spans": []})

    def test_label_values_are_escaped(self):
        telemetry = Telemetry.create(tool="test")
        telemetry.scoped("obs").gauge(
            "weird",
            labels={"objective": 'p99 "fast"\\burn\nline'},
        ).set(1)
        text = to_prometheus_text(telemetry.bundle())
        line = next(
            ln for ln in text.splitlines() if ln.startswith("obs_weird")
        )
        # Backslash escaped first, then quote and newline; the line
        # itself stays a single physical line.
        assert (
            line
            == 'obs_weird{objective="p99 \\"fast\\"\\\\burn\\nline"} 1'
        )

    def test_series_order_is_deterministic(self):
        """Same instruments registered in different orders render
        identical exposition text (sorted labels, stable series)."""

        def build(reversed_order: bool) -> str:
            telemetry = Telemetry.create(tool="test")
            scope = telemetry.scoped("slo")
            pairs = [
                ({"objective": "a", "qos": "x"}, 1.0),
                ({"qos": "y", "objective": "b"}, 2.0),
            ]
            if reversed_order:
                pairs = list(reversed(pairs))
            for labels, value in pairs:
                scope.gauge("burn_rate", labels=labels).set(value)
            return to_prometheus_text(telemetry.bundle())

        text = build(False)
        assert text.index('objective="a"') < text.index('objective="b"')
        assert build(True) == text


class TestJsonl:
    def test_every_line_parses_and_order_is_stable(self):
        lines = list(to_jsonl_lines(small_bundle()))
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        assert records[0]["tool"] == "test"
        kinds = [record["type"] for record in records]
        # meta, then spans with their events, then metrics.
        assert kinds == [
            "meta", "span", "span", "span_event",
            "metric", "metric", "metric", "metric",
        ]
        event = records[3]
        assert event["span_id"] == 1
        assert event["attrs"] == {"batch": 2}

    def test_deterministic(self):
        assert list(to_jsonl_lines(small_bundle())) == list(
            to_jsonl_lines(small_bundle())
        )


class TestChromeTrace:
    def test_span_only_trace_shape(self):
        trace = to_chrome_trace(small_bundle())
        events = trace["traceEvents"]
        assert all(event["pid"] == SPAN_PID for event in events)
        phases = {event["ph"] for event in events}
        # Metadata, async request begin/end, complete run span, instant.
        assert {"M", "b", "e", "X", "i"} <= phases
        begin = next(e for e in events if e["ph"] == "b")
        end = next(e for e in events if e["ph"] == "e")
        assert begin["id"] == end["id"]
        assert begin["ts"] == pytest.approx(0.5e6)
        assert end["ts"] == pytest.approx(3.0e6)

    def test_engine_trace_is_overlaid(self):
        from repro.core.engine import OffloadEngine

        engine = OffloadEngine(model="opt-1.3b", host="DRAM")
        engine.run_timing()
        trace = to_chrome_trace(small_bundle(), trace=engine.last_trace)
        pids = {event["pid"] for event in trace["traceEvents"]}
        assert pids == {ENGINE_PID, SPAN_PID}
        names = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event.get("ph") == "M" and event["name"] == "process_name"
        }
        assert names == {"engine streams", "serving spans"}


class TestSummary:
    def test_groups_by_subsystem(self):
        text = render_summary(small_bundle())
        assert text.startswith("serve:")
        assert "requests" in text
        assert "n=2" in text  # histogram line
        assert "spans: 2 (request 1, run 1)" in text

    def test_empty_histogram_has_no_nan(self):
        telemetry = Telemetry.create()
        telemetry.scoped("serve").histogram("wait_s")
        text = render_summary(telemetry.bundle())
        assert "n=0 (no data)" in text
        assert "nan" not in text.lower()


class TestCacheStatsLine:
    def test_none_without_cache_counters(self):
        assert cache_stats_line(Telemetry.create().registry) is None

    def test_formats_counters(self):
        telemetry = Telemetry.create()
        scope = telemetry.scoped("pricing/cache")
        scope.counter("hits").inc(7)
        scope.counter("misses").inc(3)
        line = cache_stats_line(telemetry.registry)
        assert line == "cache 7 hits / 3 misses (70.0% hit rate)"

    def test_zero_lookups_is_nan_free(self):
        telemetry = Telemetry.create()
        telemetry.scoped("pricing/cache").counter("hits")
        line = cache_stats_line(telemetry.registry)
        assert "0.0% hit rate" in line
