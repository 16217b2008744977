"""End-to-end: instrumented runs are bit-identical and fully exported."""

import json

import pytest

from repro.serve.simulator import simulate_serving
from repro.telemetry import Telemetry, load_bundle, use_telemetry


def quick_run(telemetry=None):
    return simulate_serving(
        placement="allcpu",
        rate_rps=0.2,
        num_requests=8,
        telemetry=telemetry,
    )


class TestDeterminism:
    def test_telemetry_never_perturbs_priced_metrics(self):
        baseline = quick_run()
        instrumented = quick_run(Telemetry.create())
        assert instrumented.metrics.summary() == baseline.metrics.summary()
        assert [r.finished_s for r in instrumented.records] == [
            r.finished_s for r in baseline.records
        ]

    def test_two_instrumented_runs_agree_bit_for_bit(self):
        a = Telemetry.create()
        b = Telemetry.create()
        quick_run(a)
        quick_run(b)
        assert a.bundle() == b.bundle()

    def test_ambient_telemetry_captures_the_run(self):
        telemetry = Telemetry.create()
        with use_telemetry(telemetry):
            quick_run()
        names = {
            entry["name"]
            for entry in telemetry.bundle()["metrics"]["counters"]
        }
        assert "serve/completed_requests" in names
        assert "pricing/cache/hits" in names


class TestBundleContents:
    @pytest.fixture(scope="class")
    def bundle(self):
        telemetry = Telemetry.create(tool="test")
        quick_run(telemetry)
        return telemetry.bundle()

    def test_all_subsystems_report(self, bundle):
        subsystems = {
            entry["name"].partition("/")[0]
            for kind in ("counters", "gauges", "histograms")
            for entry in bundle["metrics"][kind]
        }
        assert {"engine", "pricing", "serve"} <= subsystems

    def test_request_spans_nest_under_the_run(self, bundle):
        spans = bundle["spans"]
        (run,) = [s for s in spans if s["category"] == "run"]
        requests = [s for s in spans if s["category"] == "request"]
        iterations = [s for s in spans if s["category"] == "iteration"]
        assert len(requests) == 8
        assert all(s["parent_id"] == run["span_id"] for s in requests)
        assert all(s["parent_id"] == run["span_id"] for s in iterations)
        for span in requests:
            events = {event["name"] for event in span.get("events", ())}
            assert {"admitted", "first_token"} <= events
            assert run["start_s"] <= span["start_s"]
            assert span["end_s"] <= run["end_s"]

    def test_counters_match_the_result(self, bundle):
        counters = {
            (entry["name"], tuple(sorted(entry["labels"].items()))):
            entry["value"]
            for entry in bundle["metrics"]["counters"]
        }
        assert counters[("serve/completed_requests", ())] == 8
        assert counters[("serve/admitted_requests", ())] == 8


class TestFaultTelemetry:
    def test_injector_counters_land_in_the_registry(self):
        from repro.faults.models import (
            DegradationWindow,
            FaultSchedule,
            HOST_TARGET,
        )

        schedule = FaultSchedule(
            faults=(
                DegradationWindow(target=HOST_TARGET, slowdown=2.0),
            ),
        )
        telemetry = Telemetry.create()
        simulate_serving(
            placement="allcpu",
            rate_rps=0.2,
            num_requests=8,
            faults=schedule,
            telemetry=telemetry,
        )
        registry = telemetry.registry
        transfers = registry.value("faults/transfers")
        degraded = registry.value("faults/degraded_transfers")
        assert transfers and transfers > 0
        assert degraded and degraded > 0
        assert registry.value("serve/degradation_events") >= 1


class TestCliRoundTrip:
    def test_serve_writes_a_loadable_bundle(self, capsys, tmp_path):
        from repro.serve.cli import main as serve_main
        from repro.telemetry.cli import main as telemetry_main

        bundle_path = tmp_path / "tel.json"
        trace_path = tmp_path / "trace.json"
        code = serve_main([
            "--placement", "allcpu",
            "--rate", "0.2",
            "--requests", "8",
            "--gen-len", "4",
            "--telemetry-out", str(bundle_path),
            "--chrome-trace", str(trace_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        # The report's pricing line is the registry-backed one.
        assert ": cache " in out
        assert "hit rate" in out

        bundle = load_bundle(str(bundle_path))
        assert bundle["meta"]["tool"] == "repro-serve"
        assert bundle["spans"]

        # The merged chrome trace has engine tracks AND span tracks.
        trace = json.loads(trace_path.read_text())
        pids = {event["pid"] for event in trace["traceEvents"]}
        assert pids == {0, 1}

        code = telemetry_main(["summary", str(bundle_path)])
        summary_out = capsys.readouterr().out
        assert code == 0
        for subsystem in ("engine:", "pricing:", "serve:", "spans:"):
            assert subsystem in summary_out

        for fmt in ("prom", "jsonl", "chrome"):
            code = telemetry_main([
                "export", str(bundle_path), "--format", fmt,
            ])
            assert code == 0
            assert capsys.readouterr().out

    def test_cli_rejects_non_bundles(self, capsys, tmp_path):
        from repro.telemetry.cli import main as telemetry_main

        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a bundle"}')
        assert telemetry_main(["summary", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err
        assert telemetry_main(["summary", str(tmp_path / "nope.json")]) == 1

    def test_experiments_telemetry_out(self, capsys, tmp_path, monkeypatch):
        from repro.experiments.cli import main as experiments_main

        monkeypatch.setenv("REPRO_QUICK", "1")
        bundle_path = tmp_path / "exp.json"
        code = experiments_main([
            "run", "ablation_serving", "--quick",
            "--telemetry-out", str(bundle_path),
        ])
        capsys.readouterr()
        assert code == 0
        bundle = load_bundle(str(bundle_path))
        assert bundle["meta"]["tool"] == "repro-experiments"
        assert bundle["metrics"]["counters"]
        assert bundle["spans"]
