"""Tests for the ``repro-serve`` command line."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.serve.cli import main, parse_class_mix, parse_shards


def run_cli(capsys, *extra):
    argv = [
        "--placement", "allcpu",
        "--rate", "0.2",
        "--requests", "8",
        "--gen-len", "4",
    ]
    argv.extend(extra)
    code = main(argv)
    return code, capsys.readouterr()


class TestCli:
    def test_basic_run_reports_percentiles(self, capsys):
        code, captured = run_cli(capsys)
        assert code == 0
        for token in ("TTFT", "TBT", "E2E", "goodput", "p50 / p95 / p99"):
            assert token in captured.out, token

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "summary.json"
        code, _ = run_cli(capsys, "--json", str(path))
        assert code == 0
        summary = json.loads(path.read_text())
        assert "ttft_p99_s" in summary
        assert summary["placement"] == "allcpu"

    def test_save_and_replay_round_trip(self, capsys, tmp_path):
        trace = tmp_path / "stream.jsonl"
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        code, _ = run_cli(
            capsys, "--save-trace", str(trace), "--json", str(out_a)
        )
        assert code == 0
        code = main([
            "--placement", "allcpu",
            "--replay", str(trace),
            "--requests", "0",
            "--json", str(out_b),
        ])
        capsys.readouterr()
        assert code == 0
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        for key in ("ttft_p95_s", "e2e_p95_s", "throughput_rps"):
            assert b[key] == pytest.approx(a[key])

    def test_chrome_trace_flag(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        code, _ = run_cli(capsys, "--chrome-trace", str(path))
        assert code == 0
        assert "traceEvents" in json.loads(path.read_text())

    def test_class_mix_flag(self, capsys):
        code, captured = run_cli(
            capsys, "--classes", "interactive:0.5,batch:0.5", "--seed", "3"
        )
        assert code == 0
        assert "per QoS class" in captured.out

    def test_bad_placement_is_reported_not_raised(self, capsys):
        code = main(["--placement", "nonsense", "--requests", "4"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err


class TestParseClassMix:
    def test_parses_weights(self):
        mix = parse_class_mix("interactive:0.7,batch:0.3")
        assert [(qos.name, weight) for qos, weight in mix] == [
            ("interactive", 0.7), ("batch", 0.3),
        ]

    def test_default_weight_is_one(self):
        ((qos, weight),) = parse_class_mix("standard")
        assert qos.name == "standard" and weight == 1.0

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_class_mix("vip:1.0")

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_class_mix(" , ")


class TestFleetCli:
    def fleet_cli(self, capsys, *extra):
        argv = [
            "--model", "opt-6.7b",
            "--host", "CXL-ASIC",
            "--placement", "helm",
            "--rate", "0.5",
            "--requests", "8",
            "--gen-len", "4",
            "--max-batch", "4",
        ]
        argv.extend(extra)
        code = main(argv)
        return code, capsys.readouterr()

    def test_replicas_flag_prints_fleet_report(self, capsys):
        code, captured = self.fleet_cli(
            capsys, "--replicas", "2", "--router", "least-loaded"
        )
        assert code == 0
        assert "fleet" in captured.out
        assert "least-loaded" in captured.out
        assert "replica" in captured.out

    def test_fleet_json_summary(self, capsys, tmp_path):
        path = tmp_path / "fleet.json"
        code, _ = self.fleet_cli(
            capsys, "--replicas", "2", "--json", str(path)
        )
        assert code == 0
        summary = json.loads(path.read_text())
        assert summary["replicas"] == 2
        assert summary["completed"] + summary["shed_requests"] == 8
        assert len(summary["per_replica_routed"]) == 2

    def test_shards_flag_parses_tpxpp(self, capsys, tmp_path):
        path = tmp_path / "fleet.json"
        code, _ = self.fleet_cli(
            capsys, "--shards", "2x1", "--json", str(path)
        )
        assert code == 0
        summary = json.loads(path.read_text())
        assert summary["tensor_parallel"] == 2

    @pytest.mark.parametrize("shards", ("2xa", "x2", "2x2x2", "0", "1x0"))
    def test_malformed_shards_exit_with_usage(self, capsys, shards):
        with pytest.raises(SystemExit) as exit_:
            self.fleet_cli(capsys, "--shards", shards)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "argument --shards" in err
        assert repr(shards) in err

    @pytest.mark.parametrize(
        "text, degrees", (("1", (1, 1)), ("2", (2, 1)), ("2x2", (2, 2)))
    )
    def test_shards_parse_to_integer_degrees(self, text, degrees):
        assert parse_shards(text) == degrees

    def test_prefix_flags_enable_the_cache(self, capsys, tmp_path):
        path = tmp_path / "fleet.json"
        code, captured = self.fleet_cli(
            capsys,
            "--replicas", "2",
            "--router", "prefix-affinity",
            "--prefix-groups", "4",
            "--prefix-cache", "2",
            "--json", str(path),
        )
        assert code == 0
        assert "prefix cache" in captured.out

    def test_jsonl_telemetry_out_hints_follow(self, capsys, tmp_path):
        path = tmp_path / "fleet.jsonl"
        code, captured = self.fleet_cli(
            capsys, "--replicas", "2", "--telemetry-out", str(path)
        )
        assert code == 0
        assert "--follow" in captured.out
        from repro.telemetry.export import bundle_from_jsonl_lines

        bundle = bundle_from_jsonl_lines(
            path.read_text().splitlines()
        )
        labels = {
            entry["labels"].get("replica")
            for section in bundle["metrics"].values()
            for entry in section
        }
        assert {"0", "1"} <= labels
