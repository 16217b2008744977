"""End-to-end observer wiring: bit-identity, rollups, CLI surface."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.fleet import simulate_fleet
from repro.obs import ServeObserver, SloObjective, SloSpec, WindowConfig
from repro.serve.arrivals import PoissonProcess
from repro.serve.simulator import simulate_serving
from repro.telemetry import Telemetry


def serve(**kwargs):
    return simulate_serving(
        model="opt-30b",
        host="NVDRAM",
        placement="helm",
        arrival=PoissonProcess(rate_rps=0.05),
        num_requests=8,
        seed=13,
        **kwargs,
    )


def spec() -> SloSpec:
    return SloSpec(
        objectives=(
            SloObjective(
                name="ttft-fast",
                qos="*",
                metric="ttft",
                target=0.9,
                threshold_s=120.0,
            ),
        ),
        window=WindowConfig(width_s=60.0, windows=16),
    )


class TestBitIdentity:
    def test_observer_never_perturbs_the_run(self):
        plain = serve()
        observed = serve(slo=spec())
        assert observed.records == plain.records
        assert observed.shed == plain.shed
        assert observed.metrics.summary() == plain.metrics.summary()

    def test_plain_run_emits_no_obs_series(self):
        telemetry = Telemetry.create(tool="test")
        serve(telemetry=telemetry)
        snapshot = telemetry.registry.snapshot()
        for kind in ("counters", "gauges", "histograms"):
            for entry in snapshot[kind]:
                assert not entry["name"].startswith(("obs/", "slo/"))


class TestObserverValidation:
    @pytest.mark.parametrize("recent_windows", [0, -1])
    def test_rejects_fewer_than_one_recent_window(self, recent_windows):
        with pytest.raises(ConfigurationError):
            ServeObserver(recent_windows=recent_windows)

    @pytest.mark.parametrize("recent_windows", [2.5, 4.0, True])
    def test_rejects_a_recent_window_count_that_is_not_an_integer(
        self, recent_windows
    ):
        # Used to fail only at the first publish, with a TypeError.
        with pytest.raises(ConfigurationError, match="recent_windows"):
            ServeObserver(recent_windows=recent_windows)

    def test_clamps_recent_windows_to_the_ring(self):
        observer = ServeObserver(
            window=WindowConfig(width_s=60.0, windows=4), recent_windows=9
        )
        assert observer.recent_windows == 4
        observer.bind_run(Telemetry.create(tool="test"), None)
        observer.on_boundary(30.0)


class TestSloParamForms:
    def test_true_derives_spec_from_qos_classes(self):
        result = serve(slo=True)
        report = result.setup["slo"]
        assert report["objectives"]
        assert all(
            objective["name"].endswith("-slo")
            for objective in report["objectives"]
        )

    def test_path_loads_spec(self, tmp_path):
        path = tmp_path / "slo.json"
        spec().save(str(path))
        result = serve(slo=str(path))
        names = [o["name"] for o in result.setup["slo"]["objectives"]]
        assert names == ["ttft-fast"]

    def test_spec_object(self):
        result = serve(slo=spec())
        objective = result.setup["slo"]["objectives"][0]
        assert objective["good"] + objective["bad"] == len(
            result.records
        )

    def test_slo_and_observer_conflict(self):
        with pytest.raises(ConfigurationError):
            serve(slo=True, observer=ServeObserver(spec=spec()))

    def test_slo_false_defers_to_observer(self):
        result = serve(slo=False, observer=ServeObserver(spec=spec()))
        assert result.setup["slo"]["objectives"][0]["name"] == (
            "ttft-fast"
        )

    def test_explicit_observer(self):
        observer = ServeObserver(spec=spec())
        result = serve(observer=observer)
        assert result.setup["slo"]["objectives"][0]["name"] == (
            "ttft-fast"
        )


class TestObserverGauges:
    def test_obs_and_slo_gauges_published(self):
        telemetry = Telemetry.create(tool="test")
        serve(slo=spec(), telemetry=telemetry)
        names = {
            entry["name"]
            for entry in telemetry.registry.snapshot()["gauges"]
        }
        assert any(name.startswith("obs/") for name in names)
        assert "slo/attainment" in {
            n for n in names if n.startswith("slo/")
        }

    def test_alert_events_live_on_the_run_span(self):
        telemetry = Telemetry.create(tool="test")
        tight = SloSpec(
            objectives=(
                SloObjective(
                    name="impossible",
                    qos="*",
                    metric="ttft",
                    target=0.99,
                    threshold_s=0.001,
                ),
            ),
            window=WindowConfig(width_s=60.0, windows=16),
        )
        result = serve(slo=tight, telemetry=telemetry)
        events = [
            event
            for span in telemetry.bundle()["spans"]
            if span.get("category") == "run"
            for event in span.get("events", ())
            if event["name"] == "slo_alert"
        ]
        assert events
        assert result.setup["slo"]["alerts"]


class TestFleetRollup:
    def test_merged_report_covers_all_replicas(self):
        telemetry = Telemetry.create(tool="test")
        result = simulate_fleet(
            model="opt-30b",
            host="NVDRAM",
            placement="helm",
            arrival=PoissonProcess(rate_rps=0.1),
            num_requests=12,
            seed=13,
            replicas=2,
            slo=spec(),
            telemetry=telemetry,
        )
        merged = result.metrics["slo"]
        objective = merged["objectives"][0]
        total = sum(
            len(replica.result.records) for replica in result.replicas
        )
        assert objective["good"] + objective["bad"] == total
        # Per-replica reports exist too.
        for replica in result.replicas:
            assert replica.result.setup["slo"]["objectives"]
        # The rollup also republishes unlabeled fleet-level gauges.
        gauges = {
            (entry["name"], tuple(sorted(entry["labels"].items())))
            for entry in telemetry.registry.snapshot()["gauges"]
        }
        labels = (("objective", "ttft-fast"), ("qos", "*"))
        assert ("slo/attainment", labels) in gauges

    def test_single_replica_matches_serve(self):
        fleet = simulate_fleet(
            model="opt-30b",
            host="NVDRAM",
            placement="helm",
            arrival=PoissonProcess(rate_rps=0.05),
            num_requests=8,
            seed=13,
            replicas=1,
            slo=spec(),
        )
        solo = serve(slo=spec())
        fleet_objective = fleet.replicas[0].result.setup["slo"][
            "objectives"
        ][0]
        solo_objective = solo.setup["slo"]["objectives"][0]
        assert fleet_objective["good"] == solo_objective["good"]
        assert fleet_objective["bad"] == solo_objective["bad"]


class TestServeCli:
    def test_slo_flag_prints_report(self, capsys):
        from repro.serve.cli import main

        code = main(
            [
                "--model", "opt-30b",
                "--host", "NVDRAM",
                "--placement", "helm",
                "--requests", "6",
                "--seed", "13",
                "--slo",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slo:" in out
        assert "-slo" in out  # derived per-QoS objectives

    def test_slo_flag_with_spec_path(self, tmp_path, capsys):
        from repro.serve.cli import main

        path = tmp_path / "slo.json"
        spec().save(str(path))
        code = main(
            [
                "--model", "opt-30b",
                "--host", "NVDRAM",
                "--placement", "helm",
                "--requests", "6",
                "--seed", "13",
                "--slo", str(path),
            ]
        )
        assert code == 0
        assert "ttft-fast" in capsys.readouterr().out


class TestProfileCli:
    def test_profile_subcommand(self, tmp_path, capsys):
        from repro.telemetry.cli import main

        telemetry = Telemetry.create(tool="test")
        serve(telemetry=telemetry)
        bundle_path = tmp_path / "run.json"
        bundle_path.write_text(json.dumps(telemetry.bundle()))
        assert main(["profile", str(bundle_path)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        folded = tmp_path / "run.folded"
        assert (
            main(
                ["profile", str(bundle_path), "--folded", str(folded)]
            )
            == 0
        )
        capsys.readouterr()
        lines = folded.read_text().splitlines()
        assert lines and all(
            line.rpartition(" ")[2].isdigit() for line in lines
        )
