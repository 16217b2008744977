"""The cross-layer invariant sanitizer: inert when clean, loud when
state is corrupted, and bit-identical to an unsanitized run."""

from types import SimpleNamespace

import pytest

from repro.chaos import SanitizerHarness, SanitizerViolation
from repro.core.engine import OffloadEngine
from repro.core.placement.sharding import ShardedPlacement
from repro.errors import SanitizerError
from repro.fleet.costs import ShardedCostModel
from repro.serve.simulator import simulate_serving

SERVE = dict(
    model="opt-1.3b",
    host="DRAM",
    placement="allcpu",
    rate_rps=0.5,
    num_requests=10,
    seed=3,
    max_batch=4,
)


class TestEndToEnd:
    def test_sanitized_run_is_bit_identical_and_clean(self):
        plain = simulate_serving(**SERVE, sanitize=False)
        sanitized = simulate_serving(**SERVE, sanitize=True)
        assert sanitized.records == plain.records
        assert sanitized.timeline == plain.timeline
        assert sanitized.metrics.summary() == plain.metrics.summary()
        report = sanitized.setup["sanitize"]
        assert report["strict"] is True
        assert report["boundaries"] > 0
        assert report["violations"] == []
        assert "sanitize" not in plain.setup

    def test_env_var_enables_sanitizing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        result = simulate_serving(**SERVE)
        assert result.setup["sanitize"]["boundaries"] > 0
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert "sanitize" not in simulate_serving(**SERVE).setup

    def test_custom_harness_instance_is_used(self):
        harness = SanitizerHarness(strict=False)
        result = simulate_serving(**SERVE, sanitize=harness)
        assert result.setup["sanitize"] is not None
        assert harness.boundaries > 0
        assert harness.violations == []


class TestReportShape:
    def test_report_keys_and_counters(self):
        harness = SanitizerHarness()
        report = harness.report()
        assert set(report) == {
            "strict",
            "boundaries",
            "checks",
            "violations",
        }
        assert set(report["checks"]) == set(SanitizerHarness.CHECKS)
        assert report["boundaries"] == 0


class TestCheckers:
    def test_clock_regression_detected(self):
        harness = SanitizerHarness(strict=False)
        state = SimpleNamespace(timeline=())
        harness._check_clock(1, 10.0, state)
        harness._check_clock(2, 5.0, state)
        assert [v.check for v in harness.violations] == ["clock"]
        assert "backwards" in harness.violations[0].detail

    def test_timeline_regression_detected(self):
        harness = SanitizerHarness(strict=False)
        sample = lambda t: SimpleNamespace(time_s=t)
        harness._check_clock(
            1, 1.0, SimpleNamespace(timeline=(sample(1.0),))
        )
        harness._check_clock(
            2, 2.0, SimpleNamespace(timeline=(sample(0.5),))
        )
        assert [v.check for v in harness.violations] == ["clock"]

    def test_conservation_mismatch_detected(self):
        harness = SanitizerHarness(strict=False)
        state = SimpleNamespace(
            records=[object()],
            shed_records=[],
            waiting=[],
            running=[],
            next_arrival=3,
        )
        harness._check_conservation(1, state)
        assert [v.check for v in harness.violations] == ["conservation"]

    def test_waiting_running_overlap_detected(self):
        harness = SanitizerHarness(strict=False)
        request = SimpleNamespace(
            spec=SimpleNamespace(request_id=7)
        )
        state = SimpleNamespace(
            records=[],
            shed_records=[],
            waiting=[(0, 0.0, 7, request)],
            running=[request],
            next_arrival=1,
        )
        harness._check_conservation(1, state)
        # 1 absorbed vs 2 accounted, plus the overlap itself.
        checks = [v.check for v in harness.violations]
        assert checks == ["conservation", "conservation"]
        assert "both waiting and running" in harness.violations[1].detail

    def test_stranded_kv_on_lost_tier_detected(self):
        harness = SanitizerHarness(strict=False)
        kv = SimpleNamespace(
            lost_tiers={"SSD"},
            tiermap=SimpleNamespace(used_bytes=lambda name: 4096),
        )
        harness._check_lost_tiers(1, kv)
        assert [v.check for v in harness.violations] == ["lost_tiers"]
        assert "stranded" in harness.violations[0].detail

    def test_inconsistent_cache_stats_detected(self):
        harness = SanitizerHarness(strict=False)
        stats = {"hits": 5, "misses": 2, "size": 2, "hit_rate": 1.5}
        scheduler = SimpleNamespace(costs=SimpleNamespace(cache_stats=stats))
        harness._check_cache_stats(1, scheduler)
        assert [v.check for v in harness.violations] == ["cache_stats"]

    def test_misses_that_disagree_with_size_detected(self):
        harness = SanitizerHarness(strict=False)
        stats = {"hits": 5, "misses": 3, "size": 2, "hit_rate": 0.625}
        scheduler = SimpleNamespace(costs=SimpleNamespace(cache_stats=stats))
        harness._check_cache_stats(1, scheduler)
        assert [v.check for v in harness.violations] == ["cache_stats"]
        assert "misses=3 but size=2" in harness.violations[0].detail

    def test_sharded_misses_are_checked_summed_over_shards(self):
        engine = OffloadEngine(
            model="opt-1.3b", host="DRAM", placement="helm"
        )
        sharded = ShardedPlacement.plan(engine.placement_result, 2, 1)
        costs = ShardedCostModel(engine, sharded)
        costs.decode_time(2, 64)
        costs.decode_time(2, 64)
        scheduler = SimpleNamespace(costs=costs)
        harness = SanitizerHarness(strict=False)
        assert harness._check_cache_stats(1, scheduler)
        assert harness.violations == []
        # One shard counts a miss that added no entry.
        costs.models[1].misses += 1
        harness._check_cache_stats(2, scheduler)
        assert [v.check for v in harness.violations] == ["cache_stats"]
        assert "misses=3 but size=2" in harness.violations[0].detail

    def test_finish_flags_unaccounted_requests_and_leaked_kv(self):
        harness = SanitizerHarness(strict=False)
        state = SimpleNamespace(
            boundary=9,
            pending=[object()] * 3,
            records=[object()],
            shed_records=[object()],
        )
        scheduler = SimpleNamespace(
            kv=SimpleNamespace(occupancy=lambda: {"DRAM": 123, "SSD": 0})
        )
        harness.finish(state=state, scheduler=scheduler)
        checks = sorted(v.check for v in harness.violations)
        assert checks == ["conservation", "kv_accounting"]
        assert any(
            "leaked" in v.detail for v in harness.violations
        )


class TestStrictness:
    def test_strict_mode_raises_on_first_violation(self):
        harness = SanitizerHarness(strict=True)
        state = SimpleNamespace(timeline=())
        harness._check_clock(1, 10.0, state)
        with pytest.raises(SanitizerError) as excinfo:
            harness._check_clock(2, 5.0, state)
        assert excinfo.value.check == "clock"
        assert excinfo.value.boundary == 2

    def test_non_strict_mode_collects(self):
        harness = SanitizerHarness(strict=False)
        state = SimpleNamespace(timeline=())
        harness._check_clock(1, 10.0, state)
        harness._check_clock(2, 5.0, state)
        harness._check_clock(3, 1.0, state)
        assert len(harness.violations) == 2
        assert all(
            isinstance(v, SanitizerViolation) for v in harness.violations
        )
        report = harness.report()
        assert len(report["violations"]) == 2
        assert report["violations"][0]["boundary"] == 2
