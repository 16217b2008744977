"""Registry semantics: counters, gauges, histograms, merge, scoping."""

import pytest

from repro.errors import ConfigurationError, TelemetryError
from repro.telemetry import MetricsRegistry
from repro.telemetry.registry import DEFAULT_TIME_BUCKETS


class TestCounters:
    def test_counts_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("serve/requests")
        counter.inc()
        counter.inc(3)
        assert registry.value("serve/requests") == 4

    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_labels_distinguish_instruments(self):
        registry = MetricsRegistry()
        registry.counter("it", labels={"kind": "prefill"}).inc()
        registry.counter("it", labels={"kind": "decode"}).inc(2)
        assert registry.value("it", labels={"kind": "prefill"}) == 1
        assert registry.value("it", labels={"kind": "decode"}) == 2

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.counter("c", labels={"x": "1", "y": "2"})
        b = registry.counter("c", labels={"y": "2", "x": "1"})
        assert a is b

    def test_rejects_negative_increment(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(TelemetryError):
            counter.inc(-1)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(TelemetryError):
            registry.gauge("name")

    def test_empty_name_rejected(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().counter("")


class TestGauges:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("serve/depth")
        gauge.set(5)
        gauge.set(2)
        assert registry.value("serve/depth") == 2

    def test_inc_can_go_down(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(3)
        gauge.inc(-1)
        assert gauge.value == 2


class TestHistograms:
    def test_buckets_and_extrema(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1]  # <=1, <=10, +Inf
        assert histogram.count == 3
        assert histogram.min == 0.5
        assert histogram.max == 50.0
        assert histogram.sum == pytest.approx(55.5)
        assert histogram.mean == pytest.approx(18.5)

    def test_zero_samples_is_nan_free(self):
        histogram = MetricsRegistry().histogram("h")
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.min == 0.0 and histogram.max == 0.0

    def test_value_is_none_for_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(1.0)
        assert registry.value("h") is None

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_TIME_BUCKETS) == sorted(
            set(DEFAULT_TIME_BUCKETS)
        )

    def test_bad_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(TelemetryError):
            registry.histogram("h2", buckets=())

    @pytest.mark.parametrize(
        "bad", (float("nan"), float("inf"), float("-inf"))
    )
    def test_non_finite_observation_rejected(self, bad):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", labels={"class": "a"})
        hist.observe(0.5)
        before = registry.snapshot()
        with pytest.raises(TelemetryError, match="'lat'"):
            hist.observe(bad)
        assert registry.snapshot() == before
        assert hist.quantile(0.99) == 0.5


class TestDisabled:
    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc(100)
        registry.gauge("g").set(5)
        registry.histogram("h").observe(1.0)
        assert len(registry) == 0
        snap = registry.snapshot()
        assert snap == {"counters": [], "gauges": [], "histograms": []}

    def test_disabled_instruments_are_shared_noops(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is registry.histogram("b")


class TestSnapshotAndMerge:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("serve/requests").inc(4)
        registry.gauge("serve/depth").set(2)
        histogram = registry.histogram(
            "serve/wait_s", labels={"qos": "batch"}, buckets=(1.0, 10.0)
        )
        histogram.observe(0.5)
        histogram.observe(20.0)
        return registry

    def test_snapshot_round_trips(self):
        registry = self._populated()
        clone = MetricsRegistry.from_snapshot(registry.snapshot())
        assert clone.snapshot() == registry.snapshot()

    def test_snapshot_is_deterministic(self):
        a = self._populated().snapshot()
        b = self._populated().snapshot()
        assert a == b

    def test_merge_adds_counters_and_buckets(self):
        a = self._populated()
        a.merge(self._populated().snapshot())
        assert a.value("serve/requests") == 8
        histogram = a.histogram(
            "serve/wait_s", labels={"qos": "batch"}, buckets=(1.0, 10.0)
        )
        assert histogram.count == 4
        assert histogram.counts == [2, 0, 2]
        assert histogram.min == 0.5 and histogram.max == 20.0

    def test_merge_gauge_takes_incoming(self):
        a = self._populated()
        incoming = self._populated()
        incoming.gauge("serve/depth").set(9)
        a.merge(incoming.snapshot())
        assert a.value("serve/depth") == 9

    def test_merge_mismatched_buckets_raises(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ConfigurationError):
            a.merge(b.snapshot())

    def test_merge_mismatch_leaves_registry_untouched(self):
        # The failing merge must not half-apply: counters sorting
        # before the bad histogram stay unchanged.
        a = MetricsRegistry()
        a.counter("aaa/hits").inc(3)
        a.histogram("zzz/wait", buckets=(1.0,)).observe(0.5)
        before = a.snapshot()
        b = MetricsRegistry()
        b.counter("aaa/hits").inc(5)
        b.histogram("zzz/wait", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ConfigurationError):
            a.merge(b.snapshot())
        assert a.snapshot() == before

    def test_merge_malformed_counts_raises(self):
        a = MetricsRegistry()
        bad = {
            "counters": [],
            "gauges": [],
            "histograms": [
                {
                    "name": "h",
                    "labels": {},
                    "buckets": [1.0, 2.0],
                    "counts": [1, 0],  # needs len(buckets) + 1
                    "sum": 0.5,
                    "count": 1,
                    "min": 0.5,
                    "max": 0.5,
                }
            ],
        }
        with pytest.raises(ConfigurationError):
            a.merge(bad)

    def test_merge_extra_labels_keep_replicas_apart(self):
        fleet = MetricsRegistry()
        for replica in range(2):
            local = MetricsRegistry()
            local.counter("serve/requests").inc(replica + 1)
            local.histogram("serve/wait_s", buckets=(1.0,)).observe(0.5)
            fleet.merge(
                local.snapshot(), extra_labels={"replica": str(replica)}
            )
        assert fleet.value("serve/requests", {"replica": "0"}) == 1
        assert fleet.value("serve/requests", {"replica": "1"}) == 2
        assert len(fleet) == 4

    def test_merge_extra_labels_override_collisions(self):
        # An incoming label with the same key loses to the stamp —
        # the roll-up's provenance wins over self-reported labels.
        fleet = MetricsRegistry()
        local = MetricsRegistry()
        local.counter("serve/requests", labels={"replica": "bogus"}).inc(7)
        fleet.merge(local.snapshot(), extra_labels={"replica": "3"})
        assert fleet.value("serve/requests", {"replica": "3"}) == 7
        assert fleet.value("serve/requests", {"replica": "bogus"}) is None


class TestScoped:
    def test_prefixes_names(self):
        registry = MetricsRegistry()
        scope = registry.scoped("pricing/cache")
        scope.counter("hits").inc()
        assert registry.value("pricing/cache/hits") == 1

    def test_nested_scopes(self):
        registry = MetricsRegistry()
        scope = registry.scoped("serve").scoped("sched")
        scope.gauge("depth").set(1)
        assert registry.value("serve/sched/depth") == 1

    def test_empty_namespace_rejected(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().scoped("")
