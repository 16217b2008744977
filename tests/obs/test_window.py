"""Windowed instruments: quantiles, rotation, replica mergeability."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TelemetryError
from repro.obs import RollingCounter, WindowConfig, WindowedHistogram
from repro.telemetry.registry import Histogram


class TestHistogramQuantile:
    """``Histogram.quantile`` against ``numpy.percentile`` ground truth.

    Bucket interpolation can only be as sharp as its bucket edges, so
    the agreement bound is one bucket width.
    """

    BUCKETS = tuple(np.linspace(0.1, 10.0, 100))

    def _histogram(self, samples):
        histogram = Histogram("h", buckets=self.BUCKETS)
        for value in samples:
            histogram.observe(float(value))
        return histogram

    def test_uniform(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(0.5, 9.5, size=4000)
        histogram = self._histogram(samples)
        for q in (0.5, 0.9, 0.99):
            assert histogram.quantile(q) == pytest.approx(
                np.percentile(samples, q * 100), abs=0.2
            )

    def test_bimodal(self):
        rng = np.random.default_rng(1)
        samples = np.concatenate(
            [
                rng.normal(1.0, 0.05, size=2000),
                rng.normal(8.0, 0.05, size=2000),
            ]
        ).clip(0.2, 9.8)
        histogram = self._histogram(samples)
        for q in (0.25, 0.4, 0.75, 0.99):
            assert histogram.quantile(q) == pytest.approx(
                np.percentile(samples, q * 100), abs=0.2
            )
        # The median of an exactly split bimodal is any point of the
        # inter-mode gap; the estimator must stay inside it.
        assert samples[samples < 4].max() <= histogram.quantile(
            0.5
        ) + 0.2 and histogram.quantile(0.5) <= samples[samples > 4].min()

    def test_single_bucket_mass(self):
        """All mass in one bucket degrades to the observed extrema,
        not the bucket edges."""
        histogram = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for _ in range(50):
            histogram.observe(4.2)
        assert histogram.quantile(0.0) == pytest.approx(4.2)
        assert histogram.quantile(0.5) == pytest.approx(4.2)
        assert histogram.quantile(1.0) == pytest.approx(4.2)

    def test_empty_is_zero(self):
        assert Histogram("h").quantile(0.99) == 0.0

    def test_overflow_bucket_answers_max(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(5.0)
        histogram.observe(7.0)
        assert histogram.quantile(1.0) == pytest.approx(7.0)


class TestWindowConfig:
    def test_absolute_indexing(self):
        config = WindowConfig(width_s=60.0)
        assert config.index(0.0) == 0
        assert config.index(59.999) == 0
        assert config.index(60.0) == 1
        assert config.index(3600.0) == 60

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WindowConfig(width_s=0.0)
        with pytest.raises(ConfigurationError):
            WindowConfig(windows=1)


class TestWindowedHistogram:
    def test_recent_merges_trailing_windows(self):
        instrument = WindowedHistogram(
            "ttft", config=WindowConfig(width_s=10.0, windows=4)
        )
        instrument.observe(1.0, time_s=5.0)
        instrument.observe(2.0, time_s=15.0)
        instrument.observe(3.0, time_s=25.0)
        assert instrument.recent(1, now=25.0)["count"] == 1
        assert instrument.recent(3, now=25.0)["count"] == 3
        # A later now leaves old windows out of the aggregate.
        assert instrument.recent(1, now=45.0)["count"] == 0

    def test_rotation_evicts_and_counts_drops(self):
        instrument = WindowedHistogram(
            "ttft", config=WindowConfig(width_s=10.0, windows=2)
        )
        instrument.observe(1.0, time_s=5.0)
        instrument.observe(2.0, time_s=95.0)  # rotates window 0 away
        instrument.observe(3.0, time_s=5.0)  # older than the ring
        assert instrument.dropped == 1
        assert instrument.recent(2, now=95.0)["count"] == 1

    def test_merge_disjoint_replicas_equals_single_stream(self):
        """Two replicas observing disjoint slices of one stream merge
        to exactly the instrument the full stream produces."""
        config = WindowConfig(width_s=10.0, windows=8)
        stream = [(0.5 * i, 12.0 + i) for i in range(20)]
        single = WindowedHistogram("ttft", config=config)
        a = WindowedHistogram("ttft", config=config)
        b = WindowedHistogram("ttft", config=config)
        for index, (value, time_s) in enumerate(stream):
            single.observe(value, time_s)
            (a if index % 2 else b).observe(value, time_s)
        a.merge(b.snapshot())
        assert a.snapshot() == single.snapshot()
        for q in (0.5, 0.99):
            assert a.quantile(q, windows=8, now=31.0) == single.quantile(
                q, windows=8, now=31.0
            )

    def test_merge_is_order_insensitive(self):
        config = WindowConfig(width_s=10.0, windows=8)
        parts = []
        for seed in (0, 1, 2):
            part = WindowedHistogram("ttft", config=config)
            for i in range(5):
                part.observe(seed + 0.1 * i, time_s=10.0 * seed + i)
            parts.append(part)
        forward = WindowedHistogram("ttft", config=config)
        for part in parts:
            forward.merge(part.snapshot())
        backward = WindowedHistogram("ttft", config=config)
        for part in reversed(parts):
            backward.merge(part.snapshot())
        assert forward.snapshot() == backward.snapshot()

    def test_merge_rejects_mismatched_shape(self):
        a = WindowedHistogram("ttft", buckets=(1.0, 2.0))
        b = WindowedHistogram("ttft", buckets=(1.0, 3.0))
        with pytest.raises(ConfigurationError):
            a.merge(b.snapshot())
        c = WindowedHistogram(
            "ttft", config=WindowConfig(width_s=30.0)
        )
        with pytest.raises(ConfigurationError):
            WindowedHistogram("ttft").merge(c.snapshot())

    def test_reads_reject_spans_outside_the_ring(self):
        instrument = WindowedHistogram(
            "ttft", config=WindowConfig(width_s=60.0, windows=4)
        )
        instrument.observe(1.0, time_s=10.0)
        for k in (0, 5):
            with pytest.raises(ConfigurationError):
                instrument.recent(k)
            with pytest.raises(ConfigurationError):
                instrument.quantile(0.5, windows=k)
        assert instrument.recent(4)["count"] == 1

    def test_wider_than_ring_rate_is_rejected_not_under_reported(self):
        """A 4-window ring cannot answer a 50-window rate: it used to
        divide the retained observations by 50 windows."""
        instrument = WindowedHistogram(
            "ttft", config=WindowConfig(width_s=60.0, windows=4)
        )
        for step in range(101):
            instrument.observe(1.0, time_s=10.0 * step)
        with pytest.raises(ConfigurationError):
            instrument.rate(windows=50)
        # Three full windows at one observation per 10 s.
        assert instrument.rate(windows=3, now=959.0) == pytest.approx(0.1)

    def test_snapshot_round_trip(self):
        instrument = WindowedHistogram("ttft")
        instrument.observe(1.5, time_s=10.0)
        instrument.observe(2.5, time_s=70.0)
        clone = WindowedHistogram.from_snapshot(instrument.snapshot())
        assert clone.snapshot() == instrument.snapshot()


class TestRollingCounter:
    def test_windowed_counts_and_rates(self):
        counter = RollingCounter(
            "arrivals", WindowConfig(width_s=10.0, windows=4)
        )
        for time_s in (1.0, 2.0, 11.0, 21.0):
            counter.inc(time_s)
        assert counter.count(1, now=21.0) == 1
        assert counter.count(3, now=21.0) == 4
        assert counter.rate(2, now=21.0) == pytest.approx(2 / 20.0)
        assert counter.total == 4

    def test_merge_preserves_rotated_out_totals(self):
        """The cumulative total survives a merge even when the source
        ring already rotated its early windows away."""
        config = WindowConfig(width_s=10.0, windows=2)
        source = RollingCounter("completions", config)
        for time_s in (5.0, 15.0, 95.0):
            source.inc(time_s)
        assert source.total == 3  # ring only retains the last window
        target = RollingCounter("completions", config)
        target.inc(96.0)
        target.merge(source.snapshot())
        assert target.total == 4
        assert target.count(1, now=96.0) == 2

    def test_merge_disjoint_equals_single(self):
        config = WindowConfig(width_s=10.0, windows=8)
        single = RollingCounter("arrivals", config)
        a = RollingCounter("arrivals", config)
        b = RollingCounter("arrivals", config)
        for i in range(12):
            single.inc(i * 3.0)
            (a if i % 2 else b).inc(i * 3.0)
        a.merge(b.snapshot())
        assert a.snapshot() == single.snapshot()

    def test_reads_reject_spans_outside_the_ring(self):
        counter = RollingCounter(
            "arrivals", WindowConfig(width_s=60.0, windows=4)
        )
        counter.inc(10.0)
        for k in (-1, 0, 5):
            with pytest.raises(ConfigurationError):
                counter.count(k)
            with pytest.raises(ConfigurationError):
                counter.rate(k)
        assert counter.count(4) == 1

    def test_wider_than_ring_rate_is_rejected_not_under_reported(self):
        counter = RollingCounter(
            "arrivals", WindowConfig(width_s=60.0, windows=4)
        )
        for step in range(101):
            counter.inc(10.0 * step)
        with pytest.raises(ConfigurationError):
            counter.rate(50)
        assert counter.rate(3, now=959.0) == pytest.approx(0.1)

    def test_increment_older_than_the_ring_opens_no_window(self):
        counter = RollingCounter(
            "arrivals", WindowConfig(width_s=60.0, windows=4)
        )
        counter.inc(500.0)
        counter.inc(10.0)
        assert counter.snapshot()["windows"] == {"8": 1.0}
        assert counter.total == 2.0
        assert counter.count(4, now=500.0) == 1.0


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_histogram_rejects_non_finite_time_and_value(self, bad):
        instrument = WindowedHistogram("ttft_s:standard")
        instrument.observe(1.0, 5.0)
        before = instrument.snapshot()
        with pytest.raises(TelemetryError, match="ttft_s:standard.*time_s"):
            instrument.observe(1.0, bad)
        with pytest.raises(TelemetryError, match="ttft_s:standard.*value"):
            instrument.observe(bad, 5.0)
        assert instrument.snapshot() == before
        assert instrument.quantile(0.99) == 1.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_counter_rejects_non_finite_time_and_amount(self, bad):
        counter = RollingCounter("tokens")
        counter.inc(5.0, 2)
        before = counter.snapshot()
        with pytest.raises(TelemetryError, match="tokens.*time_s"):
            counter.inc(bad)
        with pytest.raises(TelemetryError, match="tokens.*amount"):
            counter.inc(5.0, bad)
        assert counter.snapshot() == before
