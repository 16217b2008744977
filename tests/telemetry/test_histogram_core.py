"""The one bucket-histogram core against a test-side oracle.

``telemetry.Histogram`` and every window of ``obs.WindowedHistogram``
are one ``BucketCounts`` core: one bucket search, one fold, one
quantile routine.  These properties pin the core to a plain-Python
oracle, the two families to each other, and both merge rules to the
single-stream result, on drawn streams that include values exactly on
bucket bounds and values past the last bound.
"""

from bisect import bisect_left

from hypothesis import given, settings, strategies as st

from repro.obs import WindowConfig, WindowedHistogram
from repro.telemetry.registry import (
    Histogram,
    MetricsRegistry,
    bucket_quantile,
)

BUCKETS = (0.5, 1.0, 2.0, 4.0)
QS = (0.0, 0.25, 0.5, 0.9, 0.99, 1.0)
#: A ring wide enough to keep every drawn window: no observation is
#: dropped, so a read over the whole ring sees the whole stream.
CONFIG = WindowConfig(width_s=10.0, windows=8)
times = st.integers(min_value=0, max_value=79)

#: Any finite value, with bucket bounds and past-the-end values drawn
#: often.
finite_values = st.one_of(
    st.sampled_from(BUCKETS),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
#: Multiples of 1/8: every partial sum is exact, so a stream summed in
#: any grouping (per window, per replica) gives bit-equal sums.
exact_values = st.one_of(
    st.sampled_from(BUCKETS),
    st.integers(min_value=-80, max_value=800).map(lambda n: n / 8),
)


def _oracle(values):
    counts = [0] * (len(BUCKETS) + 1)
    total = 0.0
    for value in values:
        counts[bisect_left(BUCKETS, value)] += 1
        total += value
    lo = min(values) if values else 0.0
    hi = max(values) if values else 0.0
    return counts, total, lo, hi


def _fields(histogram):
    return (
        list(histogram.counts), histogram.sum, histogram.count,
        histogram.min, histogram.max,
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(finite_values, max_size=40))
def test_registry_histogram_matches_oracle(values):
    histogram = Histogram("h", buckets=BUCKETS)
    for value in values:
        histogram.observe(value)
    counts, total, lo, hi = _oracle(values)
    assert _fields(histogram) == (counts, total, len(values), lo, hi)
    for q in QS:
        assert histogram.quantile(q) == bucket_quantile(
            BUCKETS, counts, q, count=len(values), min_value=lo,
            max_value=hi,
        )


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(exact_values, times), max_size=40))
def test_whole_ring_read_equals_registry_histogram(stream):
    histogram = Histogram("h", buckets=BUCKETS)
    windowed = WindowedHistogram("h", config=CONFIG, buckets=BUCKETS)
    for value, time_s in stream:
        histogram.observe(value)
        windowed.observe(value, time_s)
    end = CONFIG.windows * CONFIG.width_s - 1.0
    recent = windowed.recent(CONFIG.windows, now=end)
    assert recent == {
        "buckets": list(BUCKETS),
        "counts": histogram.counts,
        "count": histogram.count,
        "sum": histogram.sum,
        "min": histogram.min,
        "max": histogram.max,
    }
    assert windowed.quantiles(QS, CONFIG.windows, now=end) == [
        histogram.quantile(q) for q in QS
    ]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(exact_values, times, st.booleans()), max_size=40
    )
)
def test_split_and_merged_equals_single_stream(stream):
    registries = [MetricsRegistry() for _ in range(3)]
    rings = [
        WindowedHistogram("h", config=CONFIG, buckets=BUCKETS)
        for _ in range(3)
    ]
    single, left, right = (
        registry.histogram("h", buckets=BUCKETS) for registry in registries
    )
    for value, time_s, goes_left in stream:
        single.observe(value)
        rings[0].observe(value, time_s)
        (left if goes_left else right).observe(value)
        rings[1 if goes_left else 2].observe(value, time_s)

    merged = MetricsRegistry()
    merged.merge(registries[1].snapshot())
    merged.merge(registries[2].snapshot())
    assert merged.snapshot() == registries[0].snapshot()

    ring = WindowedHistogram("h", config=CONFIG, buckets=BUCKETS)
    ring.merge(rings[1].snapshot())
    ring.merge(rings[2].snapshot())
    assert ring.snapshot() == rings[0].snapshot()
