"""Memoized windowed reads equal recomputation.

``WindowedHistogram.quantile`` and ``RollingCounter.count`` cache
answers until the next mutation, and the observer and SLO monitor
bind their gauge handles once per registry.  These tests pin both
against the uncached path: instrument by instrument on random
interleavings of writes and reads, and on one full serving run.
"""

from hypothesis import example, given, settings, strategies as st

from repro.obs import RollingCounter, WindowConfig, WindowedHistogram
from repro.obs.monitor import ServeObserver
from repro.obs.slo import SloMonitor
from repro.serve.arrivals import PoissonProcess
from repro.serve.request import BATCH, INTERACTIVE
from repro.serve.simulator import simulate_serving
from repro.telemetry import Telemetry

CONFIG = WindowConfig(width_s=10.0, windows=4)
BUCKETS = (0.5, 1.0, 2.0, 4.0)
#: Timestamps span many ring lengths, so writes arrive out of order,
#: rotate windows away, and fall off the trailing edge.
times = st.integers(min_value=0, max_value=1000).map(lambda t: t / 10.0)
values = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)
#: A fixed set of reads per example, repeated after every step so a
#: stale memo entry would be read back.
reads = st.lists(
    st.tuples(
        st.sampled_from((0.0, 0.5, 0.9, 0.99, 1.0)),
        st.integers(min_value=1, max_value=CONFIG.windows),
        st.one_of(st.none(), times),
    ),
    min_size=1,
    max_size=4,
)


def _histogram(observations):
    instrument = WindowedHistogram("h", config=CONFIG, buckets=BUCKETS)
    for value, time_s in observations:
        instrument.observe(value, time_s)
    return instrument


def _counter(increments):
    counter = RollingCounter("c", CONFIG)
    for time_s, amount in increments:
        counter.inc(time_s, amount)
    return counter


def _rebuilt_counter(counter):
    clone = RollingCounter("c", CONFIG)
    clone.merge(counter.snapshot())
    return clone


histogram_steps = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), values, times),
        st.tuples(st.just("rotate"), times),
        st.tuples(
            st.just("merge"),
            st.lists(st.tuples(values, times), max_size=4),
        ),
    ),
    min_size=1,
    max_size=12,
)
counter_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("inc"), times, st.integers(min_value=1, max_value=5)
        ),
        st.tuples(
            st.just("merge"),
            st.lists(
                st.tuples(times, st.integers(min_value=1, max_value=5)),
                max_size=4,
            ),
        ),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(histogram_steps, reads)
@example([("observe", 1.0, 5.0), ("observe", 2.0, 6.0)], [(1.0, 4, None)])
@example([("observe", 1.0, 5.0), ("merge", [(2.0, 6.0)])], [(1.0, 4, None)])
@example([("observe", 1.0, 5.0), ("rotate", 45.0)], [(1.0, 4, 5.0)])
def test_histogram_quantile_memo_matches_rebuild(steps, probes):
    instrument = _histogram(())
    for step in steps:
        if step[0] == "observe":
            instrument.observe(step[1], step[2])
        elif step[0] == "rotate":
            instrument.rotate(step[1])
        else:
            instrument.merge(_histogram(step[1]).snapshot())
        fresh = WindowedHistogram.from_snapshot(instrument.snapshot())
        for q, windows, now in probes:
            assert instrument.quantile(q, windows, now) == fresh.quantile(
                q, windows, now
            )


@settings(max_examples=60, deadline=None)
@given(counter_steps, reads)
@example([("inc", 5.0, 1), ("inc", 6.0, 1)], [(0.5, 4, None)])
@example([("inc", 5.0, 1), ("merge", [(6.0, 1)])], [(0.5, 4, None)])
@example([("inc", 5.0, 1), ("inc", 45.0, 1)], [(0.5, 4, 5.0)])
def test_counter_count_memo_matches_rebuild(steps, probes):
    counter = _counter(())
    for step in steps:
        if step[0] == "inc":
            counter.inc(step[1], step[2])
        else:
            counter.merge(_counter(step[1]).snapshot())
        fresh = _rebuilt_counter(counter)
        for _, windows, now in probes:
            assert counter.count(windows, now) == fresh.count(windows, now)
            assert counter.rate(windows, now) == fresh.rate(windows, now)


def _traced_run():
    telemetry = Telemetry.create(tool="test")
    result = simulate_serving(
        model="opt-175b",
        host="NVDRAM",
        placement="helm",
        arrival=PoissonProcess(rate_rps=0.03),
        num_requests=30,
        class_mix=((INTERACTIVE, 0.5), (BATCH, 0.5)),
        seed=13,
        slo=True,
        telemetry=telemetry,
    )
    return result, telemetry


def test_full_run_matches_uncached_reads(monkeypatch):
    """A served run with every memo and bound handle bypassed gives
    the same gauges, alert events, SLO report, records and setup."""
    fast, fast_telemetry = _traced_run()

    quantile = WindowedHistogram.quantile
    count = RollingCounter.count
    gauge = ServeObserver._gauge
    bound_gauges = SloMonitor._bound_gauges

    def uncached_quantile(self, *args, **kwargs):
        self._memo.clear()
        return quantile(self, *args, **kwargs)

    def uncached_count(self, *args, **kwargs):
        self._memo.clear()
        return count(self, *args, **kwargs)

    def unbound_gauge(self, *args):
        self._gauges.clear()
        return gauge(self, *args)

    def unbound_gauges(self):
        self._gauges_for = None
        return bound_gauges(self)

    monkeypatch.setattr(WindowedHistogram, "quantile", uncached_quantile)
    monkeypatch.setattr(RollingCounter, "count", uncached_count)
    monkeypatch.setattr(ServeObserver, "_gauge", unbound_gauge)
    monkeypatch.setattr(SloMonitor, "_bound_gauges", unbound_gauges)
    slow, slow_telemetry = _traced_run()

    fast_bundle = fast_telemetry.bundle()
    slow_bundle = slow_telemetry.bundle()
    names = {entry["name"] for entry in fast_bundle["metrics"]["gauges"]}
    assert any(name.startswith("obs/") for name in names)
    assert any(name.startswith("slo/") for name in names)
    alerts = [
        event
        for span in fast_bundle["spans"]
        for event in span.get("events", ())
        if event["name"] == "slo_alert"
    ]
    assert alerts
    assert fast_bundle["metrics"] == slow_bundle["metrics"]
    assert fast_bundle["spans"] == slow_bundle["spans"]
    assert fast.setup["slo"] == slow.setup["slo"]
    assert fast.records == slow.records
    assert fast.setup == slow.setup
