"""Windowed reads and version-stamped publishes equal recomputation.

``WindowedHistogram.quantile``/``quantiles`` and ``RollingCounter.count``
read the live ring, the observer and SLO monitor bind their gauge
handles once per registry, and both skip an instrument's (or
objective's) reads and gauge writes while its ``(version, end
window)`` stamp is unchanged; the SLO monitor also returns at once
while no objective changed and the end window holds, and a histogram
evicts only when its newest window advances.  These tests pin all of
it against a rebuilt, stamp-free or evict-every-call path: instrument
by instrument on random interleavings of writes and reads (against an
instrument rebuilt from a snapshot), on random interleavings of
observer hooks and decode runs' inner boundaries (with a registry
bound and without), and at every boundary of one full serving run.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from repro.obs import (
    BurnRule,
    RollingCounter,
    SloObjective,
    SloSpec,
    WindowConfig,
    WindowedHistogram,
)
from repro.obs.monitor import ServeObserver
from repro.obs.slo import SloMonitor
from repro.obs.window import _evict
from repro.serve.arrivals import PoissonProcess
from repro.serve.request import BATCH, INTERACTIVE
from repro.serve.simulator import simulate_serving
from repro.telemetry import Telemetry
from repro.telemetry.registry import Gauge

CONFIG = WindowConfig(width_s=10.0, windows=4)
BUCKETS = (0.5, 1.0, 2.0, 4.0)
#: Timestamps span many ring lengths, so writes arrive out of order,
#: rotate windows away, and fall off the trailing edge.
times = st.integers(min_value=0, max_value=1000).map(lambda t: t / 10.0)
values = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)
#: A fixed set of reads per example, repeated after every step.
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
        qs = [q for q, _, _ in probes]
        for q, windows, now in probes:
            assert instrument.quantiles(qs, windows, now) == [
                fresh.quantile(each, windows, now) for each in qs
            ]
            assert instrument.quantile(q, windows, now) == fresh.quantile(
                q, windows, now
            )


class _EagerRotation(WindowedHistogram):
    """Evicts on every rotation, whether or not the newest window
    advanced."""

    def rotate(self, time_s):
        index = self.config.index(time_s)
        if index > self._latest:
            self._latest = index
        if _evict(self._windows, self._latest - self.config.windows + 1):
            self.version += 1


@settings(max_examples=80, deadline=None)
@given(histogram_steps)
@example([("observe", 1.0, 5.0), ("rotate", 45.0), ("rotate", 5.0)])
@example([("observe", 1.0, 95.0), ("merge", [(2.0, 5.0)]), ("rotate", 6.0)])
def test_rotation_evicts_only_when_the_newest_window_advances(steps):
    """Snapshots and versions equal an evict-every-call reference."""
    ours = WindowedHistogram("h", config=CONFIG, buckets=BUCKETS)
    eager = _EagerRotation("h", config=CONFIG, buckets=BUCKETS)
    for step in steps:
        for instrument in (ours, eager):
            if step[0] == "observe":
                instrument.observe(step[1], step[2])
            elif step[0] == "rotate":
                instrument.rotate(step[1])
            else:
                instrument.merge(_histogram(step[1]).snapshot())
        assert ours.snapshot() == eager.snapshot()
        assert ours.version == eager.version


def test_quantiles_answer_from_one_merge(monkeypatch):
    instrument = _histogram([(1.0, 5.0), (3.0, 6.0)])
    merges = []
    recent = WindowedHistogram.recent

    def counting_recent(self, *args, **kwargs):
        merges.append(args)
        return recent(self, *args, **kwargs)

    monkeypatch.setattr(WindowedHistogram, "recent", counting_recent)
    p50, p99 = instrument.quantiles((0.5, 0.99), 2, now=6.0)
    assert len(merges) == 1
    assert instrument.quantile(0.5, 2, now=6.0) == p50
    assert instrument.quantile(0.99, 2, now=6.0) == p99


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


# -- observer and SLO monitor: stamped vs stamp-free ------------------

def _obs_gauges(registry):
    """Every ``obs/``/``slo/`` gauge value, keyed by name and labels."""
    return {
        (entry["name"], tuple(sorted((entry.get("labels") or {}).items()))):
            entry["value"]
        for entry in registry.snapshot()["gauges"]
        if entry["name"].startswith(("obs/", "slo/"))
    }


def _forget_stamps(observer):
    """Forget every stamp, so the next boundary recomputes and
    rewrites everything."""
    observer._stamps.clear()
    if observer.slo is not None:
        observer.slo._stamp = None
        for state in observer.slo._states:
            state.stamp = None


def _traced_run(monkeypatch):
    """One served run, with the ``obs/``/``slo/`` gauges and the alert
    count recorded after every ``on_boundary``."""
    boundaries = []
    on_boundary = ServeObserver.on_boundary

    def recording_boundary(self, now):
        on_boundary(self, now)
        boundaries.append(
            (now, len(self.slo.alerts), _obs_gauges(self._obs.registry))
        )

    monkeypatch.setattr(ServeObserver, "on_boundary", recording_boundary)
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
    monkeypatch.setattr(ServeObserver, "on_boundary", on_boundary)
    return result, telemetry, boundaries


def test_full_run_matches_uncached_reads(monkeypatch):
    """A served run with every bound handle and version stamp
    bypassed gives the same gauges after every boundary, and the same
    alert events, SLO report, records and setup."""
    fast, fast_telemetry, fast_boundaries = _traced_run(monkeypatch)

    gauge = ServeObserver._gauge
    bound_gauges = SloMonitor._bound_gauges
    publish = ServeObserver._publish
    evaluate = SloMonitor.evaluate

    def unbound_gauge(self, *args):
        self._gauges.clear()
        return gauge(self, *args)

    def unbound_gauges(self):
        self._gauges_for = None
        return bound_gauges(self)

    def unstamped_publish(self, now):
        self._stamps.clear()
        return publish(self, now)

    def unstamped_evaluate(self, now):
        self._stamp = None
        for state in self._states:
            state.stamp = None
        return evaluate(self, now)

    monkeypatch.setattr(ServeObserver, "_gauge", unbound_gauge)
    monkeypatch.setattr(SloMonitor, "_bound_gauges", unbound_gauges)
    monkeypatch.setattr(ServeObserver, "_publish", unstamped_publish)
    monkeypatch.setattr(SloMonitor, "evaluate", unstamped_evaluate)
    slow, slow_telemetry, slow_boundaries = _traced_run(monkeypatch)

    assert len(fast_boundaries) > 100
    assert fast_boundaries[-1][1] > 0  # alerts fired during the run
    for fast_step, slow_step in zip(fast_boundaries, slow_boundaries):
        assert fast_step == slow_step
    assert len(fast_boundaries) == len(slow_boundaries)

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


#: Low burn factors over a short ring, so random traffic raises and
#: clears alerts and old windows rotate away.
SPEC = SloSpec(
    objectives=(
        SloObjective(name="all-slo", qos="*", metric="slo", target=0.9),
        SloObjective(
            name="fast-ttft",
            qos="interactive",
            metric="ttft",
            target=0.8,
            threshold_s=1.0,
        ),
    ),
    window=CONFIG,
    burn_rules=(
        BurnRule(factor=2.0, long_windows=2, short_windows=1),
        BurnRule(factor=1.0, long_windows=4, short_windows=2),
    ),
)
qos_names = st.sampled_from(("interactive", "batch"))
finishes = st.tuples(
    st.just("finish"),
    times,
    qos_names,
    values,
    st.booleans(),
)
observer_steps = st.lists(
    st.one_of(
        st.tuples(st.just("arrive"), times),
        finishes,
        st.tuples(st.just("shed"), times, qos_names),
        st.tuples(
            st.just("iterate"), times, st.integers(min_value=1, max_value=8)
        ),
        st.tuples(st.just("boundary"), times),
        st.tuples(
            st.just("run"),
            times,
            st.integers(min_value=1, max_value=8),
            st.lists(
                st.integers(min_value=0, max_value=80).map(lambda t: t / 10.0),
                min_size=1,
                max_size=6,
            ),
        ),
        st.tuples(st.just("rebind")),
        st.tuples(st.just("merge"), st.lists(finishes, max_size=4), times),
        st.tuples(st.just("rollup"), st.lists(finishes, max_size=4), times),
    ),
    min_size=1,
    max_size=30,
)


def _record(step):
    _, when, qos, latency, met = step
    return SimpleNamespace(
        qos_class=qos,
        finished_s=when,
        ttft_s=latency,
        tbt_s=latency / 8.0,
        e2e_s=latency * 2.0,
        slo_met=met,
    )


def _bind(observer, enabled=True):
    telemetry = Telemetry.create(enabled=enabled, tool="test")
    span = telemetry.tracer.start("run", 0.0)
    observer.bind_run(telemetry, span)
    return telemetry, span


def _replica_snapshot(finished):
    replica = ServeObserver(spec=SPEC)
    _bind(replica)
    for step in finished:
        replica.on_finish(_record(step))
    return replica.snapshot()


class _Side:
    """One observer bound to its own telemetry and run span; the
    reference side recomputes everything at every boundary."""

    def __init__(self, stamped, bound):
        self.stamped = stamped
        self.bound = bound
        self.observer = ServeObserver(spec=SPEC, recent_windows=2)
        self.bind()

    def bind(self):
        self.telemetry, self.span = _bind(self.observer, self.bound)

    def boundary(self, now, final):
        if not self.stamped:
            _forget_stamps(self.observer)
        if final:
            self.observer.finalize(now)
        else:
            self.observer.on_boundary(now)

    def run(self, start, size, steps):
        """A committed decode run, shown as ``_ServingLoop.watch``
        shows it: each iteration ends, and each but the last opens an
        inner boundary."""
        end = start
        for index, step in enumerate(steps):
            end += step
            self.observer.on_iteration("decode", size, end)
            if index < len(steps) - 1:
                self.boundary(end, final=False)


def _check(fast, slow):
    assert _obs_gauges(fast.telemetry.registry) == _obs_gauges(
        slow.telemetry.registry
    )
    assert fast.span.events == slow.span.events
    assert fast.observer.report() == slow.observer.report()
    assert fast.observer.snapshot() == slow.observer.snapshot()


def _apply(step, observer):
    """Feed one non-boundary step to ``observer``."""
    kind = step[0]
    if kind == "arrive":
        observer.on_arrival(SimpleNamespace(arrival_s=step[1]))
    elif kind == "finish":
        observer.on_finish(_record(step))
    elif kind == "shed":
        observer.on_shed(SimpleNamespace(shed_s=step[1], qos_class=step[2]))
    else:
        observer.on_iteration("decode", step[2], step[1])


@settings(max_examples=80, deadline=None)
@given(observer_steps, st.booleans())
@example([("finish", 5.0, "batch", 1.0, False), ("boundary", 5.0),
          ("rebind",), ("boundary", 5.0)], True)
@example([("finish", 5.0, "batch", 1.0, False), ("boundary", 5.0),
          ("merge", [("finish", 5.0, "batch", 3.0, True)], 5.0)], True)
@example([("finish", 5.0, "batch", 1.0, False), ("boundary", 5.0),
          ("boundary", 95.0), ("boundary", 5.0)], True)
@example([("finish", 5.0, "batch", 1.0, False),
          ("run", 5.0, 4, [1.0, 2.0, 8.0, 0.0]),
          ("finish", 7.0, "batch", 1.0, False),
          ("run", 18.0, 2, [3.0, 3.0])], True)
@example([("finish", 5.0, "batch", 1.0, False),
          ("run", 5.0, 4, [1.0, 2.0, 8.0, 0.0])], False)
@example([("finish", 5.0, "batch", 1.0, True), ("boundary", 5.0),
          ("shed", 6.0, "batch"), ("boundary", 7.0)], True)
def test_observer_interleavings_match_stamp_free_reference(steps, bound):
    sides = (
        _Side(stamped=True, bound=bound),
        _Side(stamped=False, bound=bound),
    )
    for step in steps:
        kind = step[0]
        if kind == "boundary":
            for side in sides:
                side.boundary(step[1], final=False)
        elif kind == "run":
            for side in sides:
                side.run(*step[1:])
        elif kind == "rebind":
            for side in sides:
                side.bind()
        elif kind in ("merge", "rollup"):
            # A replica's snapshot folds into the live observer, or —
            # as the fleet rollup does — into a fresh, freshly bound
            # observer beside this one's own snapshot.
            snapshot = _replica_snapshot(step[1])
            for side in sides:
                if kind == "rollup":
                    own = side.observer.snapshot()
                    side.observer = ServeObserver(
                        spec=SPEC, recent_windows=2
                    )
                    side.bind()
                    side.observer.merge(own)
                side.observer.merge(snapshot)
                side.boundary(step[2], final=True)
        else:
            for side in sides:
                _apply(step, side.observer)
        _check(*sides)
    for side in sides:
        side.boundary(100.0, final=True)
    _check(*sides)


def test_unchanged_boundary_writes_no_gauge(monkeypatch):
    """Publishing is proportional to change: a boundary in the same
    window with no mutation writes nothing; one token increment
    rewrites only the token-rate gauge."""
    observer = ServeObserver(spec=SPEC)
    _bind(observer)
    observer.on_finish(_record(("finish", 5.0, "interactive", 2.0, False)))
    observer.on_boundary(5.0)
    writes = []
    set_value = Gauge.set

    def counting_set(self, value):
        writes.append(self.name)
        set_value(self, value)

    monkeypatch.setattr(Gauge, "set", counting_set)
    observer.on_boundary(6.0)
    assert writes == []
    observer.on_iteration("decode", 3, 6.0)
    observer.on_boundary(7.0)
    assert writes == ["obs/token_rate_tps"]
    writes.clear()
    observer.on_boundary(15.0)  # next window: every read's end moved
    assert "obs/ttft_p99_s" in writes and "slo/burn_rate" in writes
