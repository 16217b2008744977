"""Tests for the discrete-event engine and streams."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.engine import SimEngine


class TestClock:
    def test_advances_monotonically(self):
        clock = SimClock()
        clock.advance_to(1.0)
        clock.advance_to(1.0)
        with pytest.raises(SimulationError):
            clock.advance_to(0.5)

    def test_cannot_start_negative(self):
        with pytest.raises(SimulationError):
            SimClock(start=-1)

    @pytest.mark.parametrize("bad", (float("nan"), float("inf")))
    def test_rejects_non_finite_times(self, bad):
        clock = SimClock()
        clock.advance_to(2.0)
        with pytest.raises(SimulationError, match="non-finite"):
            clock.advance_to(bad)
        assert clock.now == 2.0
        with pytest.raises(SimulationError):
            SimClock(start=bad)

    def test_nan_duration_cannot_poison_the_engine(self):
        engine = SimEngine()
        engine.stream("gpu").enqueue(float("nan"), label="bad")
        with pytest.raises(SimulationError, match="non-finite"):
            engine.run()
        assert engine.now == 0.0

    def test_reset(self):
        clock = SimClock()
        clock.advance_to(5)
        clock.reset()
        assert clock.now == 0.0


class TestStreams:
    def test_stream_is_in_order(self):
        engine = SimEngine()
        stream = engine.stream("s")
        first = stream.enqueue(2.0, label="a")
        second = stream.enqueue(1.0, label="b")
        engine.run()
        assert first.end_time == pytest.approx(2.0)
        assert second.start_time == pytest.approx(2.0)
        assert second.end_time == pytest.approx(3.0)

    def test_independent_streams_overlap(self):
        engine = SimEngine()
        a = engine.stream("a").enqueue(2.0)
        b = engine.stream("b").enqueue(3.0)
        total = engine.run()
        assert total == pytest.approx(3.0)
        assert a.start_time == b.start_time == 0.0

    def test_cross_stream_dependency(self):
        engine = SimEngine()
        load = engine.stream("h2d").enqueue(0.010, label="load")
        compute = engine.stream("compute").enqueue(
            0.002, label="compute", deps=[load]
        )
        engine.run()
        assert compute.start_time == pytest.approx(0.010)
        assert compute.end_time == pytest.approx(0.012)

    def test_flexgen_sync_semantics(self):
        """max(load, compute) per step, the paper's Listing 1."""
        engine = SimEngine()
        h2d = engine.stream("h2d")
        compute = engine.stream("compute")
        load1 = h2d.enqueue(0.010)
        comp1 = compute.enqueue(0.004, deps=[load1])
        # step 2: both gated on step 1's sync (load2 + comp1)
        load2 = h2d.enqueue(0.003, deps=[comp1])
        comp2 = compute.enqueue(0.008, deps=[load2])
        engine.run()
        # per-step time: 10ms (load1) + max(4, ...)...
        assert comp2.end_time == pytest.approx(0.010 + 0.004 + 0.003 + 0.008)

    def test_zero_duration_barrier(self):
        engine = SimEngine()
        a = engine.stream("a").enqueue(1.0)
        b = engine.stream("b").enqueue(2.0)
        barrier = engine.stream("a").barrier([a, b])
        engine.run()
        assert barrier.end_time == pytest.approx(2.0)

    def test_negative_duration_rejected(self):
        engine = SimEngine()
        with pytest.raises(SimulationError):
            engine.stream("s").enqueue(-1.0)

    def test_cross_engine_dependency_rejected(self):
        engine_a = SimEngine()
        engine_b = SimEngine()
        op = engine_a.stream("s").enqueue(1.0)
        with pytest.raises(SimulationError):
            engine_b.stream("s").enqueue(1.0, deps=[op])

    def test_stream_identity(self):
        engine = SimEngine()
        assert engine.stream("x") is engine.stream("x")

    def test_trace_records_completed_ops(self):
        engine = SimEngine()
        engine.stream("s").enqueue(1.0, label="op", category="compute")
        engine.run()
        records = engine.trace.filter(category="compute")
        assert len(records) == 1
        assert records[0].label == "op"
        assert records[0].duration == pytest.approx(1.0)

    def test_enqueue_after_run_continues(self):
        engine = SimEngine()
        engine.stream("s").enqueue(1.0)
        engine.run()
        late = engine.stream("s").enqueue(1.0)
        engine.run()
        assert late.end_time == pytest.approx(2.0)

    @given(
        durations=st.lists(
            st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30
        )
    )
    def test_single_stream_serializes_exactly(self, durations):
        engine = SimEngine()
        stream = engine.stream("s")
        ops = [stream.enqueue(duration) for duration in durations]
        total = engine.run()
        assert total == pytest.approx(sum(durations))
        for earlier, later in zip(ops, ops[1:]):
            assert later.start_time == pytest.approx(earlier.end_time)

    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0),
                st.floats(min_value=0.0, max_value=5.0),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_zigzag_equals_sum_of_maxima(self, pairs):
        """The DES must agree with the analytic per-step max() model."""
        engine = SimEngine()
        h2d = engine.stream("h2d")
        compute = engine.stream("compute")
        sync_deps = []
        for load_duration, compute_duration in pairs:
            load = h2d.enqueue(load_duration, deps=sync_deps)
            comp = compute.enqueue(compute_duration, deps=sync_deps)
            sync_deps = [load, comp]
        total = engine.run()
        expected = sum(max(l, c) for l, c in pairs)
        assert total == pytest.approx(expected)
