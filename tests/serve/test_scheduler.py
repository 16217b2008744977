"""Tests for the continuous-batching scheduler (fixed-cost model)."""

import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.serve.arrivals import TraceReplay
from repro.serve.costs import FixedCostModel
from repro.serve.metrics import build_metrics, detect_saturation
from repro.serve.request import (
    BATCH,
    INTERACTIVE,
    STANDARD,
    QosClass,
    RequestSpec,
)
from repro.serve.scheduler import ContinuousBatchingScheduler
from repro.serve.simulator import simulate_serving
from repro.sim.chrome_trace import trace_to_chrome_events


def stream(num, rate, gen_len=5, prompt_len=32, qos=STANDARD.name):
    """A deterministic uniform-spaced arrival stream."""
    return tuple(
        RequestSpec(
            request_id=index,
            arrival_s=index / rate,
            prompt_len=prompt_len,
            gen_len=gen_len,
            qos_class=qos,
        )
        for index in range(num)
    )


def make_scheduler(prefill=1.0, decode=0.5, slots=4, classes=(STANDARD,)):
    return ContinuousBatchingScheduler(
        FixedCostModel(prefill_s=prefill, decode_s=decode, slots=slots),
        classes=classes,
    )


class TestContinuousBatching:
    def test_single_request_latency(self):
        run = make_scheduler().run(stream(1, rate=1.0))
        record = run.records[0]
        # Prefill 1 s + 4 decode iterations of 0.5 s.
        assert record.ttft_s == pytest.approx(1.0)
        assert record.tbt_s == pytest.approx(0.5)
        assert record.e2e_s == pytest.approx(3.0)
        assert run.prefill_iterations == 1
        assert run.decode_iterations == 4

    def test_batch_never_exceeds_kv_limit(self):
        run = make_scheduler(slots=3).run(stream(30, rate=10.0))
        assert max(sample.batch for sample in run.timeline) <= 3
        assert len(run.records) == 30

    def test_late_arrival_joins_running_batch(self):
        """A request arriving mid-decode is admitted at the next
        iteration boundary, not after the first request drains."""
        specs = (
            RequestSpec(request_id=0, arrival_s=0.0, prompt_len=8, gen_len=8),
            RequestSpec(request_id=1, arrival_s=1.6, prompt_len=8, gen_len=2),
        )
        run = make_scheduler().run(specs)
        first, second = run.records
        # Request 0 finishes at 1 + 8*0.5 + 1 (pause for r1's prefill).
        # Request 1's prefill runs at the boundary right after 1.6 s.
        assert second.ttft_s == pytest.approx(3.0 - 1.6)
        assert second.finished_s < first.finished_s
        assert max(sample.batch for sample in run.timeline) == 2

    def test_deterministic(self):
        a = make_scheduler().run(stream(40, rate=2.0))
        b = make_scheduler().run(stream(40, rate=2.0))
        assert a.records == b.records
        assert a.timeline == b.timeline

    def test_all_requests_complete_in_id_order(self):
        run = make_scheduler().run(stream(25, rate=3.0))
        assert [record.request_id for record in run.records] == list(range(25))

    def test_empty_stream_rejected(self):
        with pytest.raises(WorkloadError):
            make_scheduler().run(())

    def test_unknown_class_rejected(self):
        scheduler = make_scheduler(classes=(INTERACTIVE,))
        with pytest.raises(WorkloadError):
            scheduler.run(stream(2, rate=1.0, qos="standard"))

    def test_zero_admission_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            ContinuousBatchingScheduler(
                FixedCostModel(), classes=(STANDARD,), max_batch=0
            )

    @pytest.mark.parametrize("cap", (0, -3))
    def test_caller_cap_below_one_names_the_cap(self, cap):
        with pytest.raises(
            ConfigurationError, match=f"max_batch must be >= 1, got {cap}"
        ):
            ContinuousBatchingScheduler(
                FixedCostModel(), classes=(STANDARD,), max_batch=cap
            )

    def test_computed_cap_below_one_blames_the_placement(self):
        class NoRoom(FixedCostModel):
            def max_concurrency(self, limit=512):
                return 0

        with pytest.raises(
            ConfigurationError, match="the placement admits no sequences"
        ):
            ContinuousBatchingScheduler(NoRoom(), classes=(STANDARD,))

    @pytest.mark.parametrize("field", ("prefill_s", "decode_s"))
    @pytest.mark.parametrize("bad", (float("nan"), float("inf"), 0.0))
    def test_fixed_costs_must_be_positive_and_finite(self, field, bad):
        with pytest.raises(ConfigurationError, match=field):
            FixedCostModel(**{field: bad})

    def test_idle_gap_advances_clock(self):
        specs = (
            RequestSpec(request_id=0, arrival_s=0.0, prompt_len=8, gen_len=1),
            RequestSpec(request_id=1, arrival_s=100.0, prompt_len=8, gen_len=1),
        )
        run = make_scheduler().run(specs)
        assert run.records[1].ttft_s == pytest.approx(1.0)
        assert run.span_s == pytest.approx(101.0)
        assert run.utilization < 0.05


class TestSaturation:
    def test_saturates_above_capacity(self):
        """Offered load >> capacity => waits trend upward."""
        # Capacity: 4 slots / 0.5 s per token, gen 5 -> ~1.6 req/s.
        scheduler = make_scheduler()
        run = scheduler.run(stream(300, rate=8.0))
        metrics = build_metrics(
            run, (STANDARD,),
            scheduler.costs.reference_service_time(32, 5, 4),
        )
        assert metrics.saturated
        assert metrics.utilization > 0.95

    def test_stable_below_capacity(self):
        scheduler = make_scheduler()
        run = scheduler.run(stream(300, rate=0.8))
        metrics = build_metrics(
            run, (STANDARD,),
            scheduler.costs.reference_service_time(32, 5, 4),
        )
        assert not metrics.saturated
        assert metrics.ttft.p95_s < 10.0

    def test_detector_needs_enough_samples(self):
        assert not detect_saturation([100.0] * 5, 1.0)

    def test_short_run_straggler_is_not_saturation(self):
        """Regression: below 20 samples each decile is one request, so
        a single slow straggler at the tail used to flag a run that is
        nowhere near capacity."""
        for num in (10, 15, 19):
            waits = [0.0] * (num - 1) + [50.0]
            assert not detect_saturation(waits, 1.0)
        # With two full deciles the same growth pattern still flags.
        growing = [float(i) for i in range(20)]
        assert detect_saturation(growing, 1.0)


class TestQosPriority:
    def test_interactive_ttft_beats_batch_under_contention(self):
        interleaved = []
        for index in range(120):
            qos = INTERACTIVE if index % 2 == 0 else BATCH
            interleaved.append(
                RequestSpec(
                    request_id=index,
                    arrival_s=index * 0.1,
                    prompt_len=32,
                    gen_len=5,
                    qos_class=qos.name,
                )
            )
        scheduler = make_scheduler(classes=(INTERACTIVE, BATCH))
        run = scheduler.run(tuple(interleaved))
        metrics = build_metrics(
            run, (INTERACTIVE, BATCH),
            scheduler.costs.reference_service_time(32, 5, 4),
        )
        interactive = metrics.per_class["interactive"]
        batch = metrics.per_class["batch"]
        assert interactive.ttft.p95_s <= batch.ttft.p95_s
        assert interactive.ttft.mean_s < batch.ttft.mean_s

    def test_fifo_within_class(self):
        run = make_scheduler(slots=1).run(stream(10, rate=5.0))
        finishes = [record.finished_s for record in run.records]
        assert finishes == sorted(finishes)

    def test_priority_ties_break_by_arrival(self):
        early = QosClass("early", 0, STANDARD.target)
        specs = (
            RequestSpec(0, 0.0, 8, 2, "early"),
            RequestSpec(1, 0.01, 8, 2, "early"),
            RequestSpec(2, 0.02, 8, 2, "early"),
        )
        run = ContinuousBatchingScheduler(
            FixedCostModel(slots=1), classes=(early,)
        ).run(specs)
        admits = [record.admitted_s for record in run.records]
        assert admits == sorted(admits)


class TestTraceExport:
    def test_run_exports_chrome_trace_with_request_spans(self):
        scheduler = make_scheduler(classes=(INTERACTIVE, BATCH, STANDARD))
        run = scheduler.run(stream(12, rate=2.0))
        events = trace_to_chrome_events(run.trace)
        names = {event.get("cat") for event in events}
        assert "prefill" in names and "decode" in names
        assert "request" in names
        spans = [event for event in events if event.get("cat") == "request"]
        assert len(spans) == 12

    def test_gpu_busy_matches_trace(self):
        run = make_scheduler().run(stream(20, rate=2.0))
        busy = run.trace.stream_busy_time("gpu")
        assert busy == pytest.approx(run.gpu_busy_s)


class TestSimulatorFacade:
    def test_simulate_serving_summary(self):
        result = simulate_serving(
            model="opt-1.3b",
            host="DRAM",
            placement="helm",
            arrival=TraceReplay(stream(30, rate=1.0)),
            num_requests=30,
            class_mix=((STANDARD, 1.0),),
            max_batch=2,
        )
        summary = result.summary()
        for key in (
            "ttft_p50_s", "ttft_p95_s", "ttft_p99_s",
            "tbt_p50_s", "tbt_p99_s", "e2e_p99_s",
            "goodput_rps", "slo_attainment", "saturated", "max_batch",
        ):
            assert key in summary, key
        assert summary["max_batch"] == 2
