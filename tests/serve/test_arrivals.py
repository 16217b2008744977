"""Tests for arrival processes, length sampling, and trace files."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.serve.arrivals import (
    DiurnalProcess,
    FlashCrowdProcess,
    MmppProcess,
    PoissonProcess,
    TraceReplay,
    generate_requests,
    load_trace,
    save_trace,
)
from repro.serve.request import BATCH, INTERACTIVE, RequestSpec
from repro.workloads.lengths import LengthDistribution


class TestPoisson:
    def test_mean_rate(self):
        process = PoissonProcess(rate_rps=2.0)
        times = process.arrival_times(4000, np.random.default_rng(0))
        assert times[-1] == pytest.approx(4000 / 2.0, rel=0.1)
        assert np.all(np.diff(times) > 0)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            PoissonProcess(rate_rps=0.0)


class TestMmpp:
    def test_burstier_than_poisson(self):
        """MMPP interarrival times have a higher coefficient of
        variation than the memoryless process at the same mean rate."""
        mmpp = MmppProcess(
            base_rate_rps=1.0, burst_rate_rps=20.0,
            mean_base_s=50.0, mean_burst_s=10.0,
        )
        poisson = PoissonProcess(rate_rps=mmpp.mean_rate_rps)
        rng = np.random.default_rng(7)
        gaps_m = np.diff(mmpp.arrival_times(4000, rng))
        gaps_p = np.diff(poisson.arrival_times(4000, rng))
        cv_m = gaps_m.std() / gaps_m.mean()
        cv_p = gaps_p.std() / gaps_p.mean()
        assert cv_m > cv_p * 1.2

    def test_mean_rate_blends_states(self):
        mmpp = MmppProcess(
            base_rate_rps=1.0, burst_rate_rps=5.0,
            mean_base_s=30.0, mean_burst_s=10.0,
        )
        assert mmpp.mean_rate_rps == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            MmppProcess(1.0, 0.5, 10.0, 10.0)   # burst below base


class TestGenerateRequests:
    def test_deterministic(self):
        kwargs = dict(
            process=PoissonProcess(0.5),
            num_requests=100,
            prompt_lengths=LengthDistribution.lognormal(128),
            gen_lengths=LengthDistribution.uniform(8, 64),
            class_mix=((INTERACTIVE, 0.5), (BATCH, 0.5)),
            seed=11,
        )
        assert generate_requests(**kwargs) == generate_requests(**kwargs)

    def test_seed_changes_stream(self):
        a = generate_requests(PoissonProcess(0.5), 50, seed=1)
        b = generate_requests(PoissonProcess(0.5), 50, seed=2)
        assert a != b

    def test_lengths_and_classes_sampled(self):
        specs = generate_requests(
            PoissonProcess(1.0),
            200,
            prompt_lengths=LengthDistribution.uniform(32, 256),
            gen_lengths=LengthDistribution.uniform(4, 40),
            class_mix=((INTERACTIVE, 0.7), (BATCH, 0.3)),
            seed=3,
        )
        assert len({spec.prompt_len for spec in specs}) > 10
        assert {spec.qos_class for spec in specs} == {"interactive", "batch"}
        assert all(32 <= spec.prompt_len <= 256 for spec in specs)
        assert all(4 <= spec.gen_len <= 40 for spec in specs)


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        specs = generate_requests(
            PoissonProcess(1.0), 40,
            prompt_lengths=LengthDistribution.lognormal(100),
            class_mix=((INTERACTIVE, 1.0),),
            seed=5,
        )
        path = str(tmp_path / "stream.jsonl")
        save_trace(specs, path)
        assert load_trace(path) == specs

    def test_replay_preserves_stream(self):
        specs = generate_requests(PoissonProcess(1.0), 30, seed=9)
        replayed = generate_requests(TraceReplay(specs=specs), 0)
        assert replayed == specs

    def test_bad_trace_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"request_id": 1}\n')
        with pytest.raises(WorkloadError):
            load_trace(str(path))

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(WorkloadError):
            load_trace(str(path))


class TestTraceBounds:
    """Per-line bounds checks: a bad record fails at the file
    boundary with its path:line_no, not deep inside the scheduler."""

    def _line(self, **overrides):
        payload = {
            "request_id": 0, "arrival_s": 1.0,
            "prompt_len": 8, "gen_len": 4,
        }
        payload.update(overrides)
        import json

        return json.dumps(payload)

    def _expect_bad_line(self, tmp_path, line, line_no=1, prefix=""):
        path = tmp_path / "trace.jsonl"
        path.write_text(prefix + line + "\n")
        with pytest.raises(
            WorkloadError, match=rf"trace\.jsonl:{line_no}: bad trace"
        ):
            load_trace(str(path))

    def test_zero_prompt_rejected_with_line_number(self, tmp_path):
        self._expect_bad_line(tmp_path, self._line(prompt_len=0))

    def test_negative_gen_len_rejected(self, tmp_path):
        self._expect_bad_line(tmp_path, self._line(gen_len=-3))

    def test_negative_arrival_rejected(self, tmp_path):
        self._expect_bad_line(tmp_path, self._line(arrival_s=-0.5))

    def test_non_finite_arrival_rejected(self, tmp_path):
        self._expect_bad_line(tmp_path, self._line(arrival_s="nan"))

    def test_negative_request_id_rejected(self, tmp_path):
        self._expect_bad_line(tmp_path, self._line(request_id=-1))

    def test_prefix_at_least_prompt_rejected(self, tmp_path):
        self._expect_bad_line(
            tmp_path,
            self._line(prompt_len=8, prefix_len=8, prefix_group="a"),
        )

    def test_error_names_the_offending_line(self, tmp_path):
        good = self._line()
        self._expect_bad_line(
            tmp_path,
            self._line(request_id=1, gen_len=0),
            line_no=2,
            prefix=good + "\n",
        )

    def test_valid_records_round_trip_unchanged(self, tmp_path):
        specs = generate_requests(
            PoissonProcess(1.0), 25,
            class_mix=((INTERACTIVE, 0.5), (BATCH, 0.5)),
            seed=13,
        )
        path = str(tmp_path / "ok.jsonl")
        save_trace(specs, path)
        assert load_trace(path) == specs


class TestDiurnal:
    def test_rate_swings_between_base_and_peak(self):
        process = DiurnalProcess(
            base_rate_rps=0.5, peak_rate_rps=5.0, period_s=200.0
        )
        assert process.rate_at(0.0) == pytest.approx(0.5)
        assert process.rate_at(100.0) == pytest.approx(5.0)
        assert process.rate_at(200.0) == pytest.approx(0.5)
        assert process.mean_rate_rps == pytest.approx(2.75)

    def test_deterministic_in_seed(self):
        process = DiurnalProcess(
            base_rate_rps=0.5, peak_rate_rps=5.0, period_s=100.0
        )
        first = process.arrival_times(50, np.random.default_rng(3))
        second = process.arrival_times(50, np.random.default_rng(3))
        assert np.array_equal(first, second)

    def test_peak_half_is_denser_than_trough_half(self):
        process = DiurnalProcess(
            base_rate_rps=0.2, peak_rate_rps=4.0, period_s=200.0
        )
        times = process.arrival_times(400, np.random.default_rng(0))
        period = times % 200.0
        near_peak = np.sum((period > 50.0) & (period < 150.0))
        assert near_peak > 0.7 * len(times)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            DiurnalProcess(
                base_rate_rps=0.0, peak_rate_rps=1.0, period_s=10.0
            )
        with pytest.raises(WorkloadError):
            DiurnalProcess(
                base_rate_rps=2.0, peak_rate_rps=1.0, period_s=10.0
            )
        with pytest.raises(WorkloadError):
            DiurnalProcess(
                base_rate_rps=0.5, peak_rate_rps=1.0, period_s=0.0
            )


class TestFlashCrowd:
    def test_piecewise_rate_shape(self):
        process = FlashCrowdProcess(
            base_rate_rps=0.5, peak_rate_rps=5.0,
            start_s=100.0, ramp_s=10.0, hold_s=50.0, decay_s=20.0,
        )
        assert process.rate_at(0.0) == pytest.approx(0.5)
        assert process.rate_at(105.0) == pytest.approx(2.75)
        assert process.rate_at(120.0) == pytest.approx(5.0)
        assert process.rate_at(170.0) == pytest.approx(2.75)
        assert process.rate_at(500.0) == pytest.approx(0.5)

    def test_deterministic_in_seed(self):
        process = FlashCrowdProcess(
            base_rate_rps=0.5, peak_rate_rps=5.0,
            start_s=20.0, ramp_s=5.0, hold_s=30.0, decay_s=5.0,
        )
        first = process.arrival_times(60, np.random.default_rng(7))
        second = process.arrival_times(60, np.random.default_rng(7))
        assert np.array_equal(first, second)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            FlashCrowdProcess(
                base_rate_rps=0.5, peak_rate_rps=0.4,
                start_s=10.0, ramp_s=1.0, hold_s=1.0, decay_s=1.0,
            )
        with pytest.raises(WorkloadError):
            FlashCrowdProcess(
                base_rate_rps=0.5, peak_rate_rps=5.0,
                start_s=-1.0, ramp_s=1.0, hold_s=1.0, decay_s=1.0,
            )


class TestLengthDistribution:
    def test_parse_formats(self):
        assert LengthDistribution.parse("128") == LengthDistribution.fixed(128)
        assert LengthDistribution.parse("fixed:64").low == 64
        uniform = LengthDistribution.parse("uniform:16:48")
        assert (uniform.low, uniform.high) == (16, 48)
        lognormal = LengthDistribution.parse("lognormal:100:0.4")
        assert lognormal.median == 100 and lognormal.sigma == 0.4

    def test_parse_rejects_garbage(self):
        for spec in ("", "normal:5", "uniform:abc:2", "fixed"):
            with pytest.raises(WorkloadError):
                LengthDistribution.parse(spec)

    def test_sampling_respects_bounds(self):
        rng = np.random.default_rng(0)
        values = LengthDistribution.lognormal(
            128, sigma=1.0, low=16, high=512
        ).sample(rng, 1000)
        assert values.min() >= 16 and values.max() <= 512
        fixed = LengthDistribution.fixed(21).sample(rng, 10)
        assert np.all(fixed == 21)

    def test_spec_validation(self):
        with pytest.raises(WorkloadError):
            LengthDistribution.uniform(10, 5)
        with pytest.raises(WorkloadError):
            LengthDistribution(kind="lognormal", low=1, high=10)

    def test_request_spec_validation(self):
        with pytest.raises(WorkloadError):
            RequestSpec(request_id=0, arrival_s=-1.0, prompt_len=8, gen_len=4)
        with pytest.raises(WorkloadError):
            RequestSpec(request_id=0, arrival_s=0.0, prompt_len=0, gen_len=4)


NAN = float("nan")
INF = float("inf")
DIURNAL = dict(base_rate_rps=0.5, peak_rate_rps=5.0, period_s=200.0)
FLASH = dict(
    base_rate_rps=0.5, peak_rate_rps=5.0,
    start_s=100.0, ramp_s=10.0, hold_s=50.0, decay_s=20.0,
)
MMPP = dict(
    base_rate_rps=1.0, burst_rate_rps=20.0,
    mean_base_s=50.0, mean_burst_s=10.0,
)
PARAMETERS = [
    (PoissonProcess, dict(rate_rps=1.0), "rate_rps"),
    *((MmppProcess, MMPP, name) for name in MMPP),
    *((DiurnalProcess, DIURNAL, name) for name in DIURNAL),
    (DiurnalProcess, DIURNAL, "phase_s"),
    *((FlashCrowdProcess, FLASH, name) for name in FLASH),
]


class TestNonFiniteParameters:
    """NaN passes every ``<= 0`` check and an infinite rate collapses
    the stream onto t=0; both fail at construction, naming the field."""

    @pytest.mark.parametrize("value", [NAN, INF, -INF])
    @pytest.mark.parametrize(
        "cls, base, field",
        PARAMETERS,
        ids=[f"{cls.__name__}.{field}" for cls, _, field in PARAMETERS],
    )
    def test_rejected_by_name(self, cls, base, field, value):
        with pytest.raises(WorkloadError, match=rf"{cls.__name__}\.{field}"):
            cls(**{**base, field: value})

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_request_arrival_must_be_finite(self, value):
        with pytest.raises(WorkloadError, match="arrival_s"):
            RequestSpec(0, value, 8, 4)

    def test_bursty_nan_burst_rate_fails_the_run(self):
        from repro.serve.simulator import simulate_serving

        with pytest.raises(WorkloadError, match="burst_rate_rps"):
            simulate_serving(
                model="opt-1.3b", host="DRAM", arrival="bursty",
                rate_rps=1.0, burst_rate_rps=NAN, num_requests=4,
            )


class TestDuplicateRequestIds:
    def test_replay_rejects_a_repeated_id(self):
        specs = (RequestSpec(0, 0.0, 8, 4), RequestSpec(0, 1.0, 8, 4))
        with pytest.raises(WorkloadError, match="request_id 0"):
            TraceReplay(specs)

    def test_load_trace_rejects_a_repeated_id(self, tmp_path):
        path = str(tmp_path / "dup.jsonl")
        save_trace(
            (RequestSpec(3, 0.0, 8, 4), RequestSpec(3, 1.0, 8, 4)), path
        )
        with pytest.raises(WorkloadError, match=r"dup\.jsonl: .*request_id 3"):
            load_trace(path)


class TestRequestCount:
    @pytest.mark.parametrize("count", (2.5, 3.0, True, "4"))
    def test_non_integer_count_names_the_field(self, count):
        with pytest.raises(
            WorkloadError, match="num_requests must be an integer"
        ):
            generate_requests(PoissonProcess(1.0), count)

    def test_replay_count_is_checked_too(self):
        specs = generate_requests(PoissonProcess(1.0), 4, seed=1)
        with pytest.raises(
            WorkloadError, match="num_requests must be an integer"
        ):
            generate_requests(TraceReplay(specs=specs), 2.5)

    def test_negative_replay_count_does_not_drop_the_tail(self):
        specs = generate_requests(PoissonProcess(1.0), 5, seed=1)
        with pytest.raises(WorkloadError, match=r"must be >= 0 .*got -2"):
            generate_requests(TraceReplay(specs=specs), -2)

    @pytest.mark.parametrize("count", (0, -1))
    def test_sampled_count_must_be_positive(self, count):
        with pytest.raises(WorkloadError, match=f"must be >= 1, got {count}"):
            generate_requests(PoissonProcess(1.0), count)

    def test_numpy_integer_count_is_accepted(self):
        assert len(generate_requests(PoissonProcess(1.0), np.int64(3))) == 3
