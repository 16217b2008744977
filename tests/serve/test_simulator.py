"""Integration tests: serving simulator over the real timing backend."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.serve.arrivals import TraceReplay
from repro.serve.request import BATCH, INTERACTIVE
from repro.serve.simulator import simulate_serving
from repro.sim.chrome_trace import save_chrome_trace
from repro.workloads.lengths import LengthDistribution


def small_run(**overrides):
    kwargs = dict(
        model="opt-175b",
        host="NVDRAM",
        placement="allcpu",
        arrival="poisson",
        rate_rps=0.2,
        num_requests=12,
        gen_lengths=LengthDistribution.fixed(4),
        seed=0,
    )
    kwargs.update(overrides)
    return simulate_serving(**kwargs)


class TestSimulateServing:
    def test_deterministic_end_to_end(self):
        a = small_run()
        b = small_run()
        assert a.metrics == b.metrics
        assert a.records == b.records

    def test_summary_has_percentile_keys(self):
        summary = small_run().summary()
        for key in (
            "ttft_p50_s", "ttft_p95_s", "ttft_p99_s",
            "tbt_p50_s", "tbt_p95_s", "tbt_p99_s",
            "e2e_p50_s", "e2e_p95_s", "e2e_p99_s",
            "goodput_rps", "slo_attainment", "throughput_rps",
            "utilization", "saturated", "max_batch", "placement",
        ):
            assert key in summary, key

    def test_summary_is_json_serializable(self):
        assert json.loads(json.dumps(small_run().summary()))

    def test_helm_single_slot_admission(self):
        result = small_run(placement="helm", rate_rps=0.005, num_requests=4)
        assert result.setup["max_batch"] == 1
        assert max(sample.batch for sample in result.timeline) == 1

    @pytest.mark.parametrize("cap", (0, -1))
    def test_caller_cap_below_one_is_a_caller_error(self, cap):
        with pytest.raises(
            ConfigurationError, match=f"max_batch must be >= 1, got {cap}"
        ):
            small_run(max_batch=cap)

    def test_allcpu_batches_under_load(self):
        result = small_run(rate_rps=1.0, num_requests=30)
        assert result.setup["max_batch"] > 1
        assert max(sample.batch for sample in result.timeline) > 1

    def test_bursty_arrivals_run(self):
        result = small_run(arrival="bursty", num_requests=16)
        assert result.metrics.num_requests == 16

    def test_replay_matches_sampled_stream(self):
        first = small_run()
        specs = tuple(
            spec for spec in (
                record_to_spec(record) for record in first.records
            )
        )
        second = small_run(arrival=TraceReplay(specs=specs), num_requests=0)
        assert second.metrics == first.metrics

    def test_multi_tenant_classes_reported(self):
        result = small_run(
            rate_rps=0.5,
            num_requests=20,
            class_mix=((INTERACTIVE, 0.5), (BATCH, 0.5)),
            seed=3,
        )
        assert set(result.metrics.per_class) == {"interactive", "batch"}

    def test_chrome_trace_export(self, tmp_path):
        path = tmp_path / "serve.json"
        save_chrome_trace(small_run(num_requests=6).trace, str(path))
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert any(event.get("cat") == "request" for event in events)
        assert any(event.get("cat") == "decode" for event in events)


def record_to_spec(record):
    from repro.serve.request import RequestSpec

    return RequestSpec(
        request_id=record.request_id,
        arrival_s=record.arrival_s,
        prompt_len=record.prompt_len,
        gen_len=record.gen_len,
        qos_class=record.qos_class,
    )
