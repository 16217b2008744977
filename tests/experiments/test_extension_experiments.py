"""Tests for the extension experiments (Fig. 9 and the ablations)."""

import pytest


class TestFig9:
    def test_structure(self, results):
        checks = results("fig9_helm_weights").data["checks"]
        assert checks["fc1_gpu"]
        assert checks["fc2_cpu"]
        assert checks["projections_cpu"]
        assert checks["vectors_gpu"]

    def test_fig9_sizes(self, results):
        """Fig 9 annotates a 288 MiB projection and 1152 MiB FC matrix."""
        checks = results("fig9_helm_weights").data["checks"]
        assert checks["w_q_fp16_mib"] == pytest.approx(288.0)
        assert checks["fc1_fp16_mib"] == pytest.approx(1152.0)


class TestHelmSweep:
    def test_paper_point_is_near_optimal(self, results):
        checks = results("ablation_helm_sweep").data["checks"]
        assert checks["helm_point_within_2pct_of_best"]


class TestBandwidthContinuum:
    def test_helm_helps_at_every_bandwidth(self, results):
        checks = results("ablation_bandwidth").data["checks"]
        assert checks["helm_helps_everywhere"]


class TestBatchFrontier:
    def test_throughput_monotone(self, results):
        checks = results("ablation_batch_frontier").data["checks"]
        assert checks["throughput_monotonic"]
        assert 40 <= checks["bmax"] <= 50


class TestAutoPlacement:
    def test_auto_competitive_with_helm(self, results):
        checks = results("ablation_auto_placement").data["checks"]
        assert checks["auto_beats_baseline"]
        assert checks["auto_within_5pct_of_helm"]

    def test_solved_shares_in_helm_ballpark(self, results):
        data = results("ablation_auto_placement").data
        assert 20 <= data["solved_ffn_gpu_percent"] <= 80
        assert data["solved_mha_gpu_percent"] <= 30


class TestKvOffload:
    def test_checks(self, results):
        checks = results("ablation_kv_offload").data["checks"]
        assert checks["kv_quant_batch_multiplier"] >= 3
        assert checks["offload_tbt_penalty"] >= 1.0
        assert checks["cpu_attention_within_15pct"]
        assert checks["combined_beats_paper_config"]


class TestGpuBatches:
    def test_checks(self, results):
        checks = results("ablation_gpu_batches").data["checks"]
        assert checks["blocking_raises_throughput"]
        assert checks["constant_effective_batch_tbt_spread"] < 1.5


class TestEnergy:
    def test_checks(self, results):
        checks = results("ablation_energy").data["checks"]
        assert checks["allcpu_nvdram_at_or_below_dram_parity"]
        assert checks["throughput_cuts_energy"]


class TestCxlInterleave:
    def test_checks(self, results):
        checks = results("ablation_cxl_interleave").data["checks"]
        assert checks["fpga_x4_reaches_nvdram"]
        assert checks["fpga_monotone"]
        assert checks["asic_saturates"]


class TestModelScaling:
    def test_checks(self, results):
        checks = results("ablation_model_scaling").data["checks"]
        assert checks["tbt_monotone_in_size"]
        assert checks["helm_helps_everywhere"]

    def test_gain_grows_with_model_size(self, results):
        data = results("ablation_model_scaling").data
        assert (
            data["opt-175b"]["helm_gain_pct"]
            > data["opt-6.7b"]["helm_gain_pct"]
        )


class TestOverlapAblation:
    def test_checks(self, results):
        checks = results("ablation_overlap").data["checks"]
        assert checks["overlap_always_helps"]
        assert checks["helm_hides_more_than_baseline"]

    def test_helm_hides_about_40pct(self, results):
        data = results("ablation_overlap").data
        assert 35 <= data["NVDRAM/helm"]["hidden_pct"] <= 50


class TestScheduleOrder:
    def test_checks(self, results):
        checks = results("ablation_schedule_order").data["checks"]
        assert checks["block_order_wins"]
        assert checks["x8_speedup_substantial"]
        assert checks["x8_speedup"] <= 8.0  # never beats the ideal


class TestQueueing:
    def test_checks(self, results):
        checks = results("ablation_queueing").data["checks"]
        assert checks["helm_wins_at_low_load"]
        assert checks["only_allcpu_survives_high_load"]


class TestQosAblation:
    def test_checks(self, results):
        checks = results("ablation_qos").data["checks"]
        assert checks["tight_latency_selects_helm"]
        assert checks["throughput_selects_allcpu"]
        assert checks["impossible_target_flagged"]
        assert checks["combined_target_met"]


class TestServingAblation:
    def test_checks(self, results):
        checks = results("ablation_serving").data["checks"]
        assert checks["helm_wins_p50_ttft_at_low_load"]
        assert checks["allcpu_outlasts_helm"]
        assert checks["interactive_ttft_leq_batch"]

    def test_saturation_frontier_recorded(self, results):
        data = results("ablation_serving").data
        sustained = data["max_sustained_rps"]
        assert sustained["allcpu"] > sustained["helm"]


class TestContextLength:
    def test_checks(self, results):
        checks = results("ablation_context_length").data["checks"]
        assert checks["prefill_turns_compute_bound"]
        assert checks["short_prefill_memory_bound"]
        assert checks["max_batch_shrinks"]
        assert checks["tbt_flat"]
