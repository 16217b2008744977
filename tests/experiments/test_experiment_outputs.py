"""Tests that each experiment's structured output carries the paper's
observations.  These run the real experiment code (memoized within the
process), so they double as end-to-end checks of the harness."""

import pytest


class TestFig3(object):
    def test_checks(self, results):
        checks = results("fig3_bandwidth").data["checks"]
        assert checks["nvdram_h2g_at_4g"] == pytest.approx(19.9, abs=0.6)
        assert checks["nvdram_h2g_at_32g"] == pytest.approx(15.5, abs=0.4)
        assert checks["nvdram_g2h_peak"] == pytest.approx(3.26, abs=0.15)
        assert checks["nvdram_h2g_drop_small"] == pytest.approx(0.20, abs=0.03)
        assert checks["nvdram_h2g_drop_32g"] == pytest.approx(0.37, abs=0.05)
        assert checks["nvdram_g2h_drop"] == pytest.approx(0.88, abs=0.02)


class TestFig4:
    def test_checks(self, results):
        checks = results("fig4_llm_perf").data["checks"]
        # paper: +33.03 / +15.05 / +33.03 / 22.68 / 33.46 / 7.67 / 7.98 / 32.41
        assert 20 <= checks["30b_nvdram_ttft_increase_b1"] <= 40
        assert 8 <= checks["30b_nvdram_ttft_increase_b32"] <= 22
        assert 20 <= checks["30b_nvdram_tbt_increase_b1"] <= 40
        assert 12 <= checks["30b_nvdram_tput_drop_b32"] <= 30
        assert 25 <= checks["175b_fsdax_ttft_improvement_b1"] <= 42
        assert 2 <= checks["175b_mm_ttft_improvement_b1"] <= 15
        assert 20 <= checks["30b_dram_ttft_scaling"] <= 45


class TestFig5:
    def test_checks(self, results):
        checks = results("fig5_overlap").data["checks"]
        # paper: 32.78% / 22.41%; prefill compute x15
        assert 25 <= checks["175b_dram_vs_nvdram_transfer_improvement"] <= 40
        assert 15 <= checks["175b_dram_vs_mm_transfer_improvement"] <= 32
        assert 10 <= checks["30b_prefill_compute_scaling"] <= 25

    def test_decode_stays_memory_bound(self, results):
        data = results("fig5_overlap").data
        for host in ("NVDRAM", "MemoryMode"):
            entry = data[f"opt-175b/{host}/b8/decode"]
            assert entry["avg_transfer_ms"] > 5 * entry["avg_compute_ms"]


class TestFig6:
    def test_checks(self, results):
        checks = results("fig6_compression").data["checks"]
        # paper: 72% / 74% reductions; within 25% / 6% of DRAM;
        # compute x2.5-13.
        assert 65 <= checks["nvdram_transfer_reduction"] <= 80
        assert 70 <= checks["mm_transfer_reduction"] <= 83
        assert 15 <= checks["nvdram_gap_to_dram"] <= 45
        assert 0 <= checks["mm_gap_to_dram"] <= 10
        assert 2.5 <= checks["nvdram_compute_inflation"] <= 13


class TestFig7:
    def test_sawtooth_alternates(self, results):
        data = results("fig7_placement").data
        kinds = data["sawtooth_kinds"]
        loads = data["sawtooth_ms"]["NVDRAM"]
        for kind, load, next_kind, next_load in zip(
            kinds, loads, kinds[1:], loads[1:]
        ):
            if kind == "mha" and next_kind == "ffn":
                assert next_load > load * 1.5  # the ridge
            if kind == "ffn" and next_kind == "mha":
                assert next_load < load / 1.5  # the dip

    def test_achieved_distributions(self, results):
        data = results("fig7_placement").data
        nvdram = data["achieved_nvdram_mm"]
        assert nvdram["cpu"] == pytest.approx(91.7, abs=0.3)
        assert nvdram["gpu"] == pytest.approx(8.3, abs=0.3)
        assert nvdram["ffn_gpu_share"] < 0.001
        ssd = data["achieved_ssd_fsdax"]
        assert ssd["disk"] == pytest.approx(58.6, abs=0.6)
        assert ssd["cpu"] == pytest.approx(33.1, abs=0.6)


class TestFig8:
    def test_imbalance_visible(self, results):
        checks = results("fig8_mha_ffn").data["checks"]
        assert checks["b1_ffn_load_exceeds_mha_load"] > 2.0
        assert checks["b1_mha_compute_below_ffn_compute"] < 0.8


class TestFig10:
    def test_helm_distribution(self, results):
        data = results("fig10_helm_dist").data
        assert data["ffn_fc1_on_gpu"]
        assert data["mha_matrices_on_cpu"]
        assert data["ffn_gpu_share"] == pytest.approx(0.50, abs=0.01)
        assert data["achieved"]["gpu"] == pytest.approx(33.0, abs=1.5)


class TestFig11:
    def test_checks(self, results):
        checks = results("fig11_helm").data["checks"]
        # paper: 27.20/27.44 NVDRAM, 31.90/32.28 MM; -49.33% FFN,
        # +32.55% MHA.
        assert 20 <= checks["nvdram_ttft_improvement"] <= 38
        assert 20 <= checks["nvdram_tbt_improvement"] <= 38
        assert 20 <= checks["mm_ttft_improvement"] <= 38
        assert 0 <= checks["nvdram_tbt_gap_to_dram"] <= 15
        assert 40 <= checks["ffn_transfer_reduction"] <= 58
        assert 20 <= checks["mha_transfer_increase"] <= 45


class TestFig12:
    def test_checks(self, results):
        checks = results("fig12_allcpu").data["checks"]
        assert 4.0 <= checks["nvdram_throughput_gain"] <= 6.5
        assert 0 <= checks["nvdram_gap_to_dram"] <= 20
        assert -2 <= checks["allcpu_b8_tbt_cost"] <= 5
        assert checks["mm_vs_dram_at_bmax"] == pytest.approx(1.0, abs=0.05)

    def test_max_batch(self, results):
        assert 40 <= results("fig12_allcpu").data["max_batch"] <= 50


class TestTable4:
    def test_structural_properties(self, results):
        data = results("table4_ratios").data
        base = data["baseline/b1/decode/NVDRAM"]
        helm = data["helm/b1/decode/NVDRAM"]
        # HeLM halves the FFN transfer -> the MHA-compute ratio roughly
        # doubles (paper: 0.36 -> 0.71).
        assert helm["mha_compute/ffn_load"] > 1.7 * base["mha_compute/ffn_load"]
        # CXL-FPGA is memory-bound everywhere (all ratios < 1 except
        # All-CPU prefill).
        for key, ratios in data.items():
            if not isinstance(ratios, dict) or "CXL-FPGA" not in str(key):
                continue
            if "allcpu" in key and "prefill" in key:
                assert ratios["ffn_compute/mha_load"] > 1.0
            elif "decode" in key:
                assert ratios["mha_compute/ffn_load"] < 1.0

    def test_paper_anchor_values(self, results):
        data = results("table4_ratios").data
        base = data["baseline/b1/decode/NVDRAM"]
        # paper: 0.36 and 1.85 (we land within ~20%)
        assert base["mha_compute/ffn_load"] == pytest.approx(0.36, abs=0.08)
        assert base["ffn_compute/mha_load"] == pytest.approx(1.85, rel=0.20)
        allcpu_key = next(
            key for key in data
            if str(key).startswith("allcpu/") and "prefill/NVDRAM" in str(key)
        )
        # paper: 1.25 and 4.82
        assert data[allcpu_key]["mha_compute/ffn_load"] == pytest.approx(
            1.25, abs=0.25
        )
        assert data[allcpu_key]["ffn_compute/mha_load"] == pytest.approx(
            4.82, rel=0.20
        )


class TestFig13:
    def test_checks(self, results):
        checks = results("fig13_cxl").data["checks"]
        # paper: 27% / 21% HeLM; 4.74x / 5.04x All-CPU; 8.35% FPGA drop.
        assert 20 <= checks["fpga_helm_tbt_improvement"] <= 35
        assert 15 <= checks["asic_helm_tbt_improvement"] <= 32
        assert 4.0 <= checks["fpga_allcpu_gain"] <= 6.5
        assert 4.0 <= checks["asic_allcpu_gain"] <= 6.5
        assert 4 <= checks["fpga_allcpu_b8_drop"] <= 14
