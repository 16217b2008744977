"""Tests for the OffloadEngine façade."""

import pytest

from repro.core.engine import OffloadEngine
from repro.core.placement.helm import HelmPlacement
from repro.core.policy import DISK_POLICY, HOST_GPU_POLICY, OPT30B_POLICY
from repro.errors import CapacityError, ConfigurationError
from repro.memory.hierarchy import host_config


class TestConstruction:
    def test_resolves_strings(self):
        engine = OffloadEngine(
            model="opt-175b", host="NVDRAM", placement="helm"
        )
        assert engine.config.name == "opt-175b"
        assert engine.host.label == "NVDRAM"
        assert engine.algorithm.name == "helm"

    def test_accepts_instances(self):
        engine = OffloadEngine(
            model="opt-175b",
            host=host_config("DRAM"),
            placement=HelmPlacement(),
        )
        assert engine.host.label == "DRAM"

    def test_default_policy_by_model_and_host(self):
        assert OffloadEngine(model="opt-30b", host="DRAM").policy is (
            OPT30B_POLICY
        )
        assert OffloadEngine(model="opt-175b", host="SSD").policy is (
            DISK_POLICY
        )
        assert OffloadEngine(model="opt-175b", host="NVDRAM").policy is (
            HOST_GPU_POLICY
        )

    def test_compression_override(self):
        engine = OffloadEngine(
            model="opt-175b", host="NVDRAM", compress_weights=True
        )
        assert engine.policy.compress_weights

    def test_setup_summary(self):
        engine = OffloadEngine(model="opt-175b", host="NVDRAM")
        setup = engine.setup
        assert setup.model == "opt-175b"
        assert setup.batch_size == 1
        assert setup.prompt_len == 128

    def test_disk_policy_needs_a_storage_tier(self):
        # Fails at construction, naming the host and the disk share,
        # instead of at the first priced transfer.
        with pytest.raises(ConfigurationError, match="'DRAM'.*disk_percent"):
            OffloadEngine(model="opt-1.3b", host="DRAM", policy=DISK_POLICY)
        engine = OffloadEngine(
            model="opt-1.3b", host="SSD", policy=DISK_POLICY, gen_len=2
        )
        assert engine.run_timing().total_s > 0

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigurationError):
            OffloadEngine(model="opt-999b")
        with pytest.raises(ConfigurationError):
            OffloadEngine(host="L4-cache")
        with pytest.raises(ConfigurationError):
            OffloadEngine(placement="astrology")


class TestSpillBehaviour:
    def test_no_spill_at_batch_1_helm(self):
        engine = OffloadEngine(
            model="opt-175b", host="NVDRAM", placement="helm",
            compress_weights=True, batch_size=1,
        )
        assert engine.spill_log == []

    def test_spill_at_batch_8_helm(self):
        engine = OffloadEngine(
            model="opt-175b", host="NVDRAM", placement="helm",
            compress_weights=True, batch_size=8,
        )
        assert engine.spill_log
        assert engine.memory_plan.fits

    def test_allow_spill_false_raises_when_oversubscribed(self):
        with pytest.raises(CapacityError):
            OffloadEngine(
                model="opt-175b", host="NVDRAM", placement="helm",
                compress_weights=True, batch_size=8, allow_spill=False,
            )

    def test_allow_spill_false_ok_when_fitting(self):
        engine = OffloadEngine(
            model="opt-175b", host="NVDRAM", placement="baseline",
            batch_size=8, allow_spill=False,
        )
        assert engine.memory_plan.fits


class TestBackends:
    def test_run_timing_returns_metrics(self):
        engine = OffloadEngine(
            model="opt-175b", host="NVDRAM", batch_size=1, gen_len=3
        )
        metrics = engine.run_timing()
        assert metrics.gen_len == 3
        assert metrics.model_name == "opt-175b"
        assert metrics.ttft_s > 0

    def test_run_functional_small_model(self):
        engine = OffloadEngine(
            model="opt-tiny", host="DRAM", placement="allcpu",
            batch_size=2, prompt_len=8, gen_len=3,
        )
        result = engine.run_functional(seed=5)
        assert result.sequences.shape == (2, 11)

    def test_run_functional_rejects_large_models(self):
        engine = OffloadEngine(model="opt-175b", host="NVDRAM")
        with pytest.raises(ConfigurationError):
            engine.run_functional()

    def test_max_batch_size(self):
        engine = OffloadEngine(
            model="opt-175b", host="NVDRAM", placement="baseline",
            batch_size=1,
        )
        assert engine.max_batch_size() == 8
