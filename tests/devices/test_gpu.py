"""Tests for the GPU spec and roofline compute model."""

import numpy as np
import pytest

from repro.devices.gpu import A100_SPEC, GpuComputeModel, GpuDevice, GpuSpec
from repro.errors import ConfigurationError
from repro.memory import calibration as cal
from repro.models.flops import LayerWork


class TestGpuSpec:
    def test_usable_below_total(self):
        assert A100_SPEC.usable_bytes < A100_SPEC.hbm_bytes

    def test_usable_accounts_for_context_and_fragmentation(self):
        spec = GpuSpec(
            name="g", hbm_bytes=1000, hbm_bandwidth=1e9, fp16_flops=1e12,
            context_reserve_bytes=100, fragmentation_reserve=0.10,
        )
        assert spec.usable_bytes == 810

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GpuSpec(name="g", hbm_bytes=0, hbm_bandwidth=1, fp16_flops=1)
        with pytest.raises(ConfigurationError):
            GpuSpec(
                name="g", hbm_bytes=1, hbm_bandwidth=1, fp16_flops=1,
                fragmentation_reserve=1.0,
            )


class TestComputeModel:
    def test_flops_bound_kernel(self):
        model = GpuComputeModel()
        flops = model.effective_flops  # one second of work
        time = model.kernel_time(flops, hbm_bytes=1)
        overhead = model.kernels_per_layer * model.launch_overhead_s
        assert time == pytest.approx(1.0 + overhead)

    def test_memory_bound_kernel(self):
        model = GpuComputeModel()
        nbytes = model.effective_hbm_bandwidth  # one second of traffic
        time = model.kernel_time(1.0, hbm_bytes=nbytes)
        overhead = model.kernels_per_layer * model.launch_overhead_s
        assert time == pytest.approx(1.0 + overhead)

    def test_roofline_takes_maximum(self):
        model = GpuComputeModel()
        flop_time = model.kernel_time(model.effective_flops, 0)
        both = model.kernel_time(
            model.effective_flops, model.effective_hbm_bandwidth / 2
        )
        assert both == pytest.approx(flop_time)

    def test_launch_overhead_floors_tiny_kernels(self):
        model = GpuComputeModel()
        time = model.kernel_time(1.0, 1.0)
        assert time == pytest.approx(
            model.kernels_per_layer * model.launch_overhead_s
        )

    def test_dequant_time_scales_with_bytes(self):
        model = GpuComputeModel()
        assert model.dequant_time(cal.GPU_DEQUANT_THROUGHPUT) == pytest.approx(
            1.0
        )
        assert model.dequant_time(0) == 0.0

    def test_negative_inputs_rejected(self):
        model = GpuComputeModel()
        with pytest.raises(ConfigurationError):
            model.kernel_time(-1, 0)
        with pytest.raises(ConfigurationError):
            model.dequant_time(-1)

    def test_layer_time_is_one_formula_for_scalars_and_arrays(self):
        """The cost grid's array call equals the scalar composition:
        kernels once per pass, dequantization once per layer."""
        model = GpuComputeModel()
        flops = np.array([1e9, 4e12, 0.0])
        hbm = np.array([3e9, 1e6, 5e5])
        dequant = np.array([0.0, 2e9, 7e8])
        grid = model.layer_time(
            LayerWork(flops, hbm), 3, dequant, np.maximum
        )
        for f, h, d, cell in zip(flops, hbm, dequant, grid):
            scalar = model.layer_time(LayerWork(float(f), float(h)), 3, float(d))
            assert type(scalar) is float
            assert cell == scalar
            assert scalar == 3 * model.kernel_time(f, h) + model.dequant_time(d)

    def test_effective_rates_below_peak(self):
        model = GpuComputeModel()
        assert model.effective_flops < A100_SPEC.fp16_flops
        assert model.effective_hbm_bandwidth < A100_SPEC.hbm_bandwidth


class TestGpuDevice:
    def test_device_capacity_is_usable_bytes(self):
        device = GpuDevice()
        assert device.capacity_bytes == A100_SPEC.usable_bytes

    def test_compute_model_attached(self):
        device = GpuDevice()
        assert device.compute.spec is A100_SPEC
