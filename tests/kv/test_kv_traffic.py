"""Host-resident KV traffic as the timing executor charges it.

``LayerCostModel.kv_traffic_times`` prices one MHA layer's (load,
store) of the host-resident KV share; the executor inherits it and
charges it on every MHA layer.  A real host share must cost time, and
a cache kept fully on the GPU must cost none.
"""

import pytest

from repro.core.engine import OffloadEngine
from repro.core.metrics import Stage
from repro.core.policy import Policy
from repro.pricing import AnalyticBackend, EventBackend


@pytest.fixture(scope="module")
def spec():
    # A policy with a real host-resident KV share (kv_gpu_percent=40)
    # so the priced KV traffic is non-trivial.
    engine = OffloadEngine(
        model="opt-6.7b",
        host="DRAM",
        placement="helm",
        policy=Policy(
            gpu_percent=50,
            cpu_percent=50,
            disk_percent=0,
            kv_gpu_percent=40,
        ),
        batch_size=1,
    )
    return engine.run_spec(include_faults=False)


SHAPES = ((1, 128), (3, 256), (8, 512))


@pytest.mark.parametrize("stage", (Stage.PREFILL, Stage.DECODE))
def test_host_resident_share_costs_time(spec, stage):
    analytic = AnalyticBackend()
    event = EventBackend()
    for batch, context in SHAPES:
        shaped = spec.with_shape(batch_size=batch)
        read_s, write_s = analytic.layer_model(shaped).kv_traffic_times(
            stage, context
        )
        assert read_s + write_s > 0.0
        # The executor charges the very same prices.
        assert event.executor(shaped).kv_traffic_times(stage, context) == (
            read_s,
            write_s,
        )


def test_fully_resident_kv_is_free():
    engine = OffloadEngine(
        model="opt-6.7b", host="DRAM", placement="helm", batch_size=1
    )
    resident = engine.run_spec(include_faults=False)
    model = AnalyticBackend().layer_model(resident)
    # Default policies keep KV fully on the GPU: nothing streams.
    assert model.kv_traffic_times(Stage.DECODE, 256) == (0.0, 0.0)
