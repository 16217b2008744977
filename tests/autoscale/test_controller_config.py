"""The controller reads the fleet's one :class:`ReplicaConfig`: its
planner prices ladders from every config field, and a sharded config
is rejected where the controller is built."""

import pytest

from repro.autoscale import AutoscalePolicy
from repro.autoscale.controller import AutoscaleController
from repro.core.qos import QosTarget
from repro.errors import ConfigurationError
from repro.fleet import ReplicaConfig, simulate_fleet
from repro.plan import CapacityPlanner

TARGET = QosTarget(max_ttft_s=5.0)
CONFIG = ReplicaConfig(
    model="opt-6.7b",
    host="CXL-ASIC",
    placement="baseline",
    compress_weights=False,
    overlap=False,
)


def _candidates(planner):
    return planner.plan(
        TARGET, rates_rps=(0.05, 0.5), replica_counts=(1, 2, 3)
    ).candidates


class TestPlannerFromConfig:
    def test_planner_prices_every_config_field(self):
        controller = AutoscaleController(AutoscalePolicy(), TARGET, CONFIG)
        reference = CapacityPlanner(
            model=CONFIG.model,
            hosts=(CONFIG.host,),
            placements=(CONFIG.placement,),
            compress_weights=CONFIG.compress_weights,
            overlap=CONFIG.overlap,
        )
        planned = _candidates(controller.planner)
        assert planned
        assert planned == _candidates(reference)
        # Every non-default field moves the prices, so a field the
        # controller dropped would fall back to a default and differ.
        for field in ("compress_weights", "overlap"):
            flipped = CapacityPlanner(
                model=CONFIG.model,
                hosts=(CONFIG.host,),
                placements=(CONFIG.placement,),
                **{
                    "compress_weights": CONFIG.compress_weights,
                    "overlap": CONFIG.overlap,
                    field: True,
                },
            )
            assert _candidates(flipped) != planned

    def test_replanning_placement_prices_every_placement(self):
        controller = AutoscaleController(
            AutoscalePolicy(replan_placement=True), TARGET, CONFIG
        )
        placements = {c.placement for c in _candidates(controller.planner)}
        assert placements == {"baseline", "helm", "allcpu"}


class TestShardedConfigRejected:
    @pytest.mark.parametrize(
        "degrees", ({"tensor_parallel": 2}, {"pipeline_parallel": 2})
    )
    def test_controller_rejects_a_sharded_config(self, degrees):
        with pytest.raises(ConfigurationError, match="unsharded") as error:
            AutoscaleController(
                AutoscalePolicy(), TARGET, ReplicaConfig(**degrees)
            )
        for name, degree in degrees.items():
            assert f"{name}={degree}" in str(error.value)

    def test_sharded_autoscaled_fleet_is_rejected(self):
        with pytest.raises(
            ConfigurationError,
            match="tensor_parallel=2, pipeline_parallel=1",
        ):
            simulate_fleet(
                model="opt-1.3b",
                host="DRAM",
                num_requests=4,
                autoscale=True,
                tensor_parallel=2,
            )
