"""Malformed replica shapes fail at the boundary with an error that
names the field, not deep inside placement sharding or list math."""

import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.fleet import ReplicaConfig, simulate_fleet

SMALL = dict(model="opt-1.3b", host="DRAM", num_requests=4)


class TestReplicaConfig:
    @pytest.mark.parametrize(
        "field", ("tensor_parallel", "pipeline_parallel")
    )
    @pytest.mark.parametrize("degree", (1.5, 2.0, True, "2"))
    def test_rejects_non_integer_degrees(self, field, degree):
        with pytest.raises(
            ConfigurationError, match=f"{field} must be an integer"
        ):
            ReplicaConfig(**{field: degree})

    @pytest.mark.parametrize(
        "field", ("tensor_parallel", "pipeline_parallel")
    )
    @pytest.mark.parametrize("degree", (0, -2))
    def test_rejects_degrees_below_one(self, field, degree):
        with pytest.raises(
            ConfigurationError, match=f"{field} must be >= 1, got {degree}"
        ):
            ReplicaConfig(**{field: degree})

    def test_sharded_flag_follows_the_degrees(self):
        assert not ReplicaConfig().is_sharded
        assert ReplicaConfig(tensor_parallel=2).is_sharded
        assert ReplicaConfig(pipeline_parallel=2).is_sharded


class TestSimulateFleetShapes:
    def test_fractional_tensor_parallel_names_the_field(self):
        with pytest.raises(
            ConfigurationError, match="tensor_parallel must be an integer"
        ):
            simulate_fleet(tensor_parallel=1.5, **SMALL)

    def test_zero_tensor_parallel_fails_before_sharding(self):
        with pytest.raises(
            ConfigurationError, match="tensor_parallel must be >= 1"
        ):
            simulate_fleet(tensor_parallel=0, **SMALL)

    @pytest.mark.parametrize("replicas", (2.0, True))
    def test_non_integer_replica_count_is_rejected(self, replicas):
        with pytest.raises(
            ConfigurationError, match="replicas must be an integer"
        ):
            simulate_fleet(replicas=replicas, **SMALL)

    def test_fractional_request_count_is_a_workload_error(self):
        with pytest.raises(
            WorkloadError, match="num_requests must be an integer"
        ):
            simulate_fleet(**{**SMALL, "num_requests": 2.5})
