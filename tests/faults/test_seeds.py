"""seed_stream: replica-stable RNG seed derivation for fleets.

The property these tests pin is the one that keeps fleet experiments
honest: replica 0's streams are a pure function of the root seed, so
growing a fleet from 1 to N replicas can never perturb replica 0's
fault draws — and a 1-replica fleet stays bit-identical to the
single-engine simulator.
"""

import pytest

from repro.errors import ConfigurationError
from repro.faults.models import FaultSchedule, TransientFaults
from repro.faults.seeds import seed_stream
from repro.fleet import simulate_fleet


class TestSeedStream:
    def test_replica_zero_is_the_root_seed(self):
        assert seed_stream(42, 0, "faults") == 42
        assert seed_stream(0, 0, "faults") == 0
        assert seed_stream(None, 0, "faults") is None

    def test_siblings_are_deterministic(self):
        assert seed_stream(13, 1, "faults") == seed_stream(13, 1, "faults")
        # Golden pin: a silent change to the derivation would reseed
        # every published fleet experiment.
        assert seed_stream(13, 1, "faults") == 18409986875532839206

    def test_siblings_differ_by_replica_and_purpose(self):
        seeds = {
            seed_stream(13, replica, purpose)
            for replica in (1, 2, 3)
            for purpose in ("faults", "arrivals")
        }
        assert len(seeds) == 6

    def test_sibling_seed_never_depends_on_fleet_size(self):
        """There is no fleet-size input at all: the derivation is per
        (root, replica, purpose), which is the whole point."""
        assert seed_stream(7, 2, "faults") == seed_stream(7, 2, "faults")

    def test_none_root_derives_siblings_from_zero(self):
        assert seed_stream(None, 2, "faults") == seed_stream(0, 2, "faults")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            seed_stream(1, -1, "faults")
        with pytest.raises(ConfigurationError):
            seed_stream(1, 0, "")


class TestReplicaZeroRegression:
    """Growing the fleet must never perturb replica 0's fault draws."""

    @pytest.fixture(scope="class")
    def runs(self):
        kwargs = dict(
            model="opt-6.7b",
            host="CXL-ASIC",
            placement="helm",
            arrival="poisson",
            rate_rps=1.0,
            num_requests=12,
            seed=4,
            max_batch=4,
            faults=FaultSchedule(
                faults=(TransientFaults(target="host", probability=0.05),)
            ),
            fault_seed=17,
        )
        return {
            size: simulate_fleet(replicas=size, **kwargs)
            for size in (1, 2, 3)
        }

    def test_replica_zero_injector_seed_is_pinned(self, runs):
        for fleet in runs.values():
            assert fleet.summary()["fault_seed"] == 17

    def test_replica_zero_serves_identically_when_it_gets_the_same_stream(
        self, runs
    ):
        """Fault pricing for a given request is a function of replica
        0's own stream; requests routed identically complete with
        identical records regardless of fleet size."""
        by_size = {
            size: {
                record.request_id: record
                for record in runs[size].replicas[0].result.records
            }
            for size in runs
        }
        # Round-robin sends request 0, (0, 2, 4...) etc. — every id
        # replica 0 serves in a bigger fleet it also serves alone.
        for size in (2, 3):
            for request_id in by_size[size]:
                assert request_id in by_size[1]

    def test_sibling_injectors_are_reseeded(self):
        from repro.fleet.replica import (
            ReplicaConfig,
            ReplicaPlan,
            build_replica,
        )
        from repro.serve.request import STANDARD

        schedule = FaultSchedule(
            faults=(TransientFaults(target="host", probability=0.05),)
        )
        plan = ReplicaPlan.build(
            ReplicaConfig(model="opt-6.7b", host="CXL-ASIC", placement="helm")
        )
        seeds = [
            build_replica(
                index,
                plan,
                classes=(STANDARD,),
                faults=schedule,
                fault_seed=17,
            ).scheduler.injector.seed
            for index in range(3)
        ]
        assert seeds[0] == 17
        assert seeds[1] == seed_stream(17, 1, "faults")
        assert seeds[2] == seed_stream(17, 2, "faults")
        assert len(set(seeds)) == 3
