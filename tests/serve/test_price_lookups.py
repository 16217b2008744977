"""Price counters count only a run's own lookups.

Every prefill and every decode iteration of a fault-free run prices
once through its cost model (a decode run counts its later iterations
as hits of the price it read), so the reported lookups (hits +
misses) equal the prefill plus decode iterations, once per shard
model on a sharded replica.  The saturation yardstick the run reports
(the reference service time) is read off the bucket rows: it counts
no lookup and adds no entry.
"""

from hypothesis import given, settings, strategies as st

from repro.fleet import simulate_fleet
from repro.serve.simulator import simulate_serving

seeds = st.integers(min_value=0, max_value=10_000)
requests = st.integers(min_value=1, max_value=12)


def _iterations(result):
    setup = result.setup
    return setup["prefill_iterations"] + setup["decode_iterations"]


def _lookups(result):
    stats = result.setup["price_cache"]
    return stats["hits"] + stats["misses"]


@settings(max_examples=6, deadline=None)
@given(seeds, requests, st.sampled_from((None, "hotness")))
def test_serve_lookups_are_its_iterations(seed, num_requests, kv_policy):
    result = simulate_serving(
        model="opt-1.3b",
        host="DRAM",
        placement="helm",
        rate_rps=2.0,
        num_requests=num_requests,
        seed=seed,
        max_batch=8,
        kv_policy=kv_policy,
    )
    assert _lookups(result) == _iterations(result) > 0


@settings(max_examples=3, deadline=None)
@given(seeds, requests)
def test_tp2_fleet_lookups_are_its_iterations_per_shard(seed, num_requests):
    fleet = simulate_fleet(
        model="opt-6.7b",
        host="CXL-ASIC",
        replicas=2,
        tensor_parallel=2,
        num_requests=num_requests,
        rate_rps=1.0,
        seed=seed,
    )
    for replica in fleet.replicas:
        # Each of the two shard models looks every iteration up.
        assert _lookups(replica.result) == 2 * _iterations(replica.result)


def test_one_request_serve_counts_only_its_shapes():
    result = simulate_serving(
        model="opt-1.3b",
        host="DRAM",
        placement="helm",
        rate_rps=1.0,
        num_requests=1,
        seed=3,
    )
    stats = result.setup["price_cache"]
    assert _lookups(result) == _iterations(result)
    # One prefill shape, and the decode buckets the request crossed.
    assert stats["misses"] == stats["size"]
