"""Replicas of one configuration share one plan, invisibly.

``simulate_fleet`` builds each replica configuration (engine, analytic
backend, price table) once and hands it to every replica of that
configuration.  These tests run four fleets twice — shared, and with
the sharing bypassed so every replica builds its own plan, as a fleet
did before plans were shared — and pin that:

* records, shed, assignments, summaries, scaling decisions and every
  replica's telemetry outside ``pricing/`` are identical;
* each replica's price lookups (hits + misses) are unchanged, and its
  reported counters equal its own ``pricing/cache/*`` mirror;
* over all replicas, misses equal the entries the shared tables
  computed: their final size plus what left them;
* no plan's engine is mutated by the replicas that share it.
"""

import copy

import pytest

from repro.autoscale import AutoscalePolicy
from repro.core.qos import QosTarget
from repro.errors import ConfigurationError
from repro.faults.models import DegradationWindow, FaultSchedule
from repro.fleet import ReplicaConfig, ReplicaPlan, simulate_fleet
from repro.fleet import simulator as fleet_simulator
from repro.pricing import PriceCache
from repro.serve.arrivals import DiurnalProcess
from repro.serve.request import INTERACTIVE
from repro.telemetry import Telemetry
from repro.workloads.lengths import LengthDistribution

COUNTERS = ("hits", "misses", "evictions", "invalidations")


def _prefix_fleet(telemetry):
    return simulate_fleet(
        model="opt-1.3b",
        host="DRAM",
        placement="helm",
        rate_rps=4.0,
        num_requests=80,
        seed=9,
        max_batch=8,
        replicas=4,
        router="prefix-affinity",
        prefix_groups=3,
        prefix_cache_size=8,
        gen_lengths=LengthDistribution.fixed(6),
        telemetry=telemetry,
    )


def _replanning_autoscale_fleet(telemetry):
    """Starts on baseline; the planner adds helm replicas."""
    return simulate_fleet(
        model="opt-6.7b",
        host="CXL-ASIC",
        placement="baseline",
        arrival=DiurnalProcess(
            base_rate_rps=0.4, peak_rate_rps=4.0, period_s=240.0
        ),
        num_requests=300,
        prompt_lengths=LengthDistribution.fixed(128),
        gen_lengths=LengthDistribution.fixed(16),
        class_mix=((INTERACTIVE, 1.0),),
        seed=7,
        max_batch=4,
        replicas=2,
        autoscale=AutoscalePolicy(
            interval_s=15.0,
            cooldown_s=15.0,
            min_replicas=1,
            max_replicas=5,
            scale_down_periods=2,
            headroom=1.5,
            replan_placement=True,
        ),
        autoscale_target=QosTarget(max_ttft_s=2.0),
        telemetry=telemetry,
    )


def _faulted_fleet(telemetry):
    """Degradation re-plans invalidate the shared nominal table."""
    return simulate_fleet(
        model="opt-6.7b",
        host="NVDRAM",
        placement="baseline",
        arrival="bursty",
        rate_rps=0.4,
        burst_rate_rps=2.0,
        num_requests=30,
        seed=11,
        max_batch=4,
        replicas=3,
        faults=FaultSchedule(
            faults=(
                DegradationWindow(
                    target="host",
                    slowdown=4.0,
                    start_s=2.0,
                    duration_s=20.0,
                ),
            )
        ),
        fault_seed=5,
        kv_policy="hotness",
        sanitize=True,
        telemetry=telemetry,
    )


def _sharded_fleet(telemetry):
    return simulate_fleet(
        model="opt-6.7b",
        host="CXL-ASIC",
        placement="helm",
        rate_rps=1.0,
        num_requests=16,
        seed=5,
        max_batch=4,
        replicas=3,
        tensor_parallel=2,
        pipeline_parallel=2,
        telemetry=telemetry,
    )


FLEETS = {
    "prefix-affinity": _prefix_fleet,
    "autoscale-replan": _replanning_autoscale_fleet,
    "faults-kv-sanitizer": _faulted_fleet,
    "sharded": _sharded_fleet,
}


def _engine_state(engine):
    """What a shared engine must still hold after serving replicas."""
    return (
        dict(vars(engine)),
        copy.deepcopy(engine.placement_result.assignments),
        list(engine.spill_log),
    )


def _run(monkeypatch, fleet, *, shared):
    """Run ``fleet``, returning the result and every plan it built."""
    built = []
    build = ReplicaPlan.build

    def recording_build(config):
        plan = build(config)
        engines = (plan.engine, *plan.shard_engines)
        built.append((plan, [_engine_state(e) for e in engines]))
        return plan

    with monkeypatch.context() as patch:
        patch.setattr(ReplicaPlan, "build", recording_build)
        if not shared:
            patch.setattr(
                fleet_simulator,
                "_shared_plan",
                lambda plans, config: ReplicaPlan.build(config),
            )
        result = fleet(Telemetry.create())
    return result, built


def _outside_pricing(snapshot):
    return {
        kind: [m for m in metrics if not m["name"].startswith("pricing/")]
        for kind, metrics in snapshot.items()
    }


def _mirror(snapshot):
    """A replica's own ``pricing/cache/*`` counters."""
    values = {}
    for metric in snapshot["counters"]:
        prefix, _, name = metric["name"].rpartition("/")
        if prefix == "pricing/cache":
            values[name] = values.get(name, 0) + metric["value"]
    return values


def _unpriced_setup(result):
    return {
        key: value
        for key, value in result.setup.items()
        if key not in ("price_cache", "backend_memo")
    }


def _tables(plan):
    return [e.price_cache.table for e in (plan.engine, *plan.shard_engines)]


@pytest.fixture(scope="module")
def runs():
    monkeypatch = pytest.MonkeyPatch()
    try:
        yield {
            name: (
                _run(monkeypatch, fleet, shared=True),
                _run(monkeypatch, fleet, shared=False),
            )
            for name, fleet in FLEETS.items()
        }
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("name", FLEETS)
def test_shared_run_equals_per_replica_build(runs, name):
    (shared, _), (reference, _) = runs[name]
    assert shared.records == reference.records
    assert shared.assignments == reference.assignments
    assert shared.summary() == reference.summary()
    assert len(shared.replicas) == len(reference.replicas)
    for ours, theirs in zip(shared.replicas, reference.replicas):
        assert ours.index == theirs.index
        assert ours.routed == theirs.routed
        assert ours.result.records == theirs.result.records
        assert ours.result.shed == theirs.result.shed
        assert ours.result.metrics == theirs.result.metrics
        assert _unpriced_setup(ours.result) == _unpriced_setup(theirs.result)
        assert _outside_pricing(ours.telemetry_snapshot) == _outside_pricing(
            theirs.telemetry_snapshot
        )


def test_autoscale_decisions_unchanged_across_configurations(runs):
    (shared, built), (reference, _) = runs["autoscale-replan"]
    scaling = shared.metrics["autoscale"]
    assert scaling["decisions"] == reference.metrics["autoscale"]["decisions"]
    assert (
        scaling["scaling_events"]
        == reference.metrics["autoscale"]["scaling_events"]
    )
    placements = {plan.config.placement for plan, _ in built}
    assert len(placements) == len(built) >= 2
    assert len(shared.replicas) > len(built)


@pytest.mark.parametrize("name", FLEETS)
def test_each_configuration_is_built_once(runs, name):
    (shared, built), (reference, unshared) = runs[name]
    assert len({plan.config for plan, _ in built}) == len(built)
    assert len(unshared) == len(reference.replicas)
    if name != "autoscale-replan":
        assert len(built) == 1


@pytest.mark.parametrize("name", FLEETS)
def test_per_replica_counters_over_shared_tables(runs, name):
    (shared, built), (reference, _) = runs[name]
    sharded = name == "sharded"
    totals = dict.fromkeys(COUNTERS, 0)
    for ours, theirs in zip(shared.replicas, reference.replicas):
        stats = ours.result.setup["price_cache"]
        expected = theirs.result.setup["price_cache"]
        assert stats["hits"] + stats["misses"] == (
            expected["hits"] + expected["misses"]
        )
        mirror = _mirror(ours.telemetry_snapshot)
        assert {key: stats[key] for key in COUNTERS} == mirror
        if not sharded:
            size_gauges = [
                metric["value"]
                for metric in ours.telemetry_snapshot["gauges"]
                if metric["name"] == "pricing/cache/size"
            ]
            assert size_gauges == [stats["size"]]
        for key in COUNTERS:
            totals[key] += stats[key]
    computed = sum(
        len(table.entries) for plan, _ in built for table in _tables(plan)
    )
    assert totals["misses"] == (
        computed + totals["evictions"] + totals["invalidations"]
    )
    # Sharing is the point: replicas find their siblings' prices.
    reference_misses = sum(
        r.result.setup["price_cache"]["misses"] for r in reference.replicas
    )
    assert totals["misses"] < reference_misses


def test_replan_invalidation_reaches_siblings(runs):
    (shared, _), (reference, _) = runs["faults-kv-sanitizer"]
    stats = [r.result.setup["price_cache"] for r in shared.replicas]
    assert sum(s["invalidations"] for s in stats) > 0
    assert shared.records == reference.records


@pytest.mark.parametrize("name", FLEETS)
def test_shared_engines_are_not_mutated(runs, name):
    (_, built), _ = runs[name]
    for plan, states in built:
        engines = (plan.engine, *plan.shard_engines)
        for engine, (attrs, assignments, spill_log) in zip(engines, states):
            now = vars(engine)
            assert now.keys() == attrs.keys()
            for key, value in attrs.items():
                assert now[key] is value, key
            assert engine.placement_result.assignments == assignments
            assert engine.spill_log == spill_log


def _small_plan():
    return ReplicaPlan.build(
        ReplicaConfig(model="opt-1.3b", host="DRAM", placement="helm")
    )


def _counts(costs):
    stats = costs.cache.stats
    return stats.hits, stats.misses, stats.invalidations


def test_sibling_invalidation_turns_the_next_lookup_into_a_miss():
    plan = _small_plan()
    first, second = plan.cost_model(), plan.cost_model()
    price = first.decode_time(2, 100)
    # The sibling's entry is a hit for the second replica.
    assert second.decode_time(2, 100) == price
    assert _counts(first) == (0, 1, 0)
    assert _counts(second) == (1, 0, 0)

    plan.engine.replan_for_degradation(
        host_slowdown=4.0, price_cache=first.cache
    )
    assert _counts(first) == (0, 1, 1)
    # The second replica's front memo is stale now: it recomputes a
    # float-identical price and counts the miss as its own.
    assert second.decode_time(2, 100) == price
    assert _counts(second) == (1, 1, 0)
    assert first.decode_time(2, 100) == price
    assert _counts(first) == (1, 1, 1)
    assert len(first.cache) == len(second.cache) == 1


def test_replan_rejects_a_foreign_cache():
    plan = _small_plan()
    with pytest.raises(ConfigurationError, match="price table"):
        plan.engine.replan_for_degradation(
            host_slowdown=2.0, price_cache=PriceCache()
        )


def test_each_view_mirrors_into_its_own_registry():
    plan = _small_plan()
    first, second = plan.cost_model(), plan.cost_model()
    registries = [Telemetry.create().registry for _ in range(3)]
    first.cache.bind_telemetry(registries[0])
    second.cache.bind_telemetry(registries[1])
    first.decode_time(1, 64)
    second.decode_time(1, 64)
    # Re-binding one view moves only that view's mirror.
    second.cache.bind_telemetry(registries[2])
    second.decode_time(1, 64)
    first.prefill_time(1, 64)

    def mirror(registry):
        snapshot = registry.snapshot()
        values = _mirror(snapshot)
        sizes = [
            m["value"]
            for m in snapshot["gauges"]
            if m["name"] == "pricing/cache/size"
        ]
        return values["hits"], values["misses"], sizes

    assert mirror(registries[0]) == (0, 2, [2])
    assert mirror(registries[1]) == (1, 0, [1])
    assert mirror(registries[2]) == (2, 0, [2])
