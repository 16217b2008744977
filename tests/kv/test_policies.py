"""Determinism and policy semantics of the dynamic KV policies."""

import pytest

from repro.errors import ConfigurationError
from repro.kv import (
    KV_POLICY_NAMES,
    HotnessKvPolicy,
    KvCacheManager,
    KvPolicy,
    StaticKvPolicy,
    kv_policy,
)
from repro.core.engine import OffloadEngine
from repro.serve.request import RequestSpec
from repro.serve.simulator import simulate_serving
from repro.telemetry import Telemetry
from repro.workloads.lengths import LengthDistribution


def dynamic_run(policy):
    return simulate_serving(
        model="opt-175b",
        host="NVDRAM",
        placement="helm",
        arrival="bursty",
        rate_rps=0.1,
        num_requests=24,
        seed=5,
        prompt_lengths=LengthDistribution.lognormal(median=1024),
        gen_lengths=LengthDistribution.fixed(8),
        kv_policy=policy,
    )


class TestResolver:
    def test_names_round_trip(self):
        for name in KV_POLICY_NAMES:
            policy = kv_policy(name)
            assert policy.name == name
        instance = HotnessKvPolicy(overcommit=3.0)
        assert kv_policy(instance) is instance

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            kv_policy("mystery")

    def test_overcommit_validated(self):
        with pytest.raises(ConfigurationError):
            HotnessKvPolicy(overcommit=0.5)

    def test_family_flags(self):
        assert not StaticKvPolicy().dynamic
        hot = kv_policy("hotness")
        assert hot.dynamic and hot.evict_cold and hot.promote_on_read
        assert not hot.inclusive
        assert kv_policy("hotness-inclusive").inclusive


class TestDeterminism:
    def test_eviction_and_promotion_replay_identically(self):
        """Same seed, same trace: the dynamic run (admission, LRU
        demotions, promotions and all) is fully deterministic."""
        first = dynamic_run(HotnessKvPolicy(overcommit=8.0))
        second = dynamic_run(HotnessKvPolicy(overcommit=8.0))
        assert first.metrics.summary() == second.metrics.summary()
        assert first.records == second.records
        assert first.setup["kv"] == second.setup["kv"]
        assert first.setup["kv"]["migrations"] > 0

    def test_inclusive_variant_deterministic(self):
        policy = HotnessKvPolicy(
            name="hotness-inclusive", inclusive=True, overcommit=8.0
        )
        first = dynamic_run(policy)
        second = dynamic_run(policy)
        assert first.metrics.summary() == second.metrics.summary()
        assert first.setup["kv"] == second.setup["kv"]


class TestManagerSemantics:
    def test_admission_limit_scales_with_overcommit(self):
        engine = OffloadEngine(
            model="opt-175b", host="NVDRAM", placement="helm",
            compress_weights=True, batch_size=1,
        )
        limits = [
            KvCacheManager(
                engine, policy=HotnessKvPolicy(overcommit=oc)
            ).admission_limit()
            for oc in (1.0, 4.0, 8.0)
        ]
        assert limits == sorted(limits)
        assert limits[0] < limits[-1]
        # The static manager never caps admission.
        assert KvCacheManager(engine).admission_limit() is None

    def test_static_surcharges_are_exactly_zero(self):
        engine = OffloadEngine(
            model="opt-30b", host="DRAM", placement="baseline",
            batch_size=1,
        )
        manager = KvCacheManager(engine)
        from repro.serve.request import RequestSpec

        spec = RequestSpec(
            request_id=0, arrival_s=0.0, prompt_len=128, gen_len=8
        )
        admitted, surcharge = manager.try_admit(spec, now=0.0)
        assert admitted
        assert surcharge == 0.0
        assert manager.on_decode([], now=1.0) == 0.0


def test_occupancy_gauges_follow_the_tier_map():
    engine = OffloadEngine(
        model="opt-30b", host="DRAM", placement="baseline", batch_size=1,
    )
    telemetry = Telemetry.create()
    manager = KvCacheManager(engine, telemetry=telemetry)

    def gauges():
        return {
            budget.name: telemetry.registry.value(
                "kv/occupancy_bytes", labels={"tier": budget.name}
            )
            for budget in manager.topology.budgets
        }

    def occupancy():
        return {
            name: float(used)
            for name, used in manager.tiermap.occupancy().items()
        }

    assert all(value is None for value in gauges().values())
    for request_id in range(3):
        spec = RequestSpec(
            request_id=request_id, arrival_s=0.0, prompt_len=64, gen_len=8
        )
        assert manager.try_admit(spec, now=0.0)[0]
        assert gauges() == occupancy()
    manager.release(1, now=1.0)
    assert gauges() == occupancy()
    # Unchanged occupancy: the publish writes nothing.
    gauge = telemetry.registry.gauge(
        "kv/occupancy_bytes", labels={"tier": manager.topology.budgets[0].name}
    )
    gauge.set(-1.0)
    manager._publish_occupancy()
    assert gauge.value == -1.0
