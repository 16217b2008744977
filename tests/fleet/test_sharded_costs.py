"""ShardedCostModel: per-shard prices combined into replica prices."""

import pytest

from repro.core.engine import OffloadEngine
from repro.core.placement.sharding import ShardedPlacement
from repro.errors import ConfigurationError
from repro.fleet.costs import ShardedCostModel, shard_engines


def make_engine(model="opt-6.7b"):
    return OffloadEngine(model=model, host="CXL-ASIC", placement="helm")


@pytest.fixture(scope="module")
def engine():
    return make_engine()


@pytest.fixture(scope="module")
def tp2(engine):
    sharded = ShardedPlacement.plan(engine.placement_result, 2, 1)
    return ShardedCostModel(engine, sharded)


@pytest.fixture(scope="module")
def pp2(engine):
    sharded = ShardedPlacement.plan(engine.placement_result, 1, 2)
    return ShardedCostModel(engine, sharded)


class TestConstruction:
    def test_degree_one_refuses(self, engine):
        identity = ShardedPlacement.plan(engine.placement_result, 1, 1)
        with pytest.raises(ConfigurationError, match="degree-1"):
            ShardedCostModel(engine, identity)

    def test_one_engine_per_shard(self, engine):
        sharded = ShardedPlacement.plan(engine.placement_result, 2, 2)
        engines = shard_engines(engine, sharded)
        assert len(engines) == 4
        for shard_engine in engines:
            assert shard_engine.host is engine.host
            assert shard_engine.policy is engine.policy


class TestCombination:
    def test_tp_prefill_includes_allreduce_entries(self, tp2):
        parts = tp2.prefill_parts(4, 128)
        solo = tp2.models[0].prefill_parts(4, 128)
        # One extra (transfer, 0 compute) entry for the stage allreduce.
        assert len(parts.transfers) == len(solo.transfers) + 1
        assert parts.computes[-1] == 0.0
        assert parts.transfers[-1] > 0.0

    def test_pp_decode_includes_handoff_entry(self, pp2):
        parts = pp2.decode_parts(4, 256)
        per_stage = [
            model.decode_parts(4, 256) for model in pp2.models
        ]
        combined_layers = sum(len(p.transfers) for p in per_stage)
        # Stages concatenate, plus one handoff between the two stages.
        assert len(parts.transfers) == combined_layers + 1

    def test_tp_stage_takes_its_critical_shard(self, tp2):
        parts = tp2.prefill_parts(2, 64)
        shard_totals = [
            model.prefill_parts(2, 64).total_s() for model in tp2.models
        ]
        allreduce = parts.transfers[-1]
        assert parts.total_s() == pytest.approx(
            max(shard_totals) + allreduce
        )

    def test_max_concurrency_is_the_tightest_shard(self, tp2):
        caps = [model.max_concurrency(512) for model in tp2.models]
        assert tp2.max_concurrency(512) == min(caps)

    def test_faulted_parts_falls_back_to_lump_sum(self, tp2):
        assert tp2.faulted_parts(4, 128) is None

    def test_cache_stats_sum_across_shards(self, tp2):
        tp2.prefill_time(4, 128)
        stats = tp2.cache_stats
        assert stats
        for key, value in stats.items():
            assert value == sum(
                model.cache_stats.get(key, 0) for model in tp2.models
            )

    def test_reference_service_time_composes(self, tp2):
        ref = tp2.reference_service_time(prompt_len=128, gen_len=4, batch=2)
        expected = tp2.prefill_time(1, 128) + 3 * tp2.decode_time(2, 132)
        assert ref == pytest.approx(expected)
