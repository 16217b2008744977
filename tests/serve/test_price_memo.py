"""The cost model's front price memo is exact.

``IterationCostModel`` answers a repeated ``(stage, batch, bucket)``
from a plain dict instead of building a ``RunSpec`` and hashing it
into the shared ``PriceCache``.  These tests pin that the memo is
invisible: whole runs with the memo bypassed give the same records
and the same cache counters, a re-plan's invalidation still turns the
next nominal lookup into a miss, and under an LRU bound no evicted
entry is ever served and eviction order is unchanged.
"""

import pytest

from repro.core.engine import OffloadEngine
from repro.core.metrics import Stage
from repro.fleet import simulate_fleet
from repro.pricing import PriceCache
from repro.serve.costs import IterationCostModel
from repro.serve.simulator import simulate_serving
from repro.telemetry import Telemetry
from repro.telemetry.summary import cache_stats_line
from repro.workloads.lengths import LengthDistribution


def _memo_free_parts(self, memo, stage, batch, prompt_len, bucket):
    """The lookup without the memo: one spec build and cache probe."""
    spec = self._spec(batch, prompt_len)
    return self.cache.get_or_compute(
        spec,
        stage,
        bucket,
        lambda: self.backend.iteration_parts(spec, stage, bucket),
    )


def _bypass_memo(monkeypatch):
    monkeypatch.setattr(IterationCostModel, "_parts", _memo_free_parts)


def _engine(**kwargs):
    return OffloadEngine(
        model="opt-mini",
        host="DRAM",
        placement="helm",
        batch_size=1,
        prompt_len=32,
        gen_len=8,
        **kwargs,
    )


def _serve(telemetry):
    return simulate_serving(
        model="opt-1.3b",
        host="DRAM",
        placement="helm",
        rate_rps=2.0,
        num_requests=60,
        seed=5,
        max_batch=8,
        kv_policy="hotness",
        sanitize=True,
        telemetry=telemetry,
    )


def _fleet(telemetry):
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


def test_serve_run_is_memo_inert(monkeypatch):
    memo_tel = Telemetry.create()
    memo = _serve(memo_tel)
    with monkeypatch.context() as patch:
        _bypass_memo(patch)
        bare_tel = Telemetry.create()
        bare = _serve(bare_tel)

    assert memo.records == bare.records
    assert memo.shed == bare.shed
    assert memo.summary() == bare.summary()
    assert memo.setup["price_cache"] == bare.setup["price_cache"]
    assert memo.setup["price_cache"]["hits"] > 0
    assert cache_stats_line(memo_tel.registry) == cache_stats_line(
        bare_tel.registry
    )
    assert memo_tel.registry.snapshot() == bare_tel.registry.snapshot()


def test_four_replica_fleet_is_memo_inert(monkeypatch):
    memo_tel = Telemetry.create()
    memo = _fleet(memo_tel)
    with monkeypatch.context() as patch:
        _bypass_memo(patch)
        bare_tel = Telemetry.create()
        bare = _fleet(bare_tel)

    assert memo.records == bare.records
    assert sum(
        r.result.setup["price_cache"]["hits"] for r in memo.replicas
    ) > 0
    assert memo.assignments == bare.assignments
    assert memo.summary() == bare.summary()
    for ours, theirs in zip(memo.replicas, bare.replicas):
        assert ours.result.records == theirs.result.records
        assert (
            ours.result.setup["price_cache"]
            == theirs.result.setup["price_cache"]
        )
        assert ours.telemetry_snapshot == theirs.telemetry_snapshot
    assert cache_stats_line(memo.registry) == cache_stats_line(
        bare.registry
    )
    assert cache_stats_line(memo_tel.registry) == cache_stats_line(
        bare_tel.registry
    )


def test_replan_makes_the_next_nominal_lookup_a_miss():
    engine = _engine()
    costs = engine.cost_model()
    first = costs.decode_time(1, 149)
    assert costs.decode_time(1, 149) == first
    before = engine.price_cache.stats
    assert (before.hits, before.misses) == (1, 1)

    engine.replan_for_degradation(host_slowdown=4.0)
    assert costs.decode_time(1, 149) == first
    after = engine.price_cache.stats
    assert after.misses == before.misses + 1
    assert after.hits == before.hits
    assert after.size == 1


def test_telemetry_mirror_counts_memo_hits():
    engine = _engine()
    telemetry = Telemetry.create()
    engine.price_cache.bind_telemetry(telemetry.registry)
    costs = engine.cost_model()
    for _ in range(3):
        costs.prefill_time(2, 40)
    assert telemetry.registry.value("pricing/cache/hits") == 2
    assert telemetry.registry.value("pricing/cache/misses") == 1
    assert (
        cache_stats_line(telemetry.registry)
        == "cache 2 hits / 1 misses (66.7% hit rate)"
    )


#: A lookup sequence that revisits shapes after they were evicted.
_SHAPES = (
    ("decode", 1, 40), ("decode", 2, 40), ("decode", 1, 40),
    ("prefill", 1, 32), ("decode", 2, 40), ("decode", 1, 40),
    ("prefill", 2, 64), ("prefill", 1, 32), ("decode", 3, 100),
    ("decode", 3, 100), ("prefill", 2, 64), ("decode", 1, 40),
    ("decode", 2, 40), ("decode", 2, 40), ("prefill", 1, 32),
)


def _shape(key):
    spec, stage, bucket = key
    return (stage, spec.batch_size, bucket)


def _bucket(costs, kind, tokens):
    if kind == "prefill":
        return costs._bucket(
            tokens, costs.max_position - costs.engine.gen_len
        )
    return costs._bucket(tokens, costs.max_position)


def _lookup(costs, kind, batch, tokens):
    if kind == "prefill":
        return costs.prefill_parts(batch, tokens)
    return costs.decode_parts(batch, tokens)


def test_bounded_cache_never_serves_an_evicted_entry(monkeypatch):
    memo_engine = _engine()
    memo_engine.price_cache = PriceCache(maxsize=2)
    memo_costs = memo_engine.cost_model()
    bare_engine = _engine()
    bare_engine.price_cache = PriceCache(maxsize=2)
    bare_costs = bare_engine.cost_model()

    for kind, batch, tokens in _SHAPES:
        parts = _lookup(memo_costs, kind, batch, tokens)
        with monkeypatch.context() as patch:
            _bypass_memo(patch)
            expected = _lookup(bare_costs, kind, batch, tokens)

        assert parts == expected
        # What was served is what the cache holds right now.
        stage = Stage.PREFILL if kind == "prefill" else Stage.DECODE
        held = {
            _shape(key): value
            for key, value in memo_engine.price_cache._entries.items()
        }
        bucket = _bucket(memo_costs, kind, tokens)
        assert held[(stage.value, batch, bucket)] is parts
        # Same LRU order and counters as the memo-free lookups.
        assert [
            _shape(key) for key in memo_engine.price_cache._entries
        ] == [_shape(key) for key in bare_engine.price_cache._entries]
        assert (
            memo_engine.price_cache.stats == bare_engine.price_cache.stats
        )

    stats = memo_engine.price_cache.stats
    assert stats.evictions > 0 and stats.hits > 0


@pytest.mark.parametrize("maxsize", (None, 1, 3))
def test_shared_cache_across_models_stays_exact(maxsize, monkeypatch):
    """Two cost models over one cache: one model's misses may evict
    what the other memoized."""
    engine = _engine()
    engine.price_cache = PriceCache(maxsize=maxsize)
    first, second = engine.cost_model(), engine.cost_model()
    bare_engine = _engine()
    bare_engine.price_cache = PriceCache(maxsize=maxsize)
    bare_first = bare_engine.cost_model()
    bare_second = bare_engine.cost_model()

    for index, (kind, batch, tokens) in enumerate(_SHAPES * 2):
        model, bare_model = (
            (first, bare_first) if index % 3 else (second, bare_second)
        )
        parts = _lookup(model, kind, batch, tokens)
        with monkeypatch.context() as patch:
            _bypass_memo(patch)
            expected = _lookup(bare_model, kind, batch, tokens)
        assert parts == expected
        assert engine.price_cache.stats == bare_engine.price_cache.stats
