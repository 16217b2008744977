"""The cost model's price memo is exact.

``IterationCostModel`` answers a repeated ``(stage, batch, bucket)``
from one plain dict per stage, the only price memo.  These tests pin
that the memo is invisible: whole runs that reprice every lookup
afresh give the same records and the same counters; a cost model
counts only its own lookups; and a re-plan leaves the nominal model's
prices in place, so after recovery they are the same floats, read as
hits.
"""

from repro.core.engine import OffloadEngine
from repro.fleet import simulate_fleet
from repro.serve.costs import IterationCostModel
from repro.serve.resilience import engine_replanner
from repro.serve.simulator import simulate_serving
from repro.telemetry import Telemetry
from repro.telemetry.summary import cache_stats_line
from repro.workloads.lengths import LengthDistribution


_memo_parts = IterationCostModel._parts


def _memo_free_parts(self, memo, stage, batch, prompt_len, bucket):
    """The lookup without the memo: a fresh single-cell price every
    time, which the memo's answer (counted as usual) must equal."""
    parts = self.backend.iteration_parts(
        self._spec(batch, prompt_len), stage, bucket
    )
    assert _memo_parts(self, memo, stage, batch, prompt_len, bucket) == parts
    return parts


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


def test_replan_and_recovery_keep_nominal_prices_as_hits():
    """Degrade, re-plan, recover: the nominal model's prices are the
    same floats and count as hits; the degraded model is a sibling
    with its own memo."""
    engine = OffloadEngine(
        model="opt-30b", host="NVDRAM", placement="helm",
        compress_weights=True,
    )
    costs = engine.cost_model()
    prefill, decode = costs.prefill_time(2, 40), costs.decode_time(1, 149)
    assert (costs.hits, costs.misses) == (0, 2)

    degraded = engine_replanner(engine)(4.0).costs
    assert degraded is not costs
    assert degraded.decode_time(1, 149) > decode
    assert (degraded.hits, degraded.misses) == (0, 1)

    assert costs.prefill_time(2, 40) == prefill
    assert costs.decode_time(1, 149) == decode
    assert costs.cache_stats == {
        "hits": 2, "misses": 2, "size": 2, "hit_rate": 0.5
    }


def test_telemetry_mirror_counts_memo_hits():
    telemetry = Telemetry.create()
    costs = _engine().cost_model()
    costs.bind_telemetry(telemetry.registry)
    for _ in range(3):
        costs.prefill_time(2, 40)
    assert telemetry.registry.value("pricing/cache/hits") == 2
    assert telemetry.registry.value("pricing/cache/misses") == 1
    assert (
        cache_stats_line(telemetry.registry)
        == "cache 2 hits / 1 misses (66.7% hit rate)"
    )


#: A lookup sequence that revisits shapes.
_SHAPES = (
    ("decode", 1, 40), ("decode", 2, 40), ("decode", 1, 40),
    ("prefill", 1, 32), ("decode", 2, 40), ("decode", 1, 40),
    ("prefill", 2, 64), ("prefill", 1, 32), ("decode", 3, 100),
    ("decode", 3, 100), ("prefill", 2, 64), ("decode", 1, 40),
    ("decode", 2, 40), ("decode", 2, 40), ("prefill", 1, 32),
)


def _lookup(costs, kind, batch, tokens):
    if kind == "prefill":
        return costs.prefill_parts(batch, tokens)
    return costs.decode_parts(batch, tokens)


def test_models_over_one_engine_count_only_their_own_lookups():
    """Two cost models over one engine, looked up in turn, each count
    exactly what a model that saw only its own lookups counts."""
    engine = _engine()
    first, second = engine.cost_model(), engine.cost_model()
    alone = {first: engine.cost_model(), second: engine.cost_model()}

    for index, (kind, batch, tokens) in enumerate(_SHAPES * 2):
        model = first if index % 3 else second
        parts = _lookup(model, kind, batch, tokens)
        assert parts == _lookup(alone[model], kind, batch, tokens)
        for each in (first, second):
            assert each.cache_stats == alone[each].cache_stats
    assert first.misses == first.size and second.misses == second.size
