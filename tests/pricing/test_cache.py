"""The cost model's price memo: counters, one entry per miss."""

import math

import pytest

from repro.core.engine import OffloadEngine
from repro.pricing import AnalyticBackend
from repro.serve.costs import IterationCostModel


@pytest.fixture(scope="module")
def engine():
    return OffloadEngine(
        model="opt-30b", host="NVDRAM", placement="helm",
        compress_weights=True,
    )


def test_hit_miss_counters(engine):
    costs = engine.cost_model()
    prefill = costs.prefill_parts(1, 128)
    assert costs.prefill_parts(1, 128) is prefill
    costs.decode_parts(1, 128)
    stats = costs.cache_stats
    assert (stats["hits"], stats["misses"]) == (1, 2)
    assert stats["hit_rate"] == round(1 / 3, 4)
    assert stats["size"] == costs.size == 2


def test_memo_computes_each_row_once(engine, monkeypatch):
    calls = []
    row = AnalyticBackend.iteration_row

    def counting_row(self, spec, stage, buckets):
        calls.append((stage, spec.batch_size))
        return row(self, spec, stage, buckets)

    monkeypatch.setattr(AnalyticBackend, "iteration_row", counting_row)
    costs = engine.cost_model()
    # Context 149 and 150 share the 160-token bucket; 200 is another
    # cell of the same row.
    first = costs.decode_parts(2, 149)
    assert costs.decode_parts(2, 150) is first
    costs.decode_parts(2, 200)
    assert len(calls) == 1
    assert (costs.hits, costs.misses) == (1, 2)


def test_fresh_model_summary_is_all_zero(engine):
    costs = engine.cost_model()
    assert costs.cache_stats == {
        "hits": 0, "misses": 0, "size": 0, "hit_rate": 0.0
    }


def test_run_spec_is_built_only_when_a_row_is_missing(engine, monkeypatch):
    specs = []
    spec = IterationCostModel._spec

    def counting_spec(self, batch, prompt_len):
        specs.append(batch)
        return spec(self, batch, prompt_len)

    monkeypatch.setattr(IterationCostModel, "_spec", counting_spec)
    costs = engine.cost_model()
    # Three cells of the batch-2 decode row, one of them twice: one
    # row, so one spec, though three lookups miss the memo.
    for context in (40, 149, 200, 40):
        costs.decode_parts(2, context)
    assert specs == [2]
    assert (costs.hits, costs.misses) == (1, 3)
    costs.decode_parts(3, 40)
    costs.prefill_parts(2, 40)
    assert specs == [2, 3, 2]


def test_reference_parts_count_no_lookup(engine):
    costs = engine.cost_model()
    prefill, decode = costs.reference_parts(100, 8, 2)
    assert costs.cache_stats["hits"] == costs.cache_stats["misses"] == 0
    assert costs.size == 0
    # The same cells, looked up, are priced from the rows it fetched.
    assert costs.prefill_parts(1, 100) == prefill
    assert costs.decode_parts(2, 108) == decode
    assert (costs.hits, costs.misses) == (0, 2)
    assert costs.reference_service_time(100, 8, 2) == (
        prefill.total_s() + 7 * decode.total_s()
    )
    assert (costs.hits, costs.misses) == (0, 2)


def test_decode_bucket_reads_one_price_per_bucket(engine):
    costs = engine.cost_model()
    duration, run = costs.decode_bucket(2, 135)
    # 135 rounds up to the 160 bucket: 135..160 share its price.
    assert run == 160 - 135 + 1
    assert duration == costs.decode_time(2, 160)
    assert (costs.hits, costs.misses) == (1, 1)
    costs.count_decode_hits(run - 1)
    assert (costs.hits, costs.misses) == (run, 1)
    assert costs.misses == costs.size
    cap = costs.max_position
    duration, run = costs.decode_bucket(2, cap + 10)
    assert run == math.inf
    assert duration == costs.decode_time(2, cap)
