"""Lazy grid pricing: every analytic price miss is one grid cell.

KV tiering with overcommit admits batches larger than the engine's
planned batch cap, so the batch shapes a run prices are data-dependent
and no ladder guessed up front covers them.  The analytic backend
prices each miss on demand as a single cell of its configuration's
memoized :class:`~repro.pricing.LayerCostGrid`; these tests pin that
the scalar ``LayerCostModel.iteration_layer_times`` walk stays off
the serving path, that the grid prices equal the event oracle, and
that all prefill buckets of a configuration share one grid.
"""

import pytest

import repro.serve.costs
from repro.core.engine import OffloadEngine
from repro.core.layercosts import LayerCostModel
from repro.kv import HotnessKvPolicy, KvCacheManager
from repro.pricing import EventBackend
from repro.serve.simulator import simulate_serving

OVERCOMMIT = HotnessKvPolicy(overcommit=8.0)


def _engine():
    return OffloadEngine(
        model="opt-mini",
        host="DRAM",
        placement="helm",
        batch_size=1,
        prompt_len=32,
        gen_len=8,
    )


def _simulate():
    return simulate_serving(
        model="opt-mini",
        host="DRAM",
        placement="helm",
        rate_rps=40.0,
        num_requests=40,
        seed=11,
        max_batch=2,
        kv_policy=OVERCOMMIT,
    )


def _no_scalar_walk(self, *args, **kwargs):
    raise AssertionError(
        "LayerCostModel.iteration_layer_times is not a serving pricer"
    )


def test_overcommitted_batches_priced_through_grid(monkeypatch):
    """Admission past the planned batch cap prices only via the grid,
    and the run equals the event-priced run bit for bit."""
    engine = _engine()
    kv = KvCacheManager(engine, OVERCOMMIT)
    assert kv.admission_limit() > engine.max_batch_size()

    with monkeypatch.context() as patch:
        patch.setattr(repro.serve.costs, "AnalyticBackend", EventBackend)
        oracle = _simulate()
    monkeypatch.setattr(
        LayerCostModel, "iteration_layer_times", _no_scalar_walk
    )
    result = _simulate()

    assert max(s.batch for s in result.timeline) > result.setup["max_batch"]
    assert result.setup["price_cache"]["misses"] > 0
    backend_keys = {"backend_memo"}
    summary = {
        k: v for k, v in result.summary().items() if k not in backend_keys
    }
    expected = {
        k: v for k, v in oracle.summary().items() if k not in backend_keys
    }
    assert summary == expected
    assert result.records == oracle.records
    assert result.shed == oracle.shed


@pytest.mark.parametrize("batch", (1, 4))
def test_prefill_buckets_share_one_grid(batch):
    """``evaluate(PREFILL)`` never reads the spec's prompt length, so
    every prompt bucket of one configuration prices off one grid."""
    costs = _engine().cost_model(overlap=True)
    for prompt in (32, 64, 100, 200, 248):
        costs.prefill_parts(batch, prompt)
    assert len(costs.cache) == 5
    assert costs.backend.cache_info["entries"] == 1
