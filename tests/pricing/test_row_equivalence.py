"""A price miss reads a cell of its batch size's bucket row.

On a miss at ``(stage, batch, bucket)`` the serving cost model prices
the batch size's whole bucket row in one grid pass, memoized on the
configuration's :class:`~repro.pricing.LayerCostGrid`, and every later
miss in the row is a cell read.  These tests pin that every cell of
such a row (the stage's cap bucket included) equals the single-cell
analytic price and the event oracle ``==`` for ``==``, parts and
totals alike; that the row's vectorized totals equal the per-cell
sequential ones; and that a serving run evaluates one grid per
``(stage, batch)`` row while its price-memo counters and records stay
those of one cell per miss.
"""

import pytest

from repro.core.engine import OffloadEngine
from repro.core.metrics import Stage
from repro.core.policy import Policy
from repro.pricing import AnalyticBackend, EventBackend, LayerCostGrid
from repro.pricing.backends import CellRow
from repro.serve.costs import IterationCostModel
from repro.serve.simulator import simulate_serving
from repro.workloads.lengths import LengthDistribution

#: Host-resident KV with CPU attention: prefill working sets differ
#: per prompt bucket, and OPT-13B's footprint is past the size where
#: Optane bandwidth starts to fall with the working set, so the
#: transfer times differ too.
CPU_KV = Policy(
    gpu_percent=0,
    cpu_percent=100,
    disk_percent=0,
    kv_gpu_percent=50,
    cpu_attention=True,
)

#: name -> (engine settings, batch size the rows are priced at).
CONFIGS = {
    "opt-175b/nvdram/helm": (
        dict(model="opt-175b", host="NVDRAM", placement="helm"), 1
    ),
    "opt-6.7b/cxl-asic/helm": (
        dict(model="opt-6.7b", host="CXL-ASIC", placement="helm"), 5
    ),
    "opt-6.7b/dram/allcpu": (
        dict(model="opt-6.7b", host="DRAM", placement="allcpu"), 3
    ),
    "opt-30b/nvdram/helm/compressed": (
        dict(
            model="opt-30b", host="NVDRAM", placement="helm",
            compress_weights=True,
        ),
        8,
    ),
    "opt-13b/nvdram/cpu-kv": (
        dict(model="opt-13b", host="NVDRAM", placement="helm", policy=CPU_KV),
        2,
    ),
}


def _cost_model(config):
    engine = OffloadEngine(batch_size=1, **config)
    return engine.cost_model()


def _cells(costs, stage, batch):
    """``(spec, bucket)`` of every cell on the stage's bucket axis."""
    engine = costs.engine
    for bucket in costs._axes[stage]:
        prompt = bucket if stage is Stage.PREFILL else engine.prompt_len
        yield costs._spec(batch, prompt), bucket


@pytest.mark.parametrize("stage", (Stage.PREFILL, Stage.DECODE))
def test_axis_is_every_bucket_the_model_can_ask_for(stage):
    costs = _cost_model(CONFIGS["opt-175b/nvdram/helm"][0])
    cap = costs.max_position
    if stage is Stage.PREFILL:
        cap -= costs.engine.gen_len
    axis = costs._axes[stage]
    assert axis == tuple(sorted(axis))
    assert axis[-1] == cap
    assert set(axis) == {
        costs._bucket(tokens, cap) for tokens in range(1, cap + 1)
    }


@pytest.mark.parametrize("config,batch", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("stage", (Stage.PREFILL, Stage.DECODE))
def test_row_cells_equal_single_cells_and_the_event_oracle(
    config, batch, stage
):
    costs = _cost_model(config)
    rows = AnalyticBackend()
    cells = AnalyticBackend()
    event = EventBackend()
    axis = costs._axes[stage]
    spec = costs._spec(batch, costs.engine.prompt_len)
    row = rows.iteration_row(spec, stage, axis)
    event_row = event.iteration_row(spec, stage, axis)
    assert row.shape[:2] == (1, len(axis))
    assert rows.iteration_row(spec, stage, axis) is row
    for (cell_spec, bucket), total in zip(
        _cells(costs, stage, batch), row.totals()[0].tolist()
    ):
        parts = row.parts(batch, bucket)
        single = cells.iteration_parts(cell_spec, stage, bucket)
        oracle = event.iteration_parts(cell_spec, stage, bucket)
        assert parts == single == oracle
        assert event_row.parts(batch, bucket) == oracle
        assert parts.total_s() == single.total_s() == oracle.total_s()
        assert total == oracle.total_s()
        assert parts.total_s(1.5) == oracle.total_s(1.5)


def test_cpu_resident_kv_prefill_row_spans_several_transfer_rows():
    """The CPU-KV config really exercises per-cell working sets."""
    costs = _cost_model(CONFIGS["opt-13b/nvdram/cpu-kv"][0])
    spec = costs._spec(2, costs.engine.prompt_len)
    row = LayerCostGrid(spec).row(
        Stage.PREFILL, 2, costs._axes[Stage.PREFILL]
    )
    distinct = {tuple(cell) for cell in row.transfers[0].tolist()}
    assert len(distinct) > 1


def test_grid_totals_equal_per_cell_totals():
    """A multi-batch grid's vectorized totals are the cells' own."""
    costs = _cost_model(CONFIGS["opt-30b/nvdram/helm/compressed"][0])
    spec = costs._spec(1, costs.engine.prompt_len)
    grid = LayerCostGrid(spec).evaluate(
        Stage.DECODE, (1, 2, 7), costs._axes[Stage.DECODE]
    )
    for i in range(3):
        for j in range(len(grid.context_lens)):
            cell = grid.parts_at(i, j)
            assert grid.totals()[i, j] == cell.total_s()


def _serve():
    return simulate_serving(
        model="opt-1.3b",
        host="DRAM",
        placement="helm",
        rate_rps=2.0,
        num_requests=40,
        seed=5,
        max_batch=8,
        prompt_lengths=LengthDistribution.uniform(16, 400),
        gen_lengths=LengthDistribution.uniform(8, 80),
        kv_policy="hotness",
        sanitize=False,
    )


def _cell_per_miss(self, spec, stage, buckets):
    """The row read priced one single-cell grid per miss."""
    return CellRow(self, spec, stage)


def test_serve_run_evaluates_one_grid_per_row(monkeypatch):
    evaluated = []
    evaluate = LayerCostGrid.evaluate

    def counting_evaluate(self, stage, batch_sizes, context_lens):
        evaluated.append((stage, tuple(batch_sizes)))
        return evaluate(self, stage, batch_sizes, context_lens)

    #: (stage, (batch,)) of every computed price, one per miss.
    priced = []
    parts = IterationCostModel._parts

    def recording_parts(self, memo, stage, batch, prompt_len, bucket):
        if (batch, bucket) not in memo:
            priced.append((stage, (batch,)))
        return parts(self, memo, stage, batch, prompt_len, bucket)

    monkeypatch.setattr(IterationCostModel, "_parts", recording_parts)
    with monkeypatch.context() as patch:
        patch.setattr(LayerCostGrid, "evaluate", counting_evaluate)
        result = _serve()
    rows = set(priced)
    assert len(evaluated) == len(set(evaluated)) == len(rows) > 2
    assert set(evaluated) == rows
    misses = len(priced)
    assert misses > len(rows)

    priced.clear()
    with monkeypatch.context() as patch:
        patch.setattr(AnalyticBackend, "iteration_row", _cell_per_miss)
        baseline = _serve()
    assert len(priced) == misses

    stats = result.setup["price_cache"]
    assert stats == baseline.setup["price_cache"]
    assert stats["misses"] == misses and stats["hits"] > 0
    assert result.records == baseline.records
    assert result.summary() == baseline.summary()
