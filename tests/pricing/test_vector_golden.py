"""Golden equivalence for the vectorized grid.

The tentpole claim of :mod:`repro.pricing.vector`: the numpy
:class:`LayerCostGrid` evaluates the scalar
:class:`~repro.core.layercosts.LayerCostModel` arithmetic for a whole
(batch x context-bucket) grid and its cells equal the scalar
references **float for float** — ``==``, never ``approx`` — for
every placement scheme, model size, host technology, and policy
variant, on randomized grids, and on every tensor/pipeline shard.
``AnalyticBackend`` itself prices
through the grid, so the independent oracles here are the event
backend and the scalar ``LayerCostModel.iteration_layer_times`` walk.
"""

import random
import zlib

import pytest

from repro.core.engine import OffloadEngine
from repro.core.metrics import Stage
from repro.core.placement.sharding import ShardedPlacement
from repro.core.policy import Policy
from repro.errors import ConfigurationError
from repro.fleet.costs import shard_engines
from repro.pricing import (
    AnalyticBackend,
    EventBackend,
    IterationParts,
    LayerCostGrid,
)

PLACEMENTS = ("baseline", "helm", "allcpu")
MODELS = ("opt-30b", "opt-175b")


def _engine(model, placement, host="NVDRAM", **kwargs):
    return OffloadEngine(
        model=model,
        host=host,
        placement=placement,
        compress_weights=True,
        batch_size=1,
        **kwargs,
    )


def _scalar_walk(backend, spec, stage, context):
    """The scalar reference: one ``LayerCostModel`` walk per cell."""
    transfers, computes = backend.layer_model(spec).iteration_layer_times(
        stage, context
    )
    return IterationParts(
        transfers=tuple(transfers),
        computes=tuple(computes),
        overlap=spec.overlap,
    )


def _random_axes(seed, max_position, gen_len):
    rng = random.Random(seed)
    batches = sorted(rng.sample(range(1, 33), 4))
    cap = max_position - gen_len
    buckets = sorted(rng.sample(range(32, cap + 1, 32), 4))
    return batches, buckets


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_grid_equals_both_scalar_backends(model, placement):
    engine = _engine(model, placement)
    spec = engine.run_spec(include_faults=False)
    batches, buckets = _random_axes(
        zlib.crc32(f"{model}/{placement}".encode()),
        engine.config.max_position,
        engine.gen_len,
    )
    grid = LayerCostGrid(spec)
    analytic = AnalyticBackend()
    event = EventBackend()

    decode = grid.evaluate(Stage.DECODE, batches, buckets)
    for i, batch in enumerate(batches):
        shaped = spec.with_shape(batch_size=batch)
        for j, bucket in enumerate(buckets):
            cell = decode.parts_at(i, j)
            a = analytic.iteration_parts(shaped, Stage.DECODE, bucket)
            e = event.iteration_parts(shaped, Stage.DECODE, bucket)
            assert cell == a == e
            assert decode.parts(batch, bucket) == cell
            assert float(decode.totals()[i, j]) == a.total_s()

    prefill = grid.evaluate(Stage.PREFILL, batches, buckets)
    for i, batch in enumerate(batches):
        for j, bucket in enumerate(buckets):
            shaped = spec.with_shape(batch_size=batch, prompt_len=bucket)
            cell = prefill.parts_at(i, j)
            a = analytic.iteration_parts(shaped, Stage.PREFILL, bucket)
            e = event.iteration_parts(shaped, Stage.PREFILL, bucket)
            assert cell == a == e


@pytest.mark.parametrize(
    "host,policy_kwargs",
    (
        ("DRAM", {}),
        ("NVDRAM", {}),
        (
            "FSDAX",
            dict(
                gpu_percent=0,
                cpu_percent=100,
                disk_percent=0,
                kv_gpu_percent=0,
                cpu_attention=True,
            ),
        ),
        ("MemoryMode", {}),
    ),
    ids=("dram", "optane", "cpu-attention", "memory-mode"),
)
def test_grid_exact_across_host_technologies(host, policy_kwargs):
    """Working-set-dependent bandwidths (Optane decay, Memory Mode hit
    fraction) and CPU attention all stay float-equal — these are the
    paths routed through the scalar solver on purpose."""
    policy = Policy(**policy_kwargs) if policy_kwargs else None
    engine = OffloadEngine(
        model="opt-6.7b",
        host=host,
        placement="helm",
        policy=policy,
        batch_size=1,
    )
    spec = engine.run_spec(include_faults=False)
    grid = LayerCostGrid(spec)
    analytic = AnalyticBackend()
    batches, buckets = (1, 3, 8), (128, 160, 1024)
    decode = grid.evaluate(Stage.DECODE, batches, buckets)
    for i, batch in enumerate(batches):
        shaped = spec.with_shape(batch_size=batch)
        for j, bucket in enumerate(buckets):
            assert decode.parts_at(i, j) == _scalar_walk(
                analytic, shaped, Stage.DECODE, bucket
            )


def test_grid_validation():
    engine = _engine("opt-30b", "helm")
    spec = engine.run_spec(include_faults=False)
    grid = LayerCostGrid(spec)
    with pytest.raises(ConfigurationError):
        grid.evaluate(Stage.DECODE, (), (128,))
    with pytest.raises(ConfigurationError):
        grid.evaluate(Stage.DECODE, (0,), (128,))
    with pytest.raises(ConfigurationError):
        grid.evaluate(Stage.DECODE, (1,), (0,))
    with pytest.raises(ConfigurationError):
        grid.evaluate(Stage.DECODE, (1, 1), (128,))
    # Prefill prompts must leave room for the generated tokens.
    max_position = engine.config.max_position
    with pytest.raises(ConfigurationError):
        grid.evaluate(Stage.PREFILL, (1,), (max_position,))
    # Off-grid lookups fail loudly instead of returning a neighbor.
    evaluated = grid.evaluate(Stage.DECODE, (1, 2), (128,))
    with pytest.raises(ConfigurationError):
        evaluated.parts(3, 128)


def test_backend_cost_grid_memoizes_per_family():
    """Shape siblings share one grid: the memo key normalizes batch."""
    engine = _engine("opt-30b", "helm")
    backend = AnalyticBackend()
    spec = engine.run_spec(include_faults=False)
    grid_a = backend.cost_grid(spec.with_shape(batch_size=1))
    grid_b = backend.cost_grid(spec.with_shape(batch_size=16))
    assert grid_a is grid_b
    assert backend.cache_info["entries"] >= 1


#: (tensor, pipeline) partitions; TP2xPP3 gives a middle stage.
SHARDINGS = ((2, 1), (1, 2), (2, 2), (2, 3))


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize(
    "tp,pp", SHARDINGS, ids=[f"tp{tp}xpp{pp}" for tp, pp in SHARDINGS]
)
def test_grid_equals_scalar_and_event_on_every_shard(model, tp, pp):
    """Shard engines price narrower layers (``shard_hidden``,
    ``shard_ffn_dim``, ``shard_vocab``) through the same formulas, so
    every stage and every TP rank stays ``==`` the oracles."""
    engine = OffloadEngine(
        model=model,
        host="NVDRAM",
        placement="helm",
        compress_weights=True,
        batch_size=4,
    )
    sharded = ShardedPlacement.plan(engine.placement_result, tp, pp)
    analytic = AnalyticBackend()
    event = EventBackend()
    batches, buckets = (1, 4), (128, 512)
    stages_seen = set()
    for shard, shard_engine in zip(
        sharded.shards, shard_engines(engine, sharded)
    ):
        stages_seen.add(shard.spec.pp_index)
        spec = shard_engine.run_spec(include_faults=False)
        grid = LayerCostGrid(spec)
        for stage in (Stage.DECODE, Stage.PREFILL):
            evaluated = grid.evaluate(stage, batches, buckets)
            for i, batch in enumerate(batches):
                for j, bucket in enumerate(buckets):
                    shaped = spec.with_shape(
                        batch_size=batch,
                        prompt_len=bucket if stage is Stage.PREFILL else None,
                    )
                    cell = evaluated.parts_at(i, j)
                    e = event.iteration_parts(shaped, stage, bucket)
                    walk = _scalar_walk(analytic, shaped, stage, bucket)
                    assert cell == e == walk, (shard.spec.label, stage)
    assert stages_seen == set(range(pp))
