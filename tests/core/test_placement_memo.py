"""Memoized placement tier sums equal a fresh walk of the weights.

``PlacementResult.layer_tier_bytes`` and ``tier_total_bytes`` remember
their sums until ``set_tier`` — the one mutator — changes a weight's
tier.  These tests read every sum (filling the memo), mutate through
``set_tier``, ``demote_group`` and ``spill_to_fit``, and check the
memoized answers against sums recomputed from ``tier_of`` directly.
The memo stays out of the dataclass fields, so ``eq``, ``repr``,
``asdict`` and ``replace`` see only the assignment.

``place_model`` calls ``assign_layer`` once per layer shape (kind and
weights tuple) and copies the answer into every layer of that shape.
The last tests check it against the per-layer walk it replaced, for
every algorithm, model size and pipeline stage; pin the call count;
and guard against same-shaped layers sharing one assignment dict.
"""

import dataclasses

import pytest

from repro.core.placement.auto import AutoBalancedPlacement
from repro.core.placement.base import PlacementResult, spill_to_fit
from repro.core.placement.helm import HelmPlacement
from repro.core.placement.registry import PLACEMENT_NAMES, placement_algorithm
from repro.core.placement.sharding import shard_config
from repro.core.policy import DISK_POLICY, HOST_GPU_POLICY
from repro.devices.device import DeviceKind
from repro.models.config import opt_config
from repro.models.weights import LayerKind, model_layers


def _fresh_layer(placement, index, tier):
    return sum(
        spec.size
        for spec in placement.layers[index].weights
        if placement.tier_of(index, spec.name) is tier
    )


def _assert_sums_match_a_walk(placement):
    for tier in DeviceKind:
        fresh = [
            _fresh_layer(placement, layer.index, tier)
            for layer in placement.layers
        ]
        assert [
            placement.layer_tier_bytes(layer.index, tier)
            for layer in placement.layers
        ] == fresh
        assert placement.tier_total_bytes(tier) == sum(fresh)


@pytest.fixture
def placement():
    result = HelmPlacement().place_model(
        opt_config("opt-6.7b"), HOST_GPU_POLICY
    )
    _assert_sums_match_a_walk(result)  # fills the memo
    return result


def test_set_tier_refreshes_the_sums(placement):
    layer = placement.layers[1]
    for spec in layer.weights:
        placement.set_tier(layer.index, spec.name, DeviceKind.DISK)
    _assert_sums_match_a_walk(placement)
    assert placement.layer_tier_bytes(layer.index, DeviceKind.DISK) == (
        layer.total_bytes
    )


def test_demote_group_refreshes_the_sums(placement):
    gpu_before = placement.tier_total_bytes(DeviceKind.GPU)
    demoted = placement.demote_group(LayerKind.FFN, "w_fc1")
    assert demoted > 0
    _assert_sums_match_a_walk(placement)
    assert placement.tier_total_bytes(DeviceKind.GPU) == gpu_before - demoted


def test_spill_to_fit_refreshes_the_sums(placement):
    budget = placement.tier_total_bytes(DeviceKind.GPU) // 3
    assert spill_to_fit(placement, budget)
    _assert_sums_match_a_walk(placement)
    assert placement.tier_total_bytes(DeviceKind.GPU) <= budget


def test_memo_stays_out_of_the_dataclass(placement):
    twin = HelmPlacement().place_model(
        opt_config("opt-6.7b"), HOST_GPU_POLICY
    )
    # One side's memo is filled, the other's is empty: still equal.
    assert placement == twin
    assert repr(placement) == repr(twin)
    assert dataclasses.asdict(placement) == dataclasses.asdict(twin)
    assert {f.name for f in dataclasses.fields(placement)} == {
        "algorithm", "config", "layers", "assignments",
    }
    copy = dataclasses.replace(
        placement,
        assignments={
            index: dict(weights)
            for index, weights in placement.assignments.items()
        },
    )
    copy.demote_group(LayerKind.FFN, "w_fc1")
    _assert_sums_match_a_walk(copy)
    _assert_sums_match_a_walk(placement)
    assert copy.tier_total_bytes(DeviceKind.GPU) < (
        placement.tier_total_bytes(DeviceKind.GPU)
    )


# -- one assignment per layer shape ------------------------------------

_ALGORITHMS = [placement_algorithm(name) for name in PLACEMENT_NAMES] + [
    AutoBalancedPlacement(mha_gpu_percent=12.5, ffn_gpu_percent=37.5)
]


def _configs():
    for name in ("opt-6.7b", "opt-30b", "opt-175b"):
        config = opt_config(name)
        yield config
        # Pipeline stages: middle (no embed, no head), first, last.
        for embed, head in ((False, False), (True, False), (False, True)):
            yield shard_config(
                config,
                tensor_parallel=1,
                num_blocks=3,
                include_embed=embed,
                include_head=head,
            )


_CASES = [
    pytest.param(
        algorithm,
        config,
        policy,
        id=f"{algorithm.name}-{config.name}"
        f"-embed{int(config.include_embed)}-head{int(config.include_head)}"
        f"-disk{policy.disk_percent:g}",
    )
    for algorithm in _ALGORITHMS
    for config in _configs()
    for policy in (HOST_GPU_POLICY, DISK_POLICY)
]


def _walk(algorithm, config, policy):
    """What ``place_model`` returned when it assigned layer by layer."""
    layers = model_layers(config)
    return PlacementResult(
        algorithm=algorithm.name,
        config=config,
        layers=layers,
        assignments={
            layer.index: algorithm.assign_layer(layer, policy)
            for layer in layers
        },
    )


def _ordered(result):
    return [
        (index, list(weights.items()))
        for index, weights in result.assignments.items()
    ]


@pytest.mark.parametrize("algorithm,config,policy", _CASES)
def test_place_model_equals_the_per_layer_walk(algorithm, config, policy):
    placed = algorithm.place_model(config, policy)
    assert _ordered(placed) == _ordered(_walk(algorithm, config, policy))
    _assert_sums_match_a_walk(placed)


def test_assign_layer_runs_once_per_layer_shape():
    calls = []

    class Counting(HelmPlacement):
        def assign_layer(self, layer, policy):
            calls.append(layer.kind)
            return super().assign_layer(layer, policy)

    config = opt_config("opt-175b")
    assert len(model_layers(config)) == 194
    Counting().place_model(config, HOST_GPU_POLICY)
    assert sorted(kind.value for kind in calls) == [
        "embed", "ffn", "head", "mha",
    ]
    calls.clear()
    stage = shard_config(
        config,
        tensor_parallel=1,
        num_blocks=48,
        include_embed=False,
        include_head=False,
    )
    Counting().place_model(stage, HOST_GPU_POLICY)
    assert sorted(kind.value for kind in calls) == ["ffn", "mha"]


def test_set_tier_moves_one_layer_only():
    config = opt_config("opt-30b")
    placed = HelmPlacement().place_model(config, HOST_GPU_POLICY)
    walk = _walk(HelmPlacement(), config, HOST_GPU_POLICY)
    for kind in (LayerKind.MHA, LayerKind.FFN):
        first, *rest = [layer for layer in placed.layers if layer.kind is kind]
        for spec in first.weights:
            placed.set_tier(first.index, spec.name, DeviceKind.DISK)
        for layer in rest:
            assert placed.assignments[layer.index] == (
                walk.assignments[layer.index]
            )
    _assert_sums_match_a_walk(placed)


@pytest.mark.parametrize("name", PLACEMENT_NAMES)
def test_demote_and_spill_match_an_unaliased_placement(name):
    """If same-shaped layers shared one assignment dict, ``demote_group``
    would find the later layers already demoted and count fewer bytes,
    and ``spill_to_fit`` would log a different sequence."""
    algorithm = placement_algorithm(name)
    config = opt_config("opt-6.7b")
    placed = algorithm.place_model(config, HOST_GPU_POLICY)
    walk = _walk(algorithm, config, HOST_GPU_POLICY)
    # One MHA layer diverges first, so the kind is no longer uniform.
    layer = placed.layers[1]
    for result in (placed, walk):
        result.set_tier(layer.index, layer.weights[-1].name, DeviceKind.GPU)
    for group in (
        (LayerKind.FFN, "w_fc1"),
        (LayerKind.MHA, "ln_w"),
        (LayerKind.MHA, "w_out"),
    ):
        assert placed.demote_group(*group) == walk.demote_group(*group)
        assert _ordered(placed) == _ordered(walk)
    placed = algorithm.place_model(config, HOST_GPU_POLICY)
    walk = _walk(algorithm, config, HOST_GPU_POLICY)
    budget = placed.tier_total_bytes(DeviceKind.GPU) // 4
    assert spill_to_fit(placed, budget) == spill_to_fit(walk, budget)
    assert _ordered(placed) == _ordered(walk)
    _assert_sums_match_a_walk(placed)
