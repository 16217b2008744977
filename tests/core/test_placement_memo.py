"""Memoized placement tier sums equal a fresh walk of the weights.

``PlacementResult.layer_tier_bytes`` and ``tier_total_bytes`` remember
their sums until ``set_tier`` — the one mutator — changes a weight's
tier.  These tests read every sum (filling the memo), mutate through
``set_tier``, ``demote_group`` and ``spill_to_fit``, and check the
memoized answers against sums recomputed from ``tier_of`` directly.
The memo stays out of the dataclass fields, so ``eq``, ``repr``,
``asdict`` and ``replace`` see only the assignment.
"""

import dataclasses

import pytest

from repro.core.placement.base import spill_to_fit
from repro.core.placement.helm import HelmPlacement
from repro.core.policy import HOST_GPU_POLICY
from repro.devices.device import DeviceKind
from repro.models.config import opt_config
from repro.models.weights import LayerKind


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
