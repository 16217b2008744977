"""Unit tests: the KV tier map's capacity accounting."""

import pytest

from repro.errors import AllocationError, CapacityError, ConfigurationError
from repro.kv import (
    KvExtent,
    KvTier,
    KvTierMap,
    KvTierTopology,
    LayerRange,
    TierBudget,
    tier_for_technology,
)
from repro.memory.dram import DramTechnology
from repro.memory.fsdax import FsdaxTechnology
from repro.memory.optane import OptaneTechnology

GIB = 1 << 30

HBM = TierBudget(tier=KvTier.HBM, name="hbm", capacity_bytes=2 * GIB, kind="gpu")
DRAM = TierBudget(tier=KvTier.DRAM, name="dram", capacity_bytes=8 * GIB, kind="host")
SSD = TierBudget(tier=KvTier.SSD, name="ssd", capacity_bytes=32 * GIB, kind="disk")


def topology():
    return KvTierTopology(budgets=(HBM, DRAM, SSD))


class TestLayerRange:
    def test_half_open_count(self):
        assert LayerRange(0, 4).count == 4
        assert LayerRange(3, 4).count == 1

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            LayerRange(4, 4)


class TestTierMap:
    def test_place_and_occupancy(self):
        tiers = KvTierMap(topology(), enforce=True)
        tiers.place(1, LayerRange(0, 4), HBM, GIB)
        tiers.place(2, LayerRange(0, 4), DRAM, 3 * GIB)
        assert tiers.used_bytes("hbm") == GIB
        assert tiers.used_bytes("dram") == 3 * GIB
        assert tiers.free_bytes("hbm") == GIB
        assert tiers.request_ids() == (1, 2)
        assert tiers.occupancy() == {"hbm": GIB, "dram": 3 * GIB, "ssd": 0}

    def test_enforced_capacity(self):
        tiers = KvTierMap(topology(), enforce=True)
        tiers.place(1, LayerRange(0, 4), HBM, GIB)
        with pytest.raises(CapacityError):
            tiers.place(2, LayerRange(0, 4), HBM, 2 * GIB)

    def test_unenforced_overcommit_allowed(self):
        tiers = KvTierMap(topology(), enforce=False)
        tiers.place(1, LayerRange(0, 4), HBM, 5 * GIB)
        assert tiers.used_bytes("hbm") == 5 * GIB

    def test_move_between_tiers(self):
        tiers = KvTierMap(topology(), enforce=True)
        placed = tiers.place(1, LayerRange(0, 4), HBM, GIB)
        moved = tiers.move(placed, DRAM)
        assert moved.tier_name == "dram"
        assert tiers.used_bytes("hbm") == 0
        assert tiers.used_bytes("dram") == GIB
        # The old extent handle is gone from the map.
        with pytest.raises(AllocationError):
            tiers.remove(placed)

    def test_release_request_frees_everything(self):
        tiers = KvTierMap(topology(), enforce=True)
        tiers.place(1, LayerRange(0, 4), HBM, GIB)
        tiers.place(1, LayerRange(4, 8), DRAM, GIB)
        freed = tiers.release_request(1)
        assert len(freed) == 2
        assert tiers.used_bytes("hbm") == 0
        assert tiers.used_bytes("dram") == 0
        assert tiers.extents_of(1) == ()
        # Unknown ids are a no-op, matching scheduler retry paths.
        assert tiers.release_request(99) == ()

    def test_version_bumps_on_every_occupancy_change(self):
        tiers = KvTierMap(topology(), enforce=True)
        versions = [tiers.version]

        def changed():
            versions.append(tiers.version)
            return versions[-1] != versions[-2]

        placed = tiers.place(1, LayerRange(0, 4), HBM, GIB)
        assert changed()
        tiers.move(placed, DRAM)
        assert changed()
        snapshot = tiers.state_snapshot()
        tiers.release_request(1)
        assert changed()
        tiers.release_request(1)  # nothing held: nothing changed
        assert not changed()
        tiers.set_capacity_factor("dram", 0.5)
        assert not changed()
        tiers.restore_state(snapshot)
        assert changed()
        tiers.remove(tiers.extents_of(1)[0])
        assert changed()

    def test_shadow_extents_occupy_capacity(self):
        tiers = KvTierMap(topology(), enforce=True)
        shadow = tiers.place(1, LayerRange(0, 4), DRAM, GIB, shadow=True)
        assert shadow.shadow
        assert tiers.used_bytes("dram") == GIB

    def test_extent_must_hold_bytes(self):
        with pytest.raises(ConfigurationError):
            KvExtent(
                request_id=1,
                layers=LayerRange(0, 1),
                tier_name="hbm",
                nbytes=0,
            )


class TestTopology:
    def test_orders_fast_to_slow(self):
        with pytest.raises(ConfigurationError):
            KvTierTopology(budgets=(SSD, HBM))

    def test_budget_lookup(self):
        topo = topology()
        assert topo.budget("dram") is DRAM
        assert topo.fastest is HBM
        assert topo.total_bytes == 42 * GIB
        with pytest.raises(ConfigurationError):
            topo.budget("cxl")

    def test_technology_mapping(self):
        assert tier_for_technology(DramTechnology()) is KvTier.DRAM
        assert tier_for_technology(OptaneTechnology()) is KvTier.OPTANE
        assert tier_for_technology(FsdaxTechnology()) is KvTier.OPTANE
