"""PriceCache: counters, an unbounded table, explicit invalidation."""

import pytest

from repro.core.engine import OffloadEngine
from repro.core.metrics import Stage
from repro.pricing import IterationParts, PriceCache


@pytest.fixture(scope="module")
def spec():
    return OffloadEngine(
        model="opt-30b", host="NVDRAM", placement="helm",
        compress_weights=True,
    ).run_spec()


PARTS = IterationParts(transfers=(1.0,), computes=(0.5,), overlap=True)


def test_hit_miss_counters(spec):
    cache = PriceCache()
    assert cache.get(spec, Stage.PREFILL, 128) is None
    cache.put(spec, Stage.PREFILL, 128, PARTS)
    assert cache.get(spec, Stage.PREFILL, 128) is PARTS
    assert cache.get(spec, Stage.DECODE, 128) is None
    stats = cache.stats
    assert stats.hits == 1
    assert stats.misses == 2
    assert stats.lookups == 3
    assert stats.hit_rate == pytest.approx(1 / 3)
    assert stats.size == len(cache) == 1
    assert stats.as_dict()["hits"] == 1


def test_get_or_compute_computes_once(spec):
    cache = PriceCache()
    calls = []

    def compute():
        calls.append(1)
        return PARTS

    first = cache.get_or_compute(spec, Stage.DECODE, 160, compute)
    second = cache.get_or_compute(spec, Stage.DECODE, 160, compute)
    assert first is second is PARTS
    assert len(calls) == 1
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_invalidate_all(spec):
    cache = PriceCache()
    cache.put(spec, Stage.PREFILL, 128, PARTS)
    cache.put(spec, Stage.DECODE, 160, PARTS)
    assert cache.invalidate() == 2
    assert len(cache) == 0
    assert cache.stats.invalidations == 2


def test_generation_moves_only_when_invalidation_drops_entries(spec):
    cache = PriceCache()
    start = cache.generation
    cache.put(spec, Stage.DECODE, 160, PARTS)
    cache.put(spec, Stage.DECODE, 160, PARTS)
    cache.get(spec, Stage.DECODE, 160)
    assert cache.generation == start
    cache.invalidate()
    dropped = cache.generation
    assert dropped != start
    assert cache.invalidate() == 0
    assert cache.generation == dropped
