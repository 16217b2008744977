"""Serving cost-model boundary validation and backend-memo reporting."""

import pytest

from repro.core.engine import OffloadEngine
from repro.errors import ConfigurationError
from repro.serve.costs import IterationCostModel
from repro.serve.simulator import simulate_serving


def _engine(**kwargs):
    kwargs.setdefault("model", "opt-mini")
    kwargs.setdefault("host", "DRAM")
    kwargs.setdefault("placement", "helm")
    kwargs.setdefault("batch_size", 1)
    kwargs.setdefault("prompt_len", 32)
    kwargs.setdefault("gen_len", 8)
    return OffloadEngine(**kwargs)


class TestPrefillCapBoundary:
    def test_gen_len_consuming_max_position_rejected_up_front(self):
        """opt-mini's max_position is 256: a gen_len at/above it makes
        the prefill bucket cap (max_position - gen_len) non-positive.
        The engine itself rejects such shapes, so simulate the
        degenerate state directly and require a clear error at the
        cost-model boundary rather than a nonsense bucket downstream."""
        engine = _engine()
        assert engine.config.max_position == 256
        engine.gen_len = 256  # bypasses engine __init__ validation
        with pytest.raises(ConfigurationError, match="no room for a prompt"):
            IterationCostModel(engine)
        engine.gen_len = 400
        with pytest.raises(ConfigurationError, match="max position"):
            IterationCostModel(engine)

    def test_tightest_valid_cap_still_works(self):
        engine = _engine()
        engine.gen_len = 255  # cap == 1: legal, every prompt buckets to 1
        costs = IterationCostModel(engine)
        parts = costs.prefill_parts(1, 200)
        assert parts.total_s() > 0


class TestServingIntegration:
    def _simulate(self):
        return simulate_serving(
            model="opt-mini",
            host="DRAM",
            placement="helm",
            compress_weights=False,
            rate_rps=5.0,
            num_requests=20,
            seed=7,
        )

    def test_backend_memo_surfaces_in_info(self):
        result = self._simulate()
        memo = result.setup["backend_memo"]
        assert memo["entries"] >= 1
        assert set(memo) == {"entries"}
