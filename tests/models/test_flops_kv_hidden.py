"""Tests for flop/byte accounting, KV cache, and hidden-state sizing."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models.config import opt_config
from repro.models.flops import (
    embed_work,
    ffn_work,
    head_work,
    layer_work,
    layer_work_unchecked,
    mha_work,
)
from repro.models.hidden import hidden_state_bytes, workspace_hidden_bytes
from repro.models.kv_cache import (
    KvCachePlan,
    kv_bytes_per_token,
    kv_bytes_per_token_per_block,
    kv_cache_bytes,
)
from repro.models.weights import LayerKind
from repro.units import GIB, MIB


@pytest.fixture
def cfg():
    return opt_config("opt-175b")


class TestFlops:
    def test_mha_projection_flops(self, cfg):
        work = mha_work(cfg, batch=1, new_tokens=1, context_len=1,
                        weight_hbm_bytes=0)
        h = cfg.hidden_size
        assert work.flops == pytest.approx(8 * h * h + 4 * h)

    def test_mha_scales_with_context(self, cfg):
        short = mha_work(cfg, 1, 1, 128, 0)
        long = mha_work(cfg, 1, 1, 2048, 0)
        assert long.flops > short.flops
        assert long.hbm_bytes > short.hbm_bytes

    def test_ffn_flops(self, cfg):
        work = ffn_work(cfg, batch=2, new_tokens=3, weight_hbm_bytes=0)
        assert work.flops == pytest.approx(
            4 * 2 * 3 * cfg.hidden_size * cfg.ffn_dim
        )

    def test_weight_bytes_pass_through(self, cfg):
        work = ffn_work(cfg, 1, 1, weight_hbm_bytes=1e9)
        assert work.hbm_bytes > 1e9

    def test_prefill_dominates_decode(self, cfg):
        prefill = mha_work(cfg, 1, 128, 128, 0)
        decode = mha_work(cfg, 1, 1, 129, 0)
        assert prefill.flops > 50 * decode.flops

    def test_head_reads_lm_matrix(self, cfg):
        work = head_work(cfg, batch=1, weight_hbm_bytes=1.2e9)
        assert work.hbm_bytes > 1.2e9
        assert work.flops == pytest.approx(
            2 * cfg.hidden_size * cfg.vocab_size
        )

    def test_embed_is_cheap(self, cfg):
        work = embed_work(cfg, 1, 128)
        assert work.flops < 1e9

    def test_layer_work_dispatch(self, cfg):
        for kind in LayerKind:
            work = layer_work(
                cfg, kind, batch=1, new_tokens=2, context_len=4,
                weight_hbm_bytes=100,
            )
            assert work.flops >= 0 and work.hbm_bytes >= 0

    def test_validation(self, cfg):
        shape = dict(batch=1, new_tokens=1, context_len=1, weight_hbm_bytes=0)
        for kind, field in (
            (LayerKind.MHA, "batch"),
            (LayerKind.FFN, "new_tokens"),
            (LayerKind.HEAD, "context_len"),
        ):
            with pytest.raises(ConfigurationError):
                layer_work(cfg, kind, **{**shape, field: 0})

    def test_formulas_evaluate_elementwise_over_arrays(self, cfg):
        """The cost grid's path: one array call equals the scalar calls."""
        batches, contexts = (1, 3), (16, 64)
        for kind in LayerKind:
            grid = layer_work_unchecked(
                cfg,
                kind,
                np.array(batches).reshape(2, 1),
                1,
                np.array(contexts).reshape(1, 2),
                100,
            )
            flops = np.broadcast_to(grid.flops, (2, 2))
            hbm = np.broadcast_to(grid.hbm_bytes, (2, 2))
            for i, batch in enumerate(batches):
                for j, context in enumerate(contexts):
                    cell = layer_work(
                        cfg, kind, batch=batch, new_tokens=1,
                        context_len=context, weight_hbm_bytes=100,
                    )
                    assert flops[i, j] == cell.flops
                    assert hbm[i, j] == cell.hbm_bytes


class TestKvCache:
    def test_per_token_per_block_fp16(self, cfg):
        # K and V, hidden wide, 2 bytes each.
        assert kv_bytes_per_token_per_block(cfg) == 2 * 12288 * 2

    def test_per_block_footprint_at_2048_context(self, cfg):
        """Section V quotes ~48-96 MB per block at context 2048; the
        fp16 K+V arithmetic gives 96 MiB (see DESIGN.md for the
        documented divergence)."""
        per_block = 2048 * kv_bytes_per_token_per_block(cfg)
        assert per_block / MIB == pytest.approx(96.0)

    def test_total_at_2048_context(self, cfg):
        total = kv_cache_bytes(cfg, batch_size=1, tokens=2048)
        assert total / GIB == pytest.approx(9.0)

    def test_plan_totals(self, cfg):
        plan = KvCachePlan(cfg, batch_size=8, prompt_len=128, gen_len=21)
        assert plan.capacity_tokens == 149
        assert plan.total_bytes == kv_cache_bytes(cfg, 8, 149)
        assert plan.per_block_bytes * cfg.num_decoder_blocks == (
            plan.total_bytes
        )

    def test_plan_read_write_traffic(self, cfg):
        plan = KvCachePlan(cfg, batch_size=2, prompt_len=8, gen_len=4)
        assert plan.read_bytes_at(10) == 2 * 10 * 2 * 12288 * 2
        assert plan.read_bytes_at(0) == 0
        # Reads clamp at the allocated window.
        assert plan.read_bytes_at(999) == plan.read_bytes_at(12)
        assert plan.write_bytes_per_step() == 2 * 2 * 12288 * 2

    def test_plan_rejects_overlong_sequences(self, cfg):
        with pytest.raises(ConfigurationError):
            KvCachePlan(cfg, batch_size=1, prompt_len=2048, gen_len=100)

    def test_quantized_cache_width(self, cfg):
        full = KvCachePlan(cfg, 1, 128, 21, dtype_bytes=2)
        quant = KvCachePlan(cfg, 1, 128, 21, dtype_bytes=1)
        assert quant.total_bytes == full.total_bytes // 2

    def test_validation(self, cfg):
        with pytest.raises(ConfigurationError):
            kv_cache_bytes(cfg, 0, 10)
        with pytest.raises(ConfigurationError):
            KvCachePlan(cfg, 1, 0, 5)


class TestHidden:
    def test_hidden_state_bytes(self, cfg):
        assert hidden_state_bytes(cfg, 2, 3) == 2 * 3 * 12288 * 2

    def test_workspace_dominated_by_ffn_intermediate(self, cfg):
        base = hidden_state_bytes(cfg, 1, 128)
        workspace = workspace_hidden_bytes(cfg, 1, 128)
        assert workspace == 2 * base + 4 * base

    def test_validation(self, cfg):
        with pytest.raises(ConfigurationError):
            hidden_state_bytes(cfg, 0, 1)
