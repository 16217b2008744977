"""Arithmetic and HBM-traffic counts per layer, for the roofline model.

These counts follow the standard decoder-only transformer accounting
(Section II-A): prefill runs GEMMs over the whole prompt, decode runs
GEMV-shaped work over one token per prompt with reads of the growing
KV cache.  The GPU compute model turns them into kernel times.

The per-kind formulas are plain arithmetic, so they evaluate
elementwise over numpy arrays as well as over scalars: the scalar
cost model calls :func:`layer_work`, which checks its shape, and the
vectorized cost grid calls :func:`layer_work_unchecked` over whole
(batch × context) axes it has checked once.  One formula, one
operation order, so the two agree float for float.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.models.config import OptConfig
from repro.models.weights import LayerKind


@dataclass(frozen=True)
class LayerWork:
    """What one layer's kernels must do."""

    flops: float
    hbm_bytes: float


_ACT_BYTES = 2  # activations kept in fp16


def mha_work(
    config: OptConfig,
    batch: int,
    new_tokens: int,
    context_len: int,
    weight_hbm_bytes: float,
) -> LayerWork:
    """One MHA layer: QKV/output projections plus attention.

    Args:
        new_tokens: Tokens processed this step (prompt length during
            prefill, 1 during decode).
        context_len: Total attended context including the new tokens.
        weight_hbm_bytes: Bytes of weights the kernels read from HBM
            (fp16 after any dequantization).
    """
    h = config.hidden_size
    w = config.shard_hidden  # projection width owned by this TP shard
    proj_flops = 8.0 * batch * new_tokens * h * w      # Q,K,V,O projections
    attn_flops = 4.0 * batch * new_tokens * context_len * w
    kv_token_bytes = 2 * w * _ACT_BYTES                # K and V per token
    kv_read = batch * context_len * kv_token_bytes
    kv_write = batch * new_tokens * kv_token_bytes
    act = 3.0 * batch * new_tokens * h * _ACT_BYTES    # full-width residual
    return LayerWork(
        flops=proj_flops + attn_flops,
        hbm_bytes=weight_hbm_bytes + kv_read + kv_write + act,
    )


def ffn_work(
    config: OptConfig,
    batch: int,
    new_tokens: int,
    weight_hbm_bytes: float,
) -> LayerWork:
    """One FFN layer: two linear layers through the 4h intermediate."""
    h = config.hidden_size
    f_w = config.shard_ffn_dim  # intermediate columns on this TP shard
    flops = 4.0 * batch * new_tokens * h * f_w         # 2 matmuls x 2 flops
    act = batch * new_tokens * (2 * h + f_w) * _ACT_BYTES
    return LayerWork(flops=flops, hbm_bytes=weight_hbm_bytes + act)


def embed_work(
    config: OptConfig, batch: int, new_tokens: int
) -> LayerWork:
    """Input embedding lookup (gather plus positional add)."""
    h = config.hidden_size
    rows = batch * new_tokens * h * _ACT_BYTES
    return LayerWork(flops=batch * new_tokens * h, hbm_bytes=3.0 * rows)


def head_work(
    config: OptConfig, batch: int, weight_hbm_bytes: float
) -> LayerWork:
    """Output head: logits for the final position of each prompt."""
    h = config.hidden_size
    v_w = config.shard_vocab  # vocabulary rows owned by this TP shard
    flops = 2.0 * batch * h * v_w
    logits = batch * v_w * 4  # fp32 logits
    return LayerWork(flops=flops, hbm_bytes=weight_hbm_bytes + logits)


def layer_work(
    config: OptConfig,
    kind: LayerKind,
    *,
    batch: int,
    new_tokens: int,
    context_len: int,
    weight_hbm_bytes: float,
) -> LayerWork:
    """One layer's work at one checked scalar shape."""
    if batch <= 0 or new_tokens <= 0 or context_len <= 0:
        raise ConfigurationError(
            "batch, new_tokens, and context_len must be positive"
        )
    return layer_work_unchecked(
        config, kind, batch, new_tokens, context_len, weight_hbm_bytes
    )


def layer_work_unchecked(
    config: OptConfig,
    kind: LayerKind,
    batch,
    new_tokens,
    context_len,
    weight_hbm_bytes: float,
) -> LayerWork:
    """Dispatch on layer kind; the shape arguments may be scalars or
    broadcastable numpy arrays, which the caller has checked."""
    if kind is LayerKind.MHA:
        return mha_work(config, batch, new_tokens, context_len, weight_hbm_bytes)
    if kind is LayerKind.FFN:
        return ffn_work(config, batch, new_tokens, weight_hbm_bytes)
    if kind is LayerKind.EMBED:
        return embed_work(config, batch, new_tokens)
    if kind is LayerKind.HEAD:
        return head_work(config, batch, weight_hbm_bytes)
    raise ConfigurationError(f"unknown layer kind {kind!r}")
