"""Per-layer weight inventories, exactly as FlexGen's allocator sees them.

FlexGen schedules a model as a flat list of *layers*: the input
embedding, then an alternating sequence of MHA and FFN layers (two per
decoder block), then the output embedding/head (Section III-B: 98 and
194 layers for OPT-30B and OPT-175B).  Each layer owns an ordered list
of :class:`WeightSpec` — the ``weight_specs`` that Listing 2's
``init_weight_list`` iterates over.  The order below matches the
FlexGen artifact's (projection matrices first, then biases, then
layer norms), which is what makes the baseline allocator's achieved
split come out to the paper's (0, 91.7, 8.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from repro.errors import ConfigurationError
from repro.models.config import OptConfig


class LayerKind(enum.Enum):
    """FlexGen layer kinds."""

    EMBED = "embed"
    MHA = "mha"
    FFN = "ffn"
    HEAD = "head"

    @property
    def is_hidden(self) -> bool:
        return self in (LayerKind.MHA, LayerKind.FFN)


class WeightCategory(enum.Enum):
    MATRIX = "matrix"
    BIAS = "bias"
    NORM = "norm"
    EMBEDDING = "embedding"


@dataclass(frozen=True)
class WeightSpec:
    """One weight tensor within a layer."""

    name: str
    shape: Tuple[int, ...]
    dtype_bytes: int
    category: WeightCategory

    @cached_property
    def param_count(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count

    @cached_property
    def size(self) -> int:
        """Byte size (the ``spec.size`` of Listing 2)."""
        return self.param_count * self.dtype_bytes


@dataclass(frozen=True)
class LayerSpec:
    """One schedulable layer and its ordered weights."""

    index: int
    kind: LayerKind
    weights: Tuple[WeightSpec, ...]

    @cached_property
    def total_bytes(self) -> int:
        return sum(spec.size for spec in self.weights)

    @cached_property
    def matrix_bytes(self) -> int:
        return sum(
            spec.size
            for spec in self.weights
            if spec.category
            in (WeightCategory.MATRIX, WeightCategory.EMBEDDING)
        )

    def weight(self, name: str) -> WeightSpec:
        for spec in self.weights:
            if spec.name == name:
                return spec
        raise ConfigurationError(
            f"layer {self.index} ({self.kind.value}) has no weight "
            f"{name!r}"
        )


def mha_weight_specs(config: OptConfig) -> Tuple[WeightSpec, ...]:
    """Weights of one multi-head-attention layer, in FlexGen order.

    Under tensor parallelism the Q/K/V projections are column-parallel
    (each shard owns ``shard_hidden`` output rows and their biases),
    the output projection is row-parallel (full output, ``shard_hidden``
    input columns), and the norms plus output bias are replicated.
    """
    h = config.hidden_size
    w = config.shard_hidden
    b = config.dtype_bytes
    return (
        WeightSpec("w_q", (w, h), b, WeightCategory.MATRIX),
        WeightSpec("w_k", (w, h), b, WeightCategory.MATRIX),
        WeightSpec("w_v", (w, h), b, WeightCategory.MATRIX),
        WeightSpec("w_out", (h, w), b, WeightCategory.MATRIX),
        WeightSpec("b_q", (w,), b, WeightCategory.BIAS),
        WeightSpec("b_k", (w,), b, WeightCategory.BIAS),
        WeightSpec("b_v", (w,), b, WeightCategory.BIAS),
        WeightSpec("b_out", (h,), b, WeightCategory.BIAS),
        WeightSpec("ln_w", (h,), b, WeightCategory.NORM),
        WeightSpec("ln_b", (h,), b, WeightCategory.NORM),
    )


def ffn_weight_specs(config: OptConfig) -> Tuple[WeightSpec, ...]:
    """Weights of one feed-forward layer, in FlexGen order.

    FC1 is column-parallel (shard owns ``shard_ffn_dim`` intermediate
    rows), FC2 row-parallel; the FC2 bias and norms are replicated.
    """
    h = config.hidden_size
    f_w = config.shard_ffn_dim
    b = config.dtype_bytes
    return (
        WeightSpec("w_fc1", (f_w, h), b, WeightCategory.MATRIX),
        WeightSpec("w_fc2", (h, f_w), b, WeightCategory.MATRIX),
        WeightSpec("b_fc1", (f_w,), b, WeightCategory.BIAS),
        WeightSpec("b_fc2", (h,), b, WeightCategory.BIAS),
        WeightSpec("ln_w", (h,), b, WeightCategory.NORM),
        WeightSpec("ln_b", (h,), b, WeightCategory.NORM),
    )


def embed_weight_specs(config: OptConfig) -> Tuple[WeightSpec, ...]:
    h = config.hidden_size
    b = config.dtype_bytes
    return (
        WeightSpec(
            "token_emb", (config.shard_vocab, h), b, WeightCategory.EMBEDDING
        ),
        WeightSpec(
            "pos_emb", (config.max_position, h), b, WeightCategory.EMBEDDING
        ),
    )


def head_weight_specs(config: OptConfig) -> Tuple[WeightSpec, ...]:
    h = config.hidden_size
    b = config.dtype_bytes
    return (
        WeightSpec(
            "lm_head", (config.shard_vocab, h), b, WeightCategory.EMBEDDING
        ),
        WeightSpec("ln_w", (h,), b, WeightCategory.NORM),
        WeightSpec("ln_b", (h,), b, WeightCategory.NORM),
    )


def model_layers(config: OptConfig) -> Tuple[LayerSpec, ...]:
    """The full layer sequence FlexGen iterates over (Listing 1).

    Pipeline stages drop the embedding (non-first) and head (non-last)
    layers via the config's ``include_embed``/``include_head`` flags;
    indices stay contiguous within the stage.
    """
    layers = []
    index = 0
    if config.include_embed:
        layers.append(LayerSpec(0, LayerKind.EMBED, embed_weight_specs(config)))
        index = 1
    # One weight tuple per hidden kind, shared by every layer of that
    # kind: a placement assigns it once (``place_model``) and each
    # frozen spec computes its size once.
    mha = mha_weight_specs(config)
    ffn = ffn_weight_specs(config)
    for _ in range(config.num_decoder_blocks):
        layers.append(LayerSpec(index, LayerKind.MHA, mha))
        index += 1
        layers.append(LayerSpec(index, LayerKind.FFN, ffn))
        index += 1
    if config.include_head:
        layers.append(
            LayerSpec(index, LayerKind.HEAD, head_weight_specs(config))
        )
    return tuple(layers)


def model_weight_bytes(config: OptConfig) -> int:
    """Total model weight footprint in bytes."""
    return sum(layer.total_bytes for layer in model_layers(config))


def decoder_block_bytes(config: OptConfig) -> int:
    """Bytes of one decoder block (MHA + FFN); 3.375 GiB for OPT-175B,
    the paper's "3.38 GB"."""
    return sum(spec.size for spec in mha_weight_specs(config)) + sum(
        spec.size for spec in ffn_weight_specs(config)
    )
