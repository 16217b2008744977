"""Vectorized layer-cost evaluation over (batch × context) grids.

:class:`~repro.core.layercosts.LayerCostModel` prices one shape at a
time; serving sweeps and the capacity planner need hundreds of
(batch, context-bucket) shapes of the *same* configuration, and
re-running the scalar model per shape re-walks the per-layer loop
every time.  :class:`LayerCostGrid` evaluates the identical arithmetic
for an entire grid in one pass:

* **Kernels** (roofline flops/HBM traffic, dequantization) are the
  scalar model's own formulas — :func:`repro.models.flops
  .layer_work_unchecked`, :meth:`GpuComputeModel.layer_time
  <repro.devices.gpu.GpuComputeModel.layer_time>` and
  :func:`~repro.core.layercosts.dequant_compressed_bytes` — called
  once per layer shape over numpy float64 axes.  One kernel formula
  serves scalar and grid pricing, and elementwise IEEE-754 arithmetic
  is deterministic, so the grid's values equal the scalar model's
  *float for float*, not to a tolerance.
* **Transfers** depend only on per-layer staged bytes and the run's
  host working set, not on the grid cell (the working set varies only
  through the host-resident KV share) — they are computed once per
  distinct working set through the same
  :func:`~repro.core.layercosts.staging_transfer_parts` the scalar
  model calls, memoized, and broadcast.  Bandwidth-curve
  interpolation stays in scalar code on purpose: ``numpy``'s
  vectorized ``log`` may differ from ``math.log`` in the last ulp,
  which would break float equality.
* **CPU attention** (when the policy delegates it) is a per-cell
  scalar of the shared :func:`~repro.core.layercosts
  .cpu_attention_seconds` — layer-independent, so it costs one call
  per grid cell rather than one per (cell, layer).

``tests/pricing/test_vector_golden.py`` pins the exact equality
against both scalar backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.layercosts import (
    cpu_attention_seconds,
    dequant_compressed_bytes,
    resolve_working_set_bytes,
    staging_transfer_parts,
)
from repro.core.metrics import Stage
from repro.devices.cpu import CpuComputeModel
from repro.devices.device import DeviceKind
from repro.devices.gpu import GpuComputeModel
from repro.errors import ConfigurationError
from repro.interconnect.path import TransferPathSolver
from repro.models.flops import layer_work_unchecked
from repro.models.kv_cache import kv_bytes_per_token, kv_bytes_per_token_per_block
from repro.models.weights import LayerKind
from repro.pricing.parts import IterationParts
from repro.pricing.spec import RunSpec

__all__ = ["CostGrid", "LayerCostGrid"]


def _layer_totals(
    transfers: np.ndarray, computes: np.ndarray, overlap: bool
) -> np.ndarray:
    """Per-cell iteration totals: the per-layer steps added along the
    last (layer) axis.  ``np.add.accumulate`` adds strictly left to
    right, so each total equals :meth:`IterationParts.total_s` bit
    for bit (``np.sum`` would add pairwise)."""
    steps = (
        np.maximum(transfers, computes) if overlap else transfers + computes
    )
    return np.add.accumulate(steps, axis=-1)[..., -1]


@dataclass(frozen=True)
class CostGrid:
    """One evaluated (batch × context-bucket) grid of iteration costs.

    ``transfers``/``computes`` have shape ``(num_batches,
    num_contexts, num_layers)`` and hold exactly the per-layer values
    the scalar model's :meth:`~repro.core.layercosts.LayerCostModel
    .iteration_layer_times` would return for each cell;
    ``nominal_totals`` (shape ``(num_batches, num_contexts)``, read
    only) holds their iteration totals, reduced once.
    """

    stage: Stage
    batch_sizes: Tuple[int, ...]
    context_lens: Tuple[int, ...]
    transfers: np.ndarray
    computes: np.ndarray
    overlap: bool
    nominal_totals: np.ndarray = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        totals = _layer_totals(self.transfers, self.computes, self.overlap)
        totals.flags.writeable = False
        object.__setattr__(self, "nominal_totals", totals)

    @property
    def shape(self) -> Tuple[int, int, int]:
        return self.transfers.shape

    def _index(self, batch: int, context_len: int) -> Tuple[int, int]:
        try:
            i = self.batch_sizes.index(int(batch))
            j = self.context_lens.index(int(context_len))
        except ValueError:
            raise ConfigurationError(
                f"shape (batch={batch}, context={context_len}) is not on "
                f"this grid (batches {self.batch_sizes}, contexts "
                f"{self.context_lens})"
            ) from None
        return i, j

    def parts_at(self, i: int, j: int) -> IterationParts:
        """The cell's per-layer decomposition as :class:`IterationParts`."""
        return IterationParts(
            transfers=tuple(self.transfers[i, j].tolist()),
            computes=tuple(self.computes[i, j].tolist()),
            overlap=self.overlap,
            nominal_total_s=float(self.nominal_totals[i, j]),
        )

    def parts(self, batch: int, context_len: int) -> IterationParts:
        """Decomposition for one (batch, context) value on the grid."""
        return self.parts_at(*self._index(batch, context_len))

    def totals(self) -> np.ndarray:
        """Iteration totals, shape ``(num_batches, num_contexts)``."""
        return self.nominal_totals


class LayerCostGrid:
    """Batched evaluation of one configuration's layer-cost arithmetic.

    One grid covers a whole spec *family*: every (batch, context)
    shape of the same host/placement/policy/GPU/gen-length
    configuration.  ``evaluate`` prices a full grid in one vectorized
    pass; fault injection never enters here (iteration parts are
    nominal by contract), so the spec's injector is stripped.
    """

    def __init__(self, spec: RunSpec) -> None:
        spec = spec.fault_free_spec()
        self.spec = spec
        self.placement = spec.placement
        self.config = spec.placement.config
        self.policy = spec.policy
        self.gpu_compute = GpuComputeModel(spec.gpu_spec)
        self.cpu_compute = CpuComputeModel()
        self._solver = TransferPathSolver(config=spec.host, pcie=spec.pcie)
        layers = self.placement.layers
        self._kinds: Tuple[LayerKind, ...] = tuple(
            layer.kind for layer in layers
        )
        self._weight_bytes: Tuple[int, ...] = tuple(
            layer.total_bytes for layer in layers
        )
        self._cpu_tier: Tuple[int, ...] = tuple(
            self.placement.layer_tier_bytes(index, DeviceKind.CPU)
            for index in range(len(layers))
        )
        self._disk_tier: Tuple[int, ...] = tuple(
            self.placement.layer_tier_bytes(index, DeviceKind.DISK)
            for index in range(len(layers))
        )
        # Layers grouped by (kind, weight bytes): every layer of a
        # group shares one kernel grid.
        groups: Dict[Tuple[LayerKind, int], List[int]] = {}
        for index, combo in enumerate(zip(self._kinds, self._weight_bytes)):
            groups.setdefault(combo, []).append(index)
        self._kernel_groups = tuple(
            (kind, weight, np.asarray(indices))
            for (kind, weight), indices in groups.items()
        )
        self._mha_layers = np.asarray(
            [i for i, kind in enumerate(self._kinds) if kind is LayerKind.MHA],
            dtype=np.int64,
        )
        self._cpu_tier_total = self.placement.tier_total_bytes(DeviceKind.CPU)
        self._kv_token_bytes = kv_bytes_per_token(
            self.config, self.policy.kv_dtype_bytes
        )
        self._kv_block_bytes = kv_bytes_per_token_per_block(
            self.config, self.policy.kv_dtype_bytes
        )
        #: working set -> per-layer transfer row, shared across calls.
        self._transfer_rows: Dict[int, np.ndarray] = {}
        #: (stage, batch, bucket axis) -> that batch size's row.
        self._rows: Dict[Tuple[Stage, int, Tuple[int, ...]], CostGrid] = {}

    @property
    def num_layers(self) -> int:
        return len(self._kinds)

    # ------------------------------------------------------------------
    # Scalar ingredients (shared with LayerCostModel)
    # ------------------------------------------------------------------

    def _working_set(self, batch: int, capacity_tokens: int) -> int:
        """This shape's host footprint (scalar model's
        ``_configure_working_set``)."""
        kv_total = (
            batch
            * self.policy.num_gpu_batches
            * capacity_tokens
            * self._kv_token_bytes
        )
        return resolve_working_set_bytes(
            self._cpu_tier_total,
            self.policy.compression.ratio,
            kv_total,
            self.policy.kv_cpu_fraction,
            self.spec.host.host_region.capacity_bytes,
        )

    def _transfer_row(self, working_set_bytes: int) -> np.ndarray:
        """Per-layer staging times under one working set, memoized."""
        row = self._transfer_rows.get(working_set_bytes)
        if row is None:
            self._solver.host_working_set_bytes = working_set_bytes
            ratio = self.policy.compression.ratio
            memo: Dict[Tuple[int, int], float] = {}
            row = np.empty(self.num_layers)
            for index, key in enumerate(
                zip(self._cpu_tier, self._disk_tier)
            ):
                time = memo.get(key)
                if time is None:
                    host, disk = staging_transfer_parts(
                        self._solver, key[0], key[1], ratio
                    )
                    time = host + disk
                    memo[key] = time
                row[index] = time
            self._transfer_rows[working_set_bytes] = row
        return row

    def _cpu_attention(
        self,
        batch: int,
        new_tokens: int,
        context_len: int,
        capacity_tokens: int,
        working_set_bytes: int,
    ) -> float:
        """One cell's CPU-attention seconds (layer-independent)."""
        block_batch = batch * self.policy.num_gpu_batches
        kv_read = (
            block_batch
            * min(context_len, capacity_tokens)
            * self._kv_block_bytes
        )
        self._solver.host_working_set_bytes = working_set_bytes
        return cpu_attention_seconds(
            self._solver,
            self.cpu_compute,
            batch=block_batch,
            new_tokens=new_tokens,
            context_len=context_len,
            hidden_size=self.config.hidden_size,
            kv_read_bytes=kv_read,
            kv_cpu_fraction=self.policy.kv_cpu_fraction,
            working_set_bytes=working_set_bytes,
        )

    # ------------------------------------------------------------------
    # Vectorized kernels
    # ------------------------------------------------------------------

    def _kernel_grid(
        self,
        kind: LayerKind,
        weight_bytes: int,
        B: np.ndarray,
        N,
        C: np.ndarray,
    ) -> np.ndarray:
        """Kernel + dequant time grid for one (kind, weight) combo:
        :meth:`LayerCostModel.layer_compute_time`'s formulas, evaluated
        over the grid's (already checked) axes."""
        work = layer_work_unchecked(self.config, kind, B, N, C, weight_bytes)
        dequant = dequant_compressed_bytes(
            kind,
            weight_bytes,
            batch_size=B,
            hidden_size=self.config.hidden_size,
            compress_weights=self.policy.compress_weights,
            compression_ratio=self.policy.compression.ratio,
        )
        return self.gpu_compute.layer_time(
            work, self.policy.num_gpu_batches, dequant, np.maximum
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def evaluate(
        self,
        stage: Stage,
        batch_sizes: Sequence[int],
        context_lens: Sequence[int],
    ) -> CostGrid:
        """Price every (batch, context) cell of the grid in one pass.

        For ``Stage.PREFILL`` the context axis is the *prompt bucket*
        (prompt = context = new tokens, as in
        :meth:`IterationCostModel.prefill_parts`); for
        ``Stage.DECODE`` the spec's own prompt length governs the KV
        plan and the context axis is the attended-context bucket.
        """
        batches = tuple(int(b) for b in batch_sizes)
        contexts = tuple(int(c) for c in context_lens)
        if not batches or not contexts:
            raise ConfigurationError("grid axes must be non-empty")
        if len(set(batches)) != len(batches) or len(set(contexts)) != len(
            contexts
        ):
            raise ConfigurationError("grid axes must not repeat values")
        if min(batches) < 1:
            raise ConfigurationError("batch sizes must be positive")
        if min(contexts) < 1:
            raise ConfigurationError("context lengths must be positive")
        gen = self.spec.gen_len
        max_position = self.config.max_position
        if stage is Stage.PREFILL:
            worst = max(contexts)
            if worst + gen > max_position:
                raise ConfigurationError(
                    f"{self.config.name}: prompt {worst} + gen {gen} "
                    f"exceeds max position {max_position}"
                )
        elif self.spec.prompt_len + gen > max_position:
            raise ConfigurationError(
                f"{self.config.name}: prompt {self.spec.prompt_len} + gen "
                f"{gen} exceeds max position {max_position}"
            )

        nb, nc = len(batches), len(contexts)
        B = np.asarray(batches, dtype=np.int64).reshape(nb, 1)
        C = np.asarray(contexts, dtype=np.int64).reshape(1, nc)
        N = C if stage is Stage.PREFILL else 1

        # Kernels: one vectorized grid per distinct (kind, weight
        # bytes) combo, broadcast to every layer with that shape.
        computes = np.empty((nb, nc, self.num_layers))
        for kind, weight, layers in self._kernel_groups:
            grid = self._kernel_grid(kind, weight, B, N, C)
            computes[:, :, layers] = grid[..., np.newaxis]

        # Working sets: constant when the KV cache stays on the GPU
        # (the paper's experiments), per-cell otherwise.  Each batch
        # computes one per distinct KV capacity: decode has a single
        # one, prefill one per prompt bucket.
        if stage is Stage.PREFILL:
            capacities = [context + gen for context in contexts]
        else:
            capacities = [self.spec.prompt_len + gen] * nc
        working_sets = np.empty((nb, nc), dtype=np.int64)
        for i, batch in enumerate(batches):
            by_capacity = {
                cap: self._working_set(batch, cap) for cap in set(capacities)
            }
            working_sets[i] = [by_capacity[cap] for cap in capacities]

        # Transfers: one per-layer row per distinct working set,
        # broadcast to its cells.
        distinct, inverse = np.unique(working_sets, return_inverse=True)
        rows = np.stack([self._transfer_row(int(ws)) for ws in distinct])
        transfers = rows[inverse.reshape(nb, nc)]

        # CPU attention rides on every MHA layer's compute time.
        if self.policy.cpu_attention:
            attention = np.empty((nb, nc))
            for i, batch in enumerate(batches):
                for j, context in enumerate(contexts):
                    new_tokens = context if stage is Stage.PREFILL else 1
                    attention[i, j] = self._cpu_attention(
                        batch,
                        new_tokens,
                        context,
                        capacities[j],
                        int(working_sets[i, j]),
                    )
            mha = self._mha_layers
            computes[:, :, mha] = (
                computes[:, :, mha] + attention[..., np.newaxis]
            )

        return CostGrid(
            stage=stage,
            batch_sizes=batches,
            context_lens=contexts,
            transfers=transfers,
            computes=computes,
            overlap=self.spec.overlap,
        )

    def row(
        self, stage: Stage, batch: int, buckets: Sequence[int]
    ) -> CostGrid:
        """One batch size's costs over a whole bucket axis.

        Evaluated on first use and memoized, so every later price in
        the row is a cell read.  Rows exist only for the batch sizes
        someone asks for.
        """
        key = (stage, int(batch), tuple(buckets))
        row = self._rows.get(key)
        if row is None:
            row = self.evaluate(stage, key[1:2], key[2])
            self._rows[key] = row
        return row
