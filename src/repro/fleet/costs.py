"""Pricing one replica's iterations across its shards.

A sharded replica runs every iteration on all shards at once: the
tensor-parallel shards of a pipeline stage execute in lockstep (the
stage takes its *slowest* shard, then pays the allreduce that stitches
the partial sums back together), and pipeline stages run in sequence
for a single iteration's latency (plus the activation handoff between
consecutive stages).  Both collective payloads are priced through the
same :class:`~repro.interconnect.path.TransferPathSolver` arithmetic
as every other byte in the library, so the allreduce penalty scales
with the host technology under test.

Each shard is priced by an ordinary
:class:`~repro.serve.costs.IterationCostModel` over a per-shard
:class:`~repro.core.engine.OffloadEngine` (built through
:class:`~repro.core.placement.PrecomputedPlacement`), which is what
keeps shard pricing float-identical to single-engine pricing: a
degree-1 "fleet" never constructs this class at all — it uses the base
engine's cost model object directly.  All shards price through one
:class:`~repro.pricing.AnalyticBackend`, and each shard model counts
its lookups in its own view of the shard engine's price table, so
sibling replicas can pass in the same shard engines and backend.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import OffloadEngine
from repro.core.placement.sharding import (
    PrecomputedPlacement,
    Shard,
    ShardedPlacement,
    allreduce_bytes,
    handoff_bytes,
)
from repro.errors import ConfigurationError
from repro.interconnect.path import TransferPathSolver
from repro.pricing import AnalyticBackend, IterationParts
from repro.serve.costs import IterationCostModel


def shard_engines(
    base: OffloadEngine, sharded: ShardedPlacement
) -> List[OffloadEngine]:
    """One engine per shard, inheriting the base engine's platform.

    Shard engines reuse the base policy (compression choices
    included); their placements replay the partitioned tier
    assignments via :class:`PrecomputedPlacement`, so no placement
    algorithm re-runs on shard-sized models.
    """
    engines: List[OffloadEngine] = []
    for shard in sharded.shards:
        engines.append(
            OffloadEngine(
                model=shard.config,
                host=base.host,
                placement=PrecomputedPlacement(shard.placement),
                policy=base.policy,
                batch_size=base.batch_size,
                prompt_len=base.prompt_len,
                gen_len=base.gen_len,
                gpu_spec=base.gpu_spec,
            )
        )
    return engines


class ShardedCostModel:
    """Combines per-shard iteration prices into replica iteration times.

    Drop-in for :class:`~repro.serve.costs.IterationCostModel` where
    the scheduler is concerned: ``max_concurrency``, ``prefill_parts``
    / ``decode_parts`` (and their ``_time`` reductions),
    ``reference_service_time``.  The combined
    :class:`~repro.pricing.IterationParts` keeps per-layer granularity
    — each stage contributes its critical (slowest) shard's per-layer
    transfer/compute pairs, then one pure-transfer entry for the
    stage's allreduce and one per pipeline handoff — so FlexGen
    overlap semantics and lump-sum fault scaling both keep working.
    """

    def __init__(
        self,
        base: OffloadEngine,
        sharded: ShardedPlacement,
        overlap: bool = True,
        engines: Optional[Sequence[OffloadEngine]] = None,
        backend: Optional[AnalyticBackend] = None,
    ) -> None:
        """``engines`` (default: :func:`shard_engines`) and ``backend``
        (default: a fresh one) may be shared with sibling models; the
        per-shard front memos and counters are always this model's."""
        if sharded.is_identity:
            raise ConfigurationError(
                "degree-1 partitions price through the base engine's "
                "cost model; ShardedCostModel is for degree >= 2"
            )
        self.base = base
        self.sharded = sharded
        self.overlap = overlap
        self.engines = (
            list(engines)
            if engines is not None
            else shard_engines(base, sharded)
        )
        if backend is None:
            backend = AnalyticBackend()
        self.models = [
            IterationCostModel(
                engine,
                overlap=overlap,
                backend=backend,
                cache=engine.price_cache.view(),
            )
            for engine in self.engines
        ]
        self._solver = TransferPathSolver(config=base.host)
        self._stage_models: List[List[Tuple[Shard, object]]] = []
        by_position = {
            id(shard): model
            for shard, model in zip(sharded.shards, self.models)
        }
        for pp_index in range(sharded.pipeline_parallel):
            stage = sharded.stage_shards(pp_index)
            self._stage_models.append(
                [(shard, by_position[id(shard)]) for shard in stage]
            )

    # -- identity/bookkeeping ------------------------------------------

    @property
    def cache_stats(self) -> Dict[str, float]:
        """Price-cache counters summed across all shard engines."""
        totals: Dict[str, float] = {}
        for model in self.models:
            for key, value in model.cache_stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def max_concurrency(self, limit: int = 512) -> int:
        """The fleet batch cap is the *tightest* shard's cap."""
        return min(model.max_concurrency(limit) for model in self.models)

    def faulted_parts(self, *args, **kwargs) -> Optional[object]:
        """Per-layer fault pricing is a single-engine feature; callers
        fall back to lump-sum scaling of the combined transfers."""
        return None

    # -- combination ----------------------------------------------------

    def _comm_times(self, batch: int, new_tokens: int) -> Tuple[float, float]:
        """(per-stage allreduce seconds, per-handoff seconds)."""
        tp = self.sharded.tensor_parallel
        allreduce_s = 0.0
        if tp > 1:
            stage_config = self.sharded.shards[0].config
            per_block = allreduce_bytes(stage_config, batch, new_tokens)
            blocks = stage_config.num_decoder_blocks
            allreduce_s = self._solver.host_to_host_time(per_block * blocks)
        handoff_s = 0.0
        if self.sharded.pipeline_parallel > 1:
            handoff_s = self._solver.host_to_host_time(
                handoff_bytes(self.base.config, batch, new_tokens)
            )
        return allreduce_s, handoff_s

    def _combine(
        self, per_model_parts: List[IterationParts], batch: int,
        new_tokens: int,
    ) -> IterationParts:
        by_model = dict(zip(self.models, per_model_parts))
        allreduce_s, handoff_s = self._comm_times(batch, new_tokens)
        transfers: List[float] = []
        computes: List[float] = []
        for stage_index, stage in enumerate(self._stage_models):
            stage_parts = [by_model[model] for _, model in stage]
            critical = max(stage_parts, key=lambda p: p.total_s())
            transfers.extend(critical.transfers)
            computes.extend(critical.computes)
            if allreduce_s > 0.0:
                # The allreduce cannot hide behind compute: it runs
                # after the stage's kernels produce the partial sums.
                transfers.append(allreduce_s)
                computes.append(0.0)
            if handoff_s > 0.0 and stage_index + 1 < len(self._stage_models):
                transfers.append(handoff_s)
                computes.append(0.0)
        return IterationParts(
            transfers=tuple(transfers),
            computes=tuple(computes),
            # Comm entries pair with zero compute, so under overlap
            # they still cost their full transfer time.
            overlap=self.overlap,
        )

    def prefill_parts(self, batch: int, prompt_len: int) -> IterationParts:
        return self._combine(
            [model.prefill_parts(batch, prompt_len) for model in self.models],
            batch,
            prompt_len,
        )

    def decode_parts(self, batch: int, context_len: int) -> IterationParts:
        return self._combine(
            [model.decode_parts(batch, context_len) for model in self.models],
            batch,
            1,
        )

    def prefill_time(self, batch: int, prompt_len: int) -> float:
        return self.prefill_parts(batch, prompt_len).total_s()

    def decode_time(self, batch: int, context_len: int) -> float:
        return self.decode_parts(batch, context_len).total_s()

    def reference_service_time(
        self, prompt_len: int, gen_len: int, batch: int
    ) -> float:
        prefill = self.prefill_time(1, prompt_len)
        decode = self.decode_time(max(1, batch), prompt_len + gen_len)
        return prefill + max(0, gen_len - 1) * decode
