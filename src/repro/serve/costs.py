"""Per-iteration prefill/decode costs, priced through ``repro.pricing``.

Continuous batching schedules *iterations* (one forward pass over all
decoder layers), not whole closed-loop batches.  This module prices a
single iteration with the same platform models the paper's
:class:`~repro.core.timing.TimingExecutor` uses — weight transfers
via the interconnect path solver, kernels by the GPU roofline — by
asking an :class:`~repro.pricing.AnalyticBackend` for the per-layer
parts of one :class:`~repro.pricing.RunSpec` at a (batch,
context-bucket) shape.  With FlexGen's overlap (Listing 1) a layer
step takes ``max(transfer, compute)``; without it, their sum.

Each cost model memoizes its own prices: a per-stage ``(batch,
bucket)`` dict in front of its ``(stage, batch)`` bucket rows.  A miss
reads its cell off the batch size's row: the backend prices the row
over every bucket the stage can ask for in one grid pass, memoized on
the configuration's grid, so later misses in the row are cell reads,
and a :class:`~repro.pricing.RunSpec` is built only when a row is
missing.  The model counts its own hits and misses (they surface in
the ``repro-serve`` report), so every miss adds one entry.
Fleet replicas of one configuration pass in the configuration's
shared backend, so they price every row once between them while each
memoizes and counts its own lookups.
Per-layer fault pricing walks the layer schedule through an
:class:`~repro.pricing.EventBackend` instead.

The KV-cache admission limit — how many sequences may decode
concurrently — comes from :mod:`repro.core.batching`'s GPU memory
plan via :meth:`OffloadEngine.max_batch_size`, which is what turns
the paper's HeLM-vs-All-CPU maximum-batch frontier into a
throughput/latency frontier under open load.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Tuple

from repro.core.engine import OffloadEngine
from repro.core.metrics import Stage
from repro.errors import ConfigurationError
from repro.pricing import (
    AnalyticBackend,
    EventBackend,
    IterationParts,
    RunSpec,
)

#: ``(batch, bucket) -> parts`` for one stage.
_Memo = Dict[Tuple[int, int], IterationParts]

__all__ = ["IterationCostModel", "FixedCostModel", "IterationParts"]


def price_summary(hits: int, misses: int, size: int) -> Dict[str, float]:
    """Price-memo counters as a flat dict, with the hit rate rounded
    to 4 places."""
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "size": size,
        "hit_rate": round(hits / lookups if lookups else 0.0, 4),
    }


def _bucket_axis(step: int, cap: int) -> Tuple[int, ...]:
    """Every bucket :meth:`IterationCostModel._bucket` can return
    under ``cap``: the multiples of ``step`` below it, then ``cap``."""
    return tuple(range(step, cap, step)) + (cap,)


class IterationCostModel:
    """Prices single prefill/decode iterations for one engine config."""

    def __init__(
        self,
        engine: OffloadEngine,
        bucket_tokens: int = 32,
        overlap: bool = True,
        backend: Optional[AnalyticBackend] = None,
    ) -> None:
        """``backend`` defaults to a private
        :class:`~repro.pricing.AnalyticBackend`."""
        if bucket_tokens < 1:
            raise ConfigurationError("bucket_tokens must be >= 1")
        # Prefill prompts are capped at max_position - gen_len so the
        # KV plan keeps room for the generated tokens; a gen_len at or
        # beyond max_position would make that cap non-positive and
        # every prefill bucket invalid — fail here, with the actual
        # numbers, instead of deep inside the bucket arithmetic.
        prefill_cap = engine.config.max_position - engine.gen_len
        if prefill_cap < 1:
            raise ConfigurationError(
                f"{engine.config.name}: gen_len {engine.gen_len} leaves "
                f"no room for a prompt under max position "
                f"{engine.config.max_position}; every prefill bucket "
                "would be non-positive"
            )
        self.engine = engine
        self.bucket_tokens = bucket_tokens
        #: Prefill buckets leave room for at least one generated token.
        self._prefill_cap = prefill_cap
        self.overlap = overlap
        self.backend = backend if backend is not None else AnalyticBackend()
        # Built on first use: only per-layer fault pricing needs it.
        self._event_backend: Optional[EventBackend] = None
        # The price memo, one dict per stage.
        self._prefill_memo: _Memo = {}
        self._decode_memo: _Memo = {}
        #: Lookups the memo answered, and those it missed.
        self.hits = 0
        self.misses = 0
        #: ``(hits, misses, size)`` registry mirrors; see
        #: :meth:`bind_telemetry`.
        self._metrics = None
        #: Each stage's bucket axis, and the backend rows priced over
        #: it so far: ``(stage, batch) -> row``.
        self._axes = {
            Stage.PREFILL: _bucket_axis(bucket_tokens, prefill_cap),
            Stage.DECODE: _bucket_axis(
                bucket_tokens, engine.config.max_position
            ),
        }
        self._rows: Dict[Tuple[Stage, int], object] = {}

    # -- helpers -----------------------------------------------------------

    @property
    def size(self) -> int:
        """Prices in the memo: one per miss."""
        return len(self._prefill_memo) + len(self._decode_memo)

    @property
    def cache_stats(self) -> Dict[str, float]:
        """This model's price-memo counters."""
        return price_summary(self.hits, self.misses, self.size)

    def bind_telemetry(self, registry) -> None:
        """Mirror the price-memo counters into ``registry``'s
        ``pricing/cache/{hits,misses,size}``, replaying counts made
        before the bind.  Several models may bind one registry (the
        shards of a sharded replica): each adds its own counts."""
        scope = registry.scoped("pricing/cache")
        metrics = (
            scope.counter("hits"),
            scope.counter("misses"),
            scope.gauge("size"),
        )
        for metric, count in zip(metrics, (self.hits, self.misses, self.size)):
            metric.inc(count)
        self._metrics = metrics

    @property
    def max_position(self) -> int:
        return self.engine.config.max_position

    def _bucket(self, tokens: int, cap: int) -> int:
        """Round ``tokens`` up to the bucket grid, clipped to ``cap``."""
        step = self.bucket_tokens
        rounded = max(step, ((int(tokens) + step - 1) // step) * step)
        return min(rounded, cap)

    def _spec(self, batch: int, prompt_len: int) -> RunSpec:
        """The priceable spec for one (batch, prompt) shape.

        Nominal iteration parts are fault-independent — the scheduler
        prices live faults on top of them — so specs are built without
        the engine's injector: fault and fault-free runs of the same
        configuration read the same rows.
        """
        return self.engine.run_spec(
            batch_size=batch,
            prompt_len=prompt_len,
            overlap=self.overlap,
            include_faults=False,
        )

    def _parts(
        self,
        memo: _Memo,
        stage: Stage,
        batch: int,
        prompt_len: int,
        bucket: int,
    ) -> IterationParts:
        parts = memo.get((batch, bucket))
        if parts is not None:
            self.hits += 1
            if self._metrics is not None:
                self._metrics[0].inc()
            return parts
        parts = memo[(batch, bucket)] = self._row(
            stage, batch, prompt_len
        ).parts(batch, bucket)
        self.misses += 1
        if self._metrics is not None:
            self._metrics[1].inc()
            self._metrics[2].inc()
        return parts

    def _row(self, stage: Stage, batch: int, prompt_len: int):
        """The backend's row for ``batch`` over the stage's whole
        bucket axis, fetched on its first price miss."""
        key = (stage, batch)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = self.backend.iteration_row(
                self._spec(batch, prompt_len), stage, self._axes[stage]
            )
        return row

    # -- public API --------------------------------------------------------

    def max_concurrency(self, limit: int = 512) -> int:
        """KV-gated number of concurrently decoding sequences.

        Uses the engine's reference sequence shape against the GPU
        memory plan of :mod:`repro.core.batching` (weights, staging,
        dequant scratch, pre-allocated KV, hidden buffers).
        """
        return self.engine.max_batch_size(limit=limit)

    def prefill_parts(self, batch: int, prompt_len: int) -> IterationParts:
        """Per-layer decomposition of one prefill iteration."""
        if batch < 1 or prompt_len < 1:
            raise ConfigurationError("batch and prompt_len must be >= 1")
        prompt = self._bucket(prompt_len, self._prefill_cap)
        return self._parts(
            self._prefill_memo, Stage.PREFILL, batch, prompt, prompt
        )

    def decode_parts(self, batch: int, context_len: int) -> IterationParts:
        """Per-layer decomposition of one decode iteration."""
        if batch < 1 or context_len < 1:
            raise ConfigurationError("batch and context_len must be >= 1")
        context = self._bucket(context_len, self.max_position)
        return self._parts(
            self._decode_memo,
            Stage.DECODE,
            batch,
            self.engine.prompt_len,
            context,
        )

    def faulted_parts(
        self,
        kind: str,
        batch: int,
        tokens: int,
        now: float,
        injector=None,
        retry=None,
    ):
        """Per-layer fault pricing of one iteration, when possible.

        Walks the layer schedule pricing every layer's transfers
        through the engine's
        :class:`~repro.faults.injector.FaultInjector` individually
        (``EventBackend.faulted_iteration_parts``) — retries land on
        the layer that failed instead of inflating the whole
        iteration's lump-sum transfer time.  Returns a
        :class:`~repro.pricing.FaultedIterationParts`, or ``None``
        when there is no injector, so callers can fall back to
        lump-sum pricing.

        Never cached: the result depends on ``now`` and consumes the
        injector's seeded RNG stream.  ``injector``/``retry`` default
        to the engine's own (the scheduler passes its live ones).
        """
        if injector is None:
            injector = self.engine.injector
        if injector is None:
            return None
        if batch < 1 or tokens < 1:
            raise ConfigurationError("batch and tokens must be >= 1")
        if kind == "prefill":
            prompt = self._bucket(tokens, self._prefill_cap)
            stage, context = Stage.PREFILL, prompt
        else:
            prompt = self.engine.prompt_len
            stage = Stage.DECODE
            context = self._bucket(tokens, self.max_position)
        spec = dataclasses.replace(
            self._spec(batch, prompt), injector=injector, retry=retry
        )
        if self._event_backend is None:
            self._event_backend = EventBackend()
        return self._event_backend.faulted_iteration_parts(
            spec, stage, context, now
        )

    def prefill_time(self, batch: int, prompt_len: int) -> float:
        """One prefill iteration over ``batch`` admitted prompts."""
        return self.prefill_parts(batch, prompt_len).total_s()

    def decode_time(self, batch: int, context_len: int) -> float:
        """One decode iteration: one new token per running sequence."""
        return self.decode_parts(batch, context_len).total_s()

    def decode_bucket(
        self, batch: int, context_len: int
    ) -> Tuple[float, float]:
        """:meth:`decode_time` at ``context_len``, and how many
        consecutive context lengths from it on share that price's
        bucket (``inf`` once the bucket is clipped at max position).

        A run of decodes reads one price per bucket and reports its
        other iterations through :meth:`count_decode_hits`.
        """
        cap = self.max_position
        bucket = self._bucket(context_len, cap)
        duration = self._parts(
            self._decode_memo,
            Stage.DECODE,
            batch,
            self.engine.prompt_len,
            bucket,
        ).total_s()
        if bucket == cap:
            return duration, math.inf
        return duration, bucket - context_len + 1

    def count_decode_hits(self, n: int) -> None:
        """Count ``n`` more lookups of the decode price just looked
        up as the memo hits they are."""
        self.hits += n
        if self._metrics is not None:
            self._metrics[0].inc(n)

    def reference_service_time(
        self, prompt_len: int, gen_len: int, batch: int
    ) -> float:
        """Per-request service time at occupancy ``batch``.

        The prefill runs once for the request; every decode iteration
        is shared by the whole running batch, so only the full
        iteration cost (not its per-request share) bounds latency.
        Used as the saturation-detection yardstick.
        """
        prefill, decode = self.reference_parts(prompt_len, gen_len, batch)
        return prefill.total_s() + max(0, gen_len - 1) * decode.total_s()

    def reference_parts(
        self, prompt_len: int, gen_len: int, batch: int
    ) -> Tuple[IterationParts, IterationParts]:
        """The prefill and decode parts :meth:`reference_service_time`
        prices, read off the bucket rows: the reference is not one of
        the run's lookups, so it counts none and adds no entry."""
        prompt = self._bucket(prompt_len, self._prefill_cap)
        context = self._bucket(prompt_len + gen_len, self.max_position)
        batch = max(1, batch)
        prefill = self._row(Stage.PREFILL, 1, prompt)
        decode = self._row(Stage.DECODE, batch, self.engine.prompt_len)
        return prefill.parts(1, prompt), decode.parts(batch, context)


class FixedCostModel:
    """Constant-cost stand-in for tests and analytic studies."""

    def __init__(
        self,
        prefill_s: float = 1.0,
        decode_s: float = 0.5,
        slots: int = 4,
        transfer_fraction: float = 1.0,
    ) -> None:
        for name, cost in (("prefill_s", prefill_s), ("decode_s", decode_s)):
            # Written so NaN fails too: NaN compares False both ways.
            if not 0 < cost < math.inf:
                raise ConfigurationError(
                    f"{name} must be positive and finite, not {cost}"
                )
        if slots < 1:
            raise ConfigurationError("slots must be >= 1")
        if not 0.0 <= transfer_fraction <= 1.0:
            raise ConfigurationError(
                "transfer_fraction must be in [0, 1]"
            )
        self.prefill_s = prefill_s
        self.decode_s = decode_s
        self.slots = slots
        #: Share of each iteration that is data movement (the part
        #: fault injection can slow down or force to retry).
        self.transfer_fraction = transfer_fraction

    def max_concurrency(self, limit: int = 512) -> int:
        return min(self.slots, limit)

    def _parts(self, total_s: float) -> IterationParts:
        transfer = total_s * self.transfer_fraction
        return IterationParts(
            transfers=(transfer,),
            computes=(total_s - transfer,),
            overlap=False,
        )

    def prefill_parts(self, batch: int, prompt_len: int) -> IterationParts:
        return self._parts(self.prefill_s)

    def decode_parts(self, batch: int, context_len: int) -> IterationParts:
        return self._parts(self.decode_s)

    def prefill_time(self, batch: int, prompt_len: int) -> float:
        return self.prefill_s

    def decode_time(self, batch: int, context_len: int) -> float:
        return self.decode_s

    def reference_service_time(
        self, prompt_len: int, gen_len: int, batch: int
    ) -> float:
        return self.prefill_s + max(0, gen_len - 1) * self.decode_s
