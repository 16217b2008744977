"""Grid-backed capacity planning for out-of-core serving deployments.

The serving simulator answers "what happens under this load at this
configuration"; the capacity planner answers the operator's inverse
question: *which* configuration — placement scheme, host memory,
batch size, and tolerable arrival rate — meets a TTFT/TBT/throughput
QoS target at the lowest cost per token.

The sweep is wide (placements × hosts × batch ladder × rates), and
every point needs prefill and decode iteration prices.  That is
exactly the shape :class:`~repro.pricing.LayerCostGrid` vectorizes:
one grid ``evaluate`` per (placement, host) candidate prices the
entire batch ladder at once — float-for-float equal to the scalar
:class:`~repro.pricing.AnalyticBackend` — instead of one scalar model
walk per (batch, stage) point.

The queueing term is deliberately simple and closed-form (utilization
``rho = rate x block_time / batch`` with an M/D/1-style waiting
factor ``rho / (1 - rho)``) so the planner stays deterministic and
instant; the open-loop simulator remains the authority for the
configurations the planner shortlists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import OffloadEngine
from repro.core.metrics import Stage
from repro.core.qos import QosTarget
from repro.errors import ConfigurationError, ReproError
from repro.models.config import opt_config
from repro.pricing import AnalyticBackend

__all__ = [
    "CapacityPlan",
    "CapacityPlanner",
    "PlanCandidate",
    "QosTarget",
    "plan_capacity",
]

DEFAULT_PLACEMENTS = ("baseline", "helm", "allcpu")


@dataclass(frozen=True)
class PlanCandidate:
    """One evaluated (placement, host, shards, batch, rate) point."""

    placement: str
    host: str
    batch_size: int
    rate_rps: float
    prefill_s: float
    tbt_s: float
    #: Time to serve one admitted block end to end: prefill plus the
    #: remaining decode iterations.
    block_time_s: float
    #: Queueing-corrected time to first token at ``rate_rps``.
    ttft_s: float
    #: Generated tokens per second at full occupancy.
    throughput_tps: float
    #: Offered load per decode slot (rho); >= 1 means saturated.
    utilization: float
    #: GPU-seconds per generated token — the planner's cost metric.
    cost_per_token_s: float
    feasible: bool
    infeasible_reason: str = ""
    #: Fleet degrees: identical replicas behind a router, and the
    #: tensor/pipeline partitioning of each replica's placement.
    replicas: int = 1
    tensor_parallel: int = 1
    pipeline_parallel: int = 1

    @property
    def shard_degree(self) -> int:
        return self.tensor_parallel * self.pipeline_parallel

    def summary(self) -> Dict[str, object]:
        return {
            "placement": self.placement,
            "host": self.host,
            "batch_size": self.batch_size,
            "rate_rps": self.rate_rps,
            "replicas": self.replicas,
            "tensor_parallel": self.tensor_parallel,
            "pipeline_parallel": self.pipeline_parallel,
            "ttft_s": self.ttft_s,
            "tbt_s": self.tbt_s,
            "throughput_tps": self.throughput_tps,
            "utilization": self.utilization,
            "cost_per_token_s": self.cost_per_token_s,
            "feasible": self.feasible,
            "infeasible_reason": self.infeasible_reason,
        }


@dataclass(frozen=True)
class CapacityPlan:
    """The planner's answer: cheapest feasible point plus the sweep."""

    target: QosTarget
    chosen: Optional[PlanCandidate]
    candidates: Tuple[PlanCandidate, ...]

    @property
    def meets_target(self) -> bool:
        return self.chosen is not None

    def feasible_candidates(self) -> Tuple[PlanCandidate, ...]:
        return tuple(c for c in self.candidates if c.feasible)

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "meets_target": self.meets_target,
            "evaluated": len(self.candidates),
            "feasible": len(self.feasible_candidates()),
        }
        if self.chosen is not None:
            out["chosen"] = self.chosen.summary()
        return out


def _bucket(tokens: int, cap: int, step: int) -> int:
    """Round up to the bucket grid, clipped to ``cap`` (the serving
    cost model's bucketing, reproduced so planner prices hit the same
    cache keys)."""
    rounded = max(step, ((int(tokens) + step - 1) // step) * step)
    return min(rounded, cap)


def _batch_ladder(max_batch: int) -> List[int]:
    ladder = []
    batch = 1
    while batch < max_batch:
        ladder.append(batch)
        batch *= 2
    ladder.append(max_batch)
    return sorted(set(ladder))


def _sort_key(candidate: PlanCandidate) -> Tuple:
    """Deterministic ordering: cheapest first, stable tie-break."""
    return (
        candidate.cost_per_token_s,
        candidate.ttft_s,
        candidate.host,
        candidate.placement,
        candidate.batch_size,
        candidate.rate_rps,
        candidate.replicas,
        candidate.tensor_parallel,
        candidate.pipeline_parallel,
    )


def _check_target(
    target: QosTarget, ttft_s: float, tbt_s: float, throughput_tps: float
) -> str:
    """Empty string when the point meets every bound, else the reason."""
    if target.max_ttft_s is not None and ttft_s > target.max_ttft_s:
        return f"TTFT {ttft_s:.3f}s > {target.max_ttft_s:.3f}s"
    if target.max_tbt_s is not None and tbt_s > target.max_tbt_s:
        return f"TBT {tbt_s:.3f}s > {target.max_tbt_s:.3f}s"
    if (
        target.min_throughput_tps is not None
        and throughput_tps < target.min_throughput_tps
    ):
        return (
            f"throughput {throughput_tps:.3f} tok/s < "
            f"{target.min_throughput_tps:.3f}"
        )
    return ""


@dataclass(frozen=True)
class _StageLadder:
    """One priced (host, placement, shard degree) sweep cell."""

    host: str
    placement: str
    tensor_parallel: int
    pipeline_parallel: int
    #: Per-batch ``(batch, prefill_s, tbt_s)`` prices for this cell.
    priced: Tuple[Tuple[int, float, float], ...]


class CapacityPlanner:
    """Warm incremental planner over a fixed configuration scope.

    All the *expensive* planning work — engine construction, placement
    sharding, and the vectorized batch-ladder pricing — depends only
    on the configuration axes (model, hosts, placements, shard
    degrees, lengths), not on the QoS target or the offered load.
    ``CapacityPlanner`` does that work once at construction and keeps
    the priced ladders; :meth:`plan` is then pure arithmetic over
    them, cheap enough to call at every control interval of an online
    autoscaler (:mod:`repro.autoscale`) with fresh rates and replica
    ranges.

    :func:`plan_capacity` is the one-shot convenience wrapper; a plan
    produced through either path is bit-identical for the same
    arguments.
    """

    def __init__(
        self,
        model: str = "opt-175b",
        hosts: Sequence[str] = ("NVDRAM",),
        placements: Sequence[str] = DEFAULT_PLACEMENTS,
        compress_weights: bool = True,
        prompt_len: int = 128,
        gen_len: int = 21,
        bucket_tokens: int = 32,
        overlap: bool = True,
        max_batch_limit: int = 512,
        shard_degrees: Sequence[Tuple[int, int]] = ((1, 1),),
    ) -> None:
        if not hosts or not placements:
            raise ConfigurationError(
                "plan_capacity needs at least one host, placement, and rate"
            )
        if not shard_degrees:
            raise ConfigurationError(
                "plan_capacity needs at least one shard degree and one "
                "replica count"
            )
        for tp, pp in shard_degrees:
            if tp < 1 or pp < 1:
                raise ConfigurationError("shard degrees must be >= 1")
        if prompt_len < 1 or gen_len < 1:
            raise ConfigurationError(
                "prompt and generation lengths must be >= 1"
            )
        config = opt_config(model)
        # The serving cost model rejects generation lengths that leave
        # no room for a prompt; without the same check here the sweep
        # would silently price a clamped (zero-sized) prefill bucket.
        if config.max_position - gen_len < 1:
            raise ConfigurationError(
                f"{config.name}: gen_len {gen_len} leaves "
                f"no room for a prompt under max position "
                f"{config.max_position}; every prefill bucket "
                "would be non-positive"
            )
        self.model = model
        self.gen_len = gen_len
        self.prompt_len = prompt_len
        self.backend = AnalyticBackend()
        # Deterministic stage progress through the ambient telemetry:
        # gauges count sweep cells (no wall clock), so a long plan is
        # watchable with `repro-telemetry dash` yet bit-stable in
        # diffs.  Totals cover every (host, placement, shard degree)
        # cell — the shard axis multiplies the sweep, and the dash
        # must not report 100% while shard cells are still pricing.
        from repro.telemetry import current_telemetry

        progress = current_telemetry().scoped("progress")
        stages = sorted(set(hosts))
        cells_per_stage = len(set(placements)) * len(set(shard_degrees))
        progress.gauge("plan_stages_total").set(len(stages))
        progress.gauge("plan_cells_total").set(len(stages) * cells_per_stage)
        cells_done = 0
        ladders: List[_StageLadder] = []
        degrees = sorted(set(shard_degrees))
        for stage_index, host in enumerate(stages):
            progress.gauge("plan_stages_completed").set(stage_index)
            for placement in sorted(set(placements)):
                try:
                    engine = OffloadEngine(
                        model=model,
                        host=host,
                        placement=placement,
                        compress_weights=compress_weights,
                        batch_size=1,
                        prompt_len=prompt_len,
                        gen_len=gen_len,
                    )
                    max_batch = engine.max_batch_size(limit=max_batch_limit)
                except ReproError:
                    engine = None
                    max_batch = 0
                if engine is None or max_batch < 1:
                    cells_done += len(degrees)
                    progress.gauge("plan_cells_completed").set(cells_done)
                    continue
                max_position = engine.config.max_position
                decode_bucket = _bucket(
                    prompt_len + gen_len, max_position, bucket_tokens
                )
                prefill_bucket = _bucket(
                    prompt_len, max_position - gen_len, bucket_tokens
                )
                for tp, pp in degrees:
                    cells_done += 1
                    progress.gauge("plan_cells_completed").set(cells_done)
                    # Per-batch (prefill_s, tbt) prices for this degree.
                    priced: List[Tuple[int, float, float]] = []
                    if tp == 1 and pp == 1:
                        ladder = _batch_ladder(max_batch)
                        spec = engine.run_spec(
                            batch_size=1,
                            prompt_len=prompt_len,
                            overlap=overlap,
                            include_faults=False,
                        )
                        grid = self.backend.cost_grid(spec)
                        decode = grid.evaluate(
                            Stage.DECODE, ladder, [decode_bucket]
                        )
                        prefill = grid.evaluate(
                            Stage.PREFILL, ladder, [prefill_bucket]
                        )
                        decode_totals = decode.totals()
                        prefill_totals = prefill.totals()
                        for index, batch in enumerate(ladder):
                            priced.append(
                                (
                                    batch,
                                    float(prefill_totals[index, 0]),
                                    float(decode_totals[index, 0]),
                                )
                            )
                    else:
                        from repro.core.placement.sharding import (
                            ShardedPlacement,
                        )
                        from repro.fleet.costs import ShardedCostModel

                        try:
                            sharded = ShardedPlacement.plan(
                                engine.placement_result,
                                tensor_parallel=tp,
                                pipeline_parallel=pp,
                            )
                            costs = ShardedCostModel(
                                engine, sharded, overlap=overlap
                            )
                            shard_batch = costs.max_concurrency(
                                max_batch_limit
                            )
                        except ReproError:
                            continue
                        if shard_batch < 1:
                            continue
                        for batch in _batch_ladder(shard_batch):
                            priced.append(
                                (
                                    batch,
                                    costs.prefill_time(
                                        batch, prefill_bucket
                                    ),
                                    costs.decode_time(
                                        batch, decode_bucket
                                    ),
                                )
                            )
                    if priced:
                        ladders.append(
                            _StageLadder(
                                host=host,
                                placement=placement,
                                tensor_parallel=tp,
                                pipeline_parallel=pp,
                                priced=tuple(priced),
                            )
                        )
        progress.gauge("plan_stages_completed").set(len(stages))
        self._ladders: Tuple[_StageLadder, ...] = tuple(ladders)

    def plan(
        self,
        target: QosTarget,
        rates_rps: Sequence[float] = (0.01,),
        replica_counts: Sequence[int] = (1,),
    ) -> CapacityPlan:
        """Re-plan over the warm ladders at new rates/replica counts."""
        if not rates_rps:
            raise ConfigurationError(
                "plan_capacity needs at least one host, placement, and rate"
            )
        for rate in rates_rps:
            if rate <= 0:
                raise ConfigurationError("arrival rates must be positive")
        if not replica_counts:
            raise ConfigurationError(
                "plan_capacity needs at least one shard degree and one "
                "replica count"
            )
        for count in replica_counts:
            if count < 1:
                raise ConfigurationError("replica counts must be >= 1")
        gen_len = self.gen_len
        evaluated: List[PlanCandidate] = []
        for cell in self._ladders:
            degree = cell.tensor_parallel * cell.pipeline_parallel
            for batch, prefill_s, tbt in cell.priced:
                block_time = prefill_s + max(0, gen_len - 1) * tbt
                throughput = batch * gen_len / block_time
                # Shards are extra hardware; replicas scale both
                # numerator and denominator, so per-token cost is
                # replica-invariant.
                cost = degree * block_time / (batch * gen_len)
                for count in sorted(set(replica_counts)):
                    for rate in sorted(rates_rps):
                        utilization = rate * block_time / (batch * count)
                        fleet_tps = count * throughput
                        if utilization >= 1.0:
                            evaluated.append(
                                PlanCandidate(
                                    placement=cell.placement,
                                    host=cell.host,
                                    batch_size=batch,
                                    rate_rps=rate,
                                    prefill_s=prefill_s,
                                    tbt_s=tbt,
                                    block_time_s=block_time,
                                    ttft_s=float("inf"),
                                    throughput_tps=fleet_tps,
                                    utilization=utilization,
                                    cost_per_token_s=cost,
                                    feasible=False,
                                    infeasible_reason=(
                                        "saturated (rho = "
                                        f"{utilization:.2f})"
                                    ),
                                    replicas=count,
                                    tensor_parallel=cell.tensor_parallel,
                                    pipeline_parallel=cell.pipeline_parallel,
                                )
                            )
                            continue
                        waiting = (
                            utilization
                            / (1.0 - utilization)
                            * block_time
                            / 2.0
                        )
                        ttft = prefill_s + waiting
                        reason = _check_target(target, ttft, tbt, fleet_tps)
                        evaluated.append(
                            PlanCandidate(
                                placement=cell.placement,
                                host=cell.host,
                                batch_size=batch,
                                rate_rps=rate,
                                prefill_s=prefill_s,
                                tbt_s=tbt,
                                block_time_s=block_time,
                                ttft_s=ttft,
                                throughput_tps=fleet_tps,
                                utilization=utilization,
                                cost_per_token_s=cost,
                                feasible=not reason,
                                infeasible_reason=reason,
                                replicas=count,
                                tensor_parallel=cell.tensor_parallel,
                                pipeline_parallel=cell.pipeline_parallel,
                            )
                        )
        candidates = tuple(sorted(evaluated, key=_sort_key))
        feasible = [c for c in candidates if c.feasible]
        chosen = feasible[0] if feasible else None
        return CapacityPlan(
            target=target, chosen=chosen, candidates=candidates
        )


def plan_capacity(
    target: QosTarget,
    model: str = "opt-175b",
    hosts: Sequence[str] = ("NVDRAM",),
    placements: Sequence[str] = DEFAULT_PLACEMENTS,
    rates_rps: Sequence[float] = (0.01,),
    compress_weights: bool = True,
    prompt_len: int = 128,
    gen_len: int = 21,
    bucket_tokens: int = 32,
    overlap: bool = True,
    max_batch_limit: int = 512,
    shard_degrees: Sequence[Tuple[int, int]] = ((1, 1),),
    replica_counts: Sequence[int] = (1,),
) -> CapacityPlan:
    """Sweep configurations and pick the cheapest one meeting ``target``.

    For every (placement, host) pair the batch ladder is priced in
    one vectorized grid pass per stage; each (batch, rate) point then
    gets closed-form latency/throughput/utilization estimates:

    * ``tbt`` — one decode iteration at the steady-state context.
    * ``block_time`` — prefill plus the remaining decode iterations.
    * ``throughput`` — ``batch x gen_len / block_time``.
    * ``utilization`` — ``rate x block_time / batch``; at or beyond
      1.0 the queue grows without bound and the point is infeasible.
    * ``ttft`` — prefill plus an M/D/1-style waiting term
      ``rho / (1 - rho) x block_time / 2``.

    ``shard_degrees`` adds tensor/pipeline partitioning as a sweep
    axis: every ``(tp, pp)`` pair beyond ``(1, 1)`` prices the batch
    ladder through a :class:`~repro.fleet.ShardedCostModel` over the
    partitioned placement (allreduce and handoff included), and its
    GPU-seconds-per-token cost is multiplied by the degree — shards
    are extra hardware.  ``replica_counts`` scales the fleet the
    cheap way: replicas divide the offered rate (``rho = rate x
    block_time / (batch x replicas)``) and multiply throughput, at
    unchanged per-token cost.

    The chosen candidate minimizes GPU-seconds per generated token
    among feasible points, with a deterministic tie-break; ``chosen``
    is ``None`` when nothing meets the target.  Candidates that fail
    to build (e.g. a placement whose weights cannot fit, or a model
    too small for the requested shard degree) are skipped.

    One-shot wrapper over :class:`CapacityPlanner`; callers that
    re-plan at varying rates (the autoscaler) should hold a planner
    and call :meth:`CapacityPlanner.plan` to reuse the priced
    ladders.
    """
    if not hosts or not placements or not rates_rps:
        raise ConfigurationError(
            "plan_capacity needs at least one host, placement, and rate"
        )
    for rate in rates_rps:
        if rate <= 0:
            raise ConfigurationError("arrival rates must be positive")
    if not shard_degrees or not replica_counts:
        raise ConfigurationError(
            "plan_capacity needs at least one shard degree and one "
            "replica count"
        )
    for count in replica_counts:
        if count < 1:
            raise ConfigurationError("replica counts must be >= 1")
    planner = CapacityPlanner(
        model=model,
        hosts=hosts,
        placements=placements,
        compress_weights=compress_weights,
        prompt_len=prompt_len,
        gen_len=gen_len,
        bucket_tokens=bucket_tokens,
        overlap=overlap,
        max_batch_limit=max_batch_limit,
        shard_degrees=shard_degrees,
    )
    return planner.plan(
        target, rates_rps=rates_rps, replica_counts=replica_counts
    )
