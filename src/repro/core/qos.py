"""QoS-aware serving plans.

The paper closes hoping its insights "inform the design of improved
weight placement algorithms that can automatically make
latency/throughput tradeoffs based on desired quality of service
requirements" (Section VII).  This module is that planner: given
latency/throughput targets, it evaluates the placement schemes across
feasible batch sizes on the simulated platform and returns the best
configuration — maximizing throughput subject to the latency
constraints, exactly the trade HeLM (latency) and All-CPU
(throughput) make by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import OffloadEngine
from repro.core.metrics import GenerationMetrics
from repro.errors import ConfigurationError

DEFAULT_CANDIDATES = ("baseline", "helm", "allcpu")


@dataclass(frozen=True)
class QosTarget:
    """Service-level objectives for one serving deployment."""

    max_ttft_s: Optional[float] = None
    max_tbt_s: Optional[float] = None
    min_throughput_tps: Optional[float] = None

    def __post_init__(self) -> None:
        values = (self.max_ttft_s, self.max_tbt_s, self.min_throughput_tps)
        if all(value is None for value in values):
            raise ConfigurationError("a QoS target needs at least one bound")
        for value in values:
            if value is not None and value <= 0:
                raise ConfigurationError("QoS bounds must be positive")

    def satisfied_by(self, metrics: GenerationMetrics) -> bool:
        if self.max_ttft_s is not None and metrics.ttft_s > self.max_ttft_s:
            return False
        if self.max_tbt_s is not None and metrics.tbt_s > self.max_tbt_s:
            return False
        if (
            self.min_throughput_tps is not None
            and metrics.throughput_tps < self.min_throughput_tps
        ):
            return False
        return True


@dataclass(frozen=True)
class QosCandidate:
    """One evaluated (placement, batch) point."""

    placement: str
    batch_size: int
    metrics: GenerationMetrics
    feasible: bool


@dataclass(frozen=True)
class QosPlan:
    """The planner's answer."""

    target: QosTarget
    chosen: Optional[QosCandidate]
    candidates: Tuple[QosCandidate, ...]

    @property
    def meets_target(self) -> bool:
        return self.chosen is not None and self.chosen.feasible

    def summary(self) -> Dict[str, object]:
        if self.chosen is None:
            return {"meets_target": False, "chosen": None}
        return {
            "meets_target": self.meets_target,
            "placement": self.chosen.placement,
            "batch_size": self.chosen.batch_size,
            **self.chosen.metrics.summary(),
        }


def _batch_ladder(max_batch: int) -> List[int]:
    ladder = []
    batch = 1
    while batch < max_batch:
        ladder.append(batch)
        batch *= 2
    ladder.append(max_batch)
    return sorted(set(ladder))


#: One evaluated ladder point: ``(placement, batch, metrics)``.
LadderPoint = Tuple[str, int, GenerationMetrics]


def evaluate_qos_ladder(
    model: str = "opt-175b",
    host: str = "NVDRAM",
    compress_weights: bool = True,
    candidates: Sequence[str] = DEFAULT_CANDIDATES,
    prompt_len: int = 128,
    gen_len: int = 21,
) -> Tuple[LadderPoint, ...]:
    """Every candidate placement, run at a power-of-two batch ladder up
    to its own maximum feasible batch (a placement that fits no batch
    contributes no point).  Independent of any target, so one ladder
    serves every :func:`select_for_qos` call on the same platform.
    """
    from repro.pricing import build_executor

    points: List[LadderPoint] = []
    for placement in candidates:
        # One probe engine per placement; every batch on the ladder is
        # priced off the same placement via a re-shaped RunSpec
        # (float-identical to rebuilding the engine per batch — the
        # ladder never exceeds the placement's own admission limit, so
        # no batch can force a different spill/placement outcome).
        probe = OffloadEngine(
            model=model, host=host, placement=placement,
            compress_weights=compress_weights, batch_size=1,
            prompt_len=prompt_len, gen_len=gen_len,
        )
        max_batch = probe.max_batch_size()
        if max_batch < 1:
            continue
        for batch in _batch_ladder(max_batch):
            spec = probe.run_spec(batch_size=batch)
            points.append((placement, batch, build_executor(spec).run()))
    return tuple(points)


def select_for_qos(
    target: QosTarget, ladder: Sequence[LadderPoint]
) -> QosPlan:
    """Pick the ladder point maximizing throughput under ``target``.

    If no point meets the target, the plan returns the latency-best
    point as a best-effort choice with ``meets_target == False``.
    """
    evaluated = tuple(
        QosCandidate(
            placement=placement,
            batch_size=batch,
            metrics=metrics,
            feasible=target.satisfied_by(metrics),
        )
        for placement, batch, metrics in ladder
    )
    if not evaluated:
        return QosPlan(target=target, chosen=None, candidates=())

    feasible = [candidate for candidate in evaluated if candidate.feasible]
    if feasible:
        chosen = max(
            feasible, key=lambda c: c.metrics.throughput_tps
        )
    else:
        # Best effort: minimize the most-violated latency bound.
        chosen = min(evaluated, key=lambda c: c.metrics.tbt_s)
    return QosPlan(target=target, chosen=chosen, candidates=evaluated)


def plan_for_qos(
    target: QosTarget,
    model: str = "opt-175b",
    host: str = "NVDRAM",
    compress_weights: bool = True,
    candidates: Sequence[str] = DEFAULT_CANDIDATES,
    prompt_len: int = 128,
    gen_len: int = 21,
) -> QosPlan:
    """Pick the (placement, batch) maximizing throughput under ``target``:
    :func:`select_for_qos` over :func:`evaluate_qos_ladder`."""
    ladder = evaluate_qos_ladder(
        model, host, compress_weights, candidates, prompt_len, gen_len
    )
    return select_for_qos(target, ladder)
