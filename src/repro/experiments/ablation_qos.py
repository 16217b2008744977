"""Ablation: the QoS planner (the paper's closing suggestion, made
concrete).

Section VII: "weight placement algorithms that can automatically make
latency/throughput tradeoffs based on desired quality of service
requirements".  This experiment evaluates the QoS planner's
placement × batch ladder once
(:func:`repro.core.qos.evaluate_qos_ladder`), applies a spread of
service-level targets to it (:func:`repro.core.qos.select_for_qos`;
the two halves of :func:`repro.core.qos.plan_for_qos`) and records
which placement/batch each selects — tight latency bounds select HeLM
at small batches, throughput floors select All-CPU at large batches,
and the planner refuses (best-effort) when a target is physically
impossible on the platform.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.reporting import Table
from repro.core.qos import QosTarget, evaluate_qos_ladder, select_for_qos
from repro.experiments.base import ExperimentResult
from repro.experiments.common import GEN_LEN, PROMPT_LEN

TARGETS = (
    ("tbt <= 6s", QosTarget(max_tbt_s=6.0)),
    ("tbt <= 4.5s", QosTarget(max_tbt_s=4.5)),
    ("tbt <= 2s (impossible)", QosTarget(max_tbt_s=2.0)),
    ("tput >= 2 tok/s", QosTarget(min_throughput_tps=2.0)),
    ("tput >= 5 tok/s", QosTarget(min_throughput_tps=5.0)),
    (
        "tbt <= 6.5s AND tput >= 5",
        QosTarget(max_tbt_s=6.5, min_throughput_tps=5.0),
    ),
)


def run() -> ExperimentResult:
    table = Table(
        title="Ablation: QoS planning (OPT-175B, NVDRAM, compressed)",
        columns=(
            "target", "met", "placement", "batch", "tbt_s", "tput_tok_s",
        ),
    )
    data: Dict[str, Dict] = {}
    ladder = evaluate_qos_ladder(
        model="opt-175b",
        host="NVDRAM",
        compress_weights=True,
        prompt_len=PROMPT_LEN,
        gen_len=GEN_LEN,
    )
    for label, target in TARGETS:
        plan = select_for_qos(target, ladder)
        chosen = plan.chosen
        table.add_row(
            label,
            plan.meets_target,
            chosen.placement,
            chosen.batch_size,
            round(chosen.metrics.tbt_s, 4),
            round(chosen.metrics.throughput_tps, 4),
        )
        data[label] = plan.summary()

    data["checks"] = {
        # A tight latency bound selects the latency-optimized scheme.
        "tight_latency_selects_helm": (
            data["tbt <= 4.5s"]["placement"] == "helm"
        ),
        # A throughput floor selects All-CPU at a large batch.
        "throughput_selects_allcpu": (
            data["tput >= 5 tok/s"]["placement"] == "allcpu"
            and data["tput >= 5 tok/s"]["batch_size"] >= 32
        ),
        # Impossible targets are reported, not silently mis-served.
        "impossible_target_flagged": (
            data["tbt <= 2s (impossible)"]["meets_target"] is False
        ),
        # Combined bounds still resolve (All-CPU's TBT stays flat, so
        # both can hold at once).
        "combined_target_met": (
            data["tbt <= 6.5s AND tput >= 5"]["meets_target"] is True
        ),
    }
    return ExperimentResult(
        name="ablation_qos",
        description="QoS-driven placement/batch planning (Section VII)",
        tables=[table],
        data=data,
    )
