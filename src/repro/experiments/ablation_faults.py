"""Ablation: fault injection and graceful degradation under load.

The serving ablations assume the memory tiers deliver their nominal
bandwidth forever.  Real heterogeneous hosts do not: SSDs pause for
garbage collection, Optane media wears, CXL links flap.  This
experiment sweeps the intensity of a periodic host-tier degradation
(a GC-pause-like window that multiplies transfer times) against the
two headline placements and measures what an *operator* cares about —
goodput and per-class SLO attainment — with the resilience playbook
(shed batch-tier load, shrink the admitted batch, re-plan placement
against the degraded bandwidth map) on and off.

Expected shape:

* at zero intensity the fault machinery is inert: metrics are
  identical to a fault-free run, bit for bit;
* as intensity climbs, the no-resilience baseline drags every tenant
  down together, while the resilient scheduler sacrifices batch-tier
  requests to keep the interactive tier inside its SLO;
* identical seeds and schedules reproduce identical runs.

Set ``REPRO_QUICK=1`` (or pass ``repro-experiments run --quick``) for
a smaller sweep suitable for CI smoke tests.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.analysis.reporting import Table
from repro.core.qos import QosTarget
from repro.experiments.base import ExperimentResult
from repro.faults.models import (
    DegradationWindow,
    FaultSchedule,
    TransientFaults,
)
from repro.serve.request import QosClass
from repro.serve.resilience import NO_RESILIENCE
from repro.serve.simulator import simulate_serving

PLACEMENTS = ("helm", "allcpu")
#: Host-tier slowdown factors swept (1.0 = no fault).
INTENSITIES = (1.0, 4.0, 16.0)
NUM_REQUESTS = 200
#: Arrival rate and admission cap per placement, chosen so both run
#: at roughly 70% of nominal capacity (HeLM admits one sequence at
#: ~4 s/iteration; All-CPU is capped at 8 concurrent sequences at
#: ~5.5 s/iteration).
LOAD = {"helm": (0.008, None), "allcpu": (0.05, 8)}
SEED = 7
FAULT_SEED = 13

#: Platform-scale tenant tiers: out-of-core OPT-175B first tokens
#: take seconds nominally, so the interactive bound is 120 s — met
#: easily when healthy, blown when a degraded tier backs up the
#: admission queue.  Batch tenants only care about finishing within
#: the hour.
INTERACTIVE = QosClass(
    name="interactive", priority=0, target=QosTarget(max_ttft_s=120.0)
)
BATCH = QosClass(
    name="batch",
    priority=1,
    target=QosTarget(max_tbt_s=3600.0),
    max_e2e_s=3600.0,
)
CLASS_MIX = ((INTERACTIVE, 0.4), (BATCH, 0.6))


def _quick() -> bool:
    return os.environ.get("REPRO_QUICK", "") not in ("", "0")


def _schedule(slowdown: float) -> Optional[FaultSchedule]:
    """A GC-pause-like degradation window plus rare transients."""
    if slowdown <= 1.0:
        return None
    return FaultSchedule(
        faults=(
            DegradationWindow(
                target="host",
                slowdown=slowdown,
                start_s=600.0,
                duration_s=400.0,
            ),
            TransientFaults(target="host", probability=0.01),
        ),
        seed=FAULT_SEED,
    )


def _simulate(
    placement: str,
    slowdown: float,
    resilient: bool,
    num_requests: int,
):
    rate, max_batch = LOAD[placement]
    return simulate_serving(
        model="opt-175b",
        host="NVDRAM",
        placement=placement,
        compress_weights=True,
        arrival="poisson",
        rate_rps=rate,
        num_requests=num_requests,
        class_mix=CLASS_MIX,
        seed=SEED,
        max_batch=max_batch,
        faults=_schedule(slowdown),
        resilience=None if resilient else NO_RESILIENCE,
    )


def _flat(result) -> Dict[str, object]:
    metrics = result.metrics
    per_class = metrics.per_class
    return {
        "goodput_rps": metrics.goodput_rps,
        "slo_attainment": metrics.slo_attainment,
        "interactive_slo": per_class["interactive"].slo_attainment,
        "batch_slo": per_class["batch"].slo_attainment,
        "interactive_ttft_p95_s": per_class["interactive"].ttft.p95_s,
        "batch_ttft_p95_s": per_class["batch"].ttft.p95_s,
        "shed": metrics.shed_requests,
        "shed_interactive": per_class["interactive"].shed,
        "replans": metrics.faults.replans,
        "degradation_events": metrics.faults.degradation_events,
        "degraded_iterations": metrics.faults.degraded_iterations,
        "retried_iterations": metrics.faults.retried_iterations,
        "aborted": metrics.faults.aborted,
        "duration_s": metrics.duration_s,
        "ttft_p99_s": metrics.ttft.p99_s,
    }


def run() -> ExperimentResult:
    quick = _quick()
    intensities: Tuple[float, ...] = (
        (1.0, 8.0) if quick else INTENSITIES
    )
    # Quick mode keeps the placement with KV slots to contend for —
    # that is where the resilience playbook has room to act.
    placements = ("allcpu",) if quick else PLACEMENTS
    num_requests = 80 if quick else NUM_REQUESTS

    sweep = Table(
        title=(
            "Ablation: fault intensity vs goodput and SLO attainment "
            "(OPT-175B, NVDRAM, Poisson arrivals at ~70% capacity, "
            "40% interactive / 60% batch)"
        ),
        columns=(
            "placement", "slowdown", "resilience", "goodput_rps",
            "inter_slo", "batch_slo", "inter_ttft_p95_s", "shed",
            "replans", "degraded_iters",
        ),
    )
    data: Dict[str, object] = {}
    for placement in placements:
        for slowdown in intensities:
            for resilient in (True, False):
                result = _simulate(
                    placement, slowdown, resilient, num_requests
                )
                flat = _flat(result)
                mode = "on" if resilient else "off"
                data[f"{placement}/x{slowdown:g}/{mode}"] = flat
                sweep.add_row(
                    placement,
                    f"{slowdown:g}x",
                    mode,
                    round(flat["goodput_rps"], 4),
                    round(flat["interactive_slo"], 3),
                    round(flat["batch_slo"], 3),
                    round(flat["interactive_ttft_p95_s"], 2),
                    flat["shed"],
                    flat["replans"],
                    flat["degraded_iterations"],
                )

    # Zero-intensity fault machinery must be inert: byte-identical
    # metrics to a run with no fault injection at all.
    rate, max_batch = LOAD[placements[0]]
    baseline = simulate_serving(
        model="opt-175b",
        host="NVDRAM",
        placement=placements[0],
        compress_weights=True,
        arrival="poisson",
        rate_rps=rate,
        num_requests=num_requests,
        class_mix=CLASS_MIX,
        seed=SEED,
        max_batch=max_batch,
    )
    zero = _simulate(placements[0], 1.0, True, num_requests)
    zero_identical = (
        baseline.records == zero.records
        and baseline.metrics.duration_s == zero.metrics.duration_s
        and baseline.metrics.ttft.p99_s == zero.metrics.ttft.p99_s
    )

    # Determinism: same seeds + schedule -> identical run.
    top = max(intensities)
    replay = _simulate(placements[0], top, True, num_requests)
    deterministic = (
        _flat(replay) == data[f"{placements[0]}/x{top:g}/on"]
    )

    worst = {
        placement: (
            data[f"{placement}/x{top:g}/on"],
            data[f"{placement}/x{top:g}/off"],
        )
        for placement in placements
    }
    data["checks"] = {
        "zero_intensity_identical": zero_identical,
        "deterministic_replay": deterministic,
        # The resilience win: with shedding + eviction + re-planning,
        # the interactive tier's SLO attainment at the worst intensity
        # is never below the price-it-but-do-nothing baseline, and
        # strictly beats it where there are KV slots to contend for
        # (HeLM admits a single sequence, so at the worst intensity
        # the one affected request is lost either way).
        "resilience_preserves_interactive_slo": all(
            on["interactive_slo"] >= off["interactive_slo"]
            for on, off in worst.values()
        )
        and any(
            on["interactive_slo"] > off["interactive_slo"]
            for on, off in worst.values()
        ),
        # Shedding spares the interactive tier entirely.
        "shedding_spares_interactive": all(
            data[key]["shed_interactive"] == 0
            for key in data
            if isinstance(data[key], dict) and "shed_interactive" in data[key]
        ),
        # Degradation windows end: no run escalates to an abort.
        "no_aborts": all(
            not value["aborted"]
            for value in data.values()
            if isinstance(value, dict) and "aborted" in value
        ),
    }
    return ExperimentResult(
        name="ablation_faults",
        description=(
            "Fault injection: degraded-tier intensity vs goodput/SLO, "
            "resilience on vs off"
        ),
        tables=[sweep],
        data=data,
    )
