"""Ablation: structural tier loss — KV rescue vs shed-only recovery.

The fault ablation (:mod:`repro.experiments.ablation_faults`) varies
how fast the hierarchy *moves*; this one changes its *shape* at
runtime.  A long-context interactive wave overcommits the KV cache
past the fast tiers onto the SSD storage tier while a batch trickle
rides along; mid-drain — when the fast tiers have freed headroom but
the wave's long tail still holds SSD-resident KV — the SSD dies
(:class:`~repro.faults.models.TierLoss`).  Two recovery arms are
compared:

* **rescue** — the scheduler emergency-migrates every authoritative
  extent off the lost tier into the surviving headroom, priced
  through the same solver as every other byte; requests keep their
  generation progress.
* **shed** — the baseline: requests whose KV lived on the lost tier
  are shed (reason ``"kv_lost"``) and retried by a well-behaved
  client with exponential backoff, redoing their 1536-token prefills
  from scratch.

The headline metric is **client-perceived TTFT**: time from a
request's *first* arrival to its first token, across shed/retry
attempts (the per-attempt TTFT the latency report shows hides the
retry penalty — the client who asked at ``t0`` does not care that the
third attempt was fast).  Expected shape:

* at zero chaos intensity the structural machinery is inert — metrics
  bit-identical to a run with no fault injection at all;
* the rescue arm preserves the interactive tenant's perceived p99
  TTFT through the loss (no interactive request is shed), at the cost
  of priced rescue migrations;
* the shed-only arm collapses perceived p99 TTFT by an order of
  magnitude and drops interactive SLO attainment;
* identical seeds and schedules replay identical runs, and a run with
  the invariant sanitizer attached is bit-identical to one without.

Set ``REPRO_QUICK=1`` (or ``repro-experiments run --quick``) to skip
the seeded chaos-schedule breadth sweep.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Tuple

from repro.analysis.reporting import Table
from repro.chaos import SanitizerHarness, generate_chaos_schedule
from repro.core.qos import QosTarget
from repro.experiments.base import ExperimentResult
from repro.faults.models import DISK_TARGET, FaultSchedule, TierLoss
from repro.serve.arrivals import (
    PoissonProcess,
    TraceReplay,
    generate_requests,
)
from repro.serve.request import QosClass
from repro.serve.resilience import ResiliencePolicy
from repro.serve.simulator import simulate_serving
from repro.workloads.lengths import LengthDistribution

MODEL = "opt-175b"
HOST = "SSD"
PLACEMENT = "allcpu"
MAX_BATCH = 32
SEED = 7
FAULT_SEED = 13
#: Breadth sweep: seeded chaos schedules (full mode only).
CHAOS_SEEDS = (1, 2)

#: The SSD dies here — mid-drain, when the interactive wave's long
#: tail still holds SSD-resident KV but completions have opened
#: DRAM headroom for a rescue — and is replaced 30 min later
#: (it comes back empty).
LOSS_START_S = 2500.0
LOSS_DURATION_S = 1800.0

#: Long-context interactive wave: 60 chat sessions arriving over
#: ~5 min, 1536-token prompts, lognormal generation tails.  Out of
#: core, first tokens take minutes — the SLO bound is 300 s.
INTERACTIVE = QosClass(
    name="interactive", priority=0, target=QosTarget(max_ttft_s=300.0)
)
#: Background batch trickle, small prompts, only cares about hours.
BATCH = QosClass(
    name="batch",
    priority=1,
    target=QosTarget(max_tbt_s=3600.0),
    max_e2e_s=14400.0,
)
CLASS_MIX = ((INTERACTIVE, 0.5), (BATCH, 0.5))

WAVE_REQUESTS = 60
TRICKLE_REQUESTS = 40


def _quick() -> bool:
    return os.environ.get("REPRO_QUICK", "") not in ("", "0")


def _specs() -> Tuple:
    """The two-tenant stream: interactive wave + batch trickle.

    The wave's KV (~7 GiB/request) overcommits HBM+DRAM and spills
    onto the SSD tier; the trickle's stays fast-resident.  Streams
    are sampled independently, merged by arrival, and renumbered.
    """
    wave = generate_requests(
        PoissonProcess(rate_rps=0.2),
        WAVE_REQUESTS,
        prompt_lengths=LengthDistribution.fixed(1536),
        gen_lengths=LengthDistribution.lognormal(median=24.0),
        class_mix=((INTERACTIVE, 1.0),),
        seed=11,
    )
    trickle = generate_requests(
        PoissonProcess(rate_rps=0.008),
        TRICKLE_REQUESTS,
        prompt_lengths=LengthDistribution.fixed(128),
        gen_lengths=LengthDistribution.fixed(16),
        class_mix=((BATCH, 1.0),),
        seed=12,
    )
    merged = sorted(wave + trickle, key=lambda spec: spec.arrival_s)
    return tuple(
        dataclasses.replace(spec, request_id=index)
        for index, spec in enumerate(merged)
    )


def _resilience(rescue: bool) -> ResiliencePolicy:
    return ResiliencePolicy(
        rescue_kv=rescue,
        queue_deadline_s=3600.0,
        retry_shed=True,
        retry_max_attempts=3,
        retry_backoff_s=60.0,
    )


def _loss_schedule() -> FaultSchedule:
    return FaultSchedule(
        faults=(
            TierLoss(
                target=DISK_TARGET,
                start_s=LOSS_START_S,
                duration_s=LOSS_DURATION_S,
            ),
        ),
        seed=FAULT_SEED,
    )


def _simulate(
    specs,
    faults: Optional[FaultSchedule],
    rescue: bool = True,
    sanitize=None,
):
    return simulate_serving(
        model=MODEL,
        host=HOST,
        placement=PLACEMENT,
        compress_weights=True,
        arrival=TraceReplay(specs=specs),
        num_requests=0,
        class_mix=CLASS_MIX,
        seed=SEED,
        max_batch=MAX_BATCH,
        faults=faults,
        resilience=_resilience(rescue) if faults is not None else None,
        kv_policy="hotness",
        sanitize=sanitize if sanitize is not None else False,
    )


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _perceived_ttft(result, qos: str) -> Tuple[List[float], int]:
    """Per-request TTFT from *first* arrival across retry attempts.

    Returns the samples for completed requests plus the count of
    requests that never completed (retries exhausted).
    """
    first_arrival: Dict[int, float] = {}
    for shed in result.shed:
        if shed.qos_class != qos:
            continue
        first_arrival[shed.request_id] = min(
            first_arrival.get(shed.request_id, shed.arrival_s),
            shed.arrival_s,
        )
    samples: List[float] = []
    completed = set()
    for record in result.records:
        if record.qos_class != qos:
            continue
        completed.add(record.request_id)
        origin = min(
            first_arrival.get(record.request_id, record.arrival_s),
            record.arrival_s,
        )
        samples.append(record.arrival_s + record.ttft_s - origin)
    return samples, len(set(first_arrival) - completed)


def _flat(result) -> Dict[str, object]:
    metrics = result.metrics
    faults = metrics.faults
    interactive = metrics.per_class["interactive"]
    reasons: Dict[str, int] = {}
    for shed in result.shed:
        reasons[shed.reason] = reasons.get(shed.reason, 0) + 1
    perceived, lost_clients = _perceived_ttft(result, "interactive")
    return {
        "completed": metrics.num_requests,
        "shed": metrics.shed_requests,
        "shed_reasons": reasons,
        "tier_losses": faults.tier_losses,
        "rescued_requests": faults.rescued_requests,
        "client_retries": faults.client_retries,
        "timeouts": faults.timeouts,
        "aborted": faults.aborted,
        "goodput_rps": metrics.goodput_rps,
        "interactive_slo": interactive.slo_attainment,
        "interactive_shed": interactive.shed,
        "interactive_ttft_p99_s": interactive.ttft.p99_s,
        "perceived_ttft_p50_s": _percentile(perceived, 0.50),
        "perceived_ttft_p99_s": _percentile(perceived, 0.99),
        "perceived_ttft_max_s": max(perceived) if perceived else 0.0,
        "lost_clients": lost_clients,
        "kv_migrations": result.setup["kv"]["migrations"],
        "duration_s": metrics.duration_s,
    }


def _accounted(result, specs) -> bool:
    """Every request either completed or was permanently shed."""
    done = {record.request_id for record in result.records}
    shed = {record.request_id for record in result.shed}
    return {spec.request_id for spec in specs} == done | shed


def run() -> ExperimentResult:
    quick = _quick()
    specs = _specs()

    sweep = Table(
        title=(
            "Ablation: SSD tier loss mid-drain — KV rescue vs shed-only "
            "(OPT-175B, DRAM host + SSD storage tier, All-CPU, "
            "long-context interactive wave + batch trickle)"
        ),
        columns=(
            "scenario", "arm", "rescued", "shed", "retries",
            "inter_slo", "perceived_ttft_p99_s", "tier_losses",
            "goodput_rps",
        ),
    )
    data: Dict[str, object] = {}

    def record(key: str, scenario: str, arm: str, result) -> Dict:
        flat = _flat(result)
        data[key] = flat
        sweep.add_row(
            scenario,
            arm,
            flat["rescued_requests"],
            flat["shed"],
            flat["client_retries"],
            round(flat["interactive_slo"], 3),
            round(flat["perceived_ttft_p99_s"], 1),
            flat["tier_losses"],
            round(flat["goodput_rps"], 4),
        )
        return flat

    baseline_run = _simulate(specs, None)
    baseline = record("baseline", "none", "-", baseline_run)

    # Zero-intensity chaos: the generator yields an empty schedule and
    # attaching it must be inert, bit for bit.
    zero_schedule = generate_chaos_schedule(
        FAULT_SEED, span_s=3200.0, targets=(DISK_TARGET,), intensity=0.0
    )
    zero_run = _simulate(specs, zero_schedule)
    record("zero", "zero", "rescue", zero_run)
    zero_identical = (
        baseline_run.records == zero_run.records
        and baseline_run.metrics.summary() == zero_run.metrics.summary()
    )

    loss = _loss_schedule()
    rescue_run = _simulate(specs, loss, rescue=True)
    rescue = record("tier_loss/rescue", "ssd_loss", "rescue", rescue_run)
    shed_run = _simulate(specs, loss, rescue=False)
    shed = record("tier_loss/shed", "ssd_loss", "shed", shed_run)

    # Determinism: same seeds + schedule -> identical run.
    replay = _flat(_simulate(specs, loss, rescue=True))
    deterministic = replay == rescue

    # The invariant sanitizer never perturbs a run: the rescue arm
    # with the harness attached is bit-identical and violation-free.
    harness = SanitizerHarness(strict=True)
    sanitized_run = _simulate(specs, loss, rescue=True, sanitize=harness)
    sanitize_report = harness.report()
    data["sanitize"] = sanitize_report
    sanitized_identical = (
        sanitized_run.records == rescue_run.records
        and sanitized_run.metrics.summary() == rescue_run.metrics.summary()
        and not sanitize_report["violations"]
    )

    accounted = [
        _accounted(run_, specs)
        for run_ in (baseline_run, rescue_run, shed_run)
    ]
    if not quick:
        # Breadth: seeded structural chaos schedules (loss + shrink
        # drawn by the generator) replay deterministically and leave
        # every request accounted for.
        for chaos_seed in CHAOS_SEEDS:
            schedule = generate_chaos_schedule(
                chaos_seed,
                span_s=3200.0,
                targets=(DISK_TARGET,),
                intensity=1.0,
                structural_only=True,
            )
            chaos_run = _simulate(specs, schedule, rescue=True)
            flat = record(
                f"chaos/s{chaos_seed}", f"seed {chaos_seed}", "rescue",
                chaos_run,
            )
            accounted.append(_accounted(chaos_run, specs))
            replayed = _flat(_simulate(specs, schedule, rescue=True))
            deterministic = deterministic and replayed == flat

    data["checks"] = {
        "zero_chaos_identical": zero_identical,
        "deterministic_replay": deterministic,
        "sanitized_identical_and_clean": sanitized_identical,
        # Both arms saw the same structural event...
        "tier_loss_observed": (
            rescue["tier_losses"] >= 1 and shed["tier_losses"] >= 1
        ),
        # ...the rescue arm moved KV instead of stranding requests...
        "rescue_moves_kv": (
            rescue["rescued_requests"] > 0
            and rescue["shed_reasons"].get("kv_lost", 0) == 0
        ),
        "shed_only_strands": shed["shed_reasons"].get("kv_lost", 0) > 0,
        # ...and the client-perceived interactive tail tells the
        # story: rescue holds the baseline p99, shed-only collapses it.
        "rescue_preserves_perceived_ttft": (
            rescue["perceived_ttft_p99_s"]
            <= 1.25 * baseline["perceived_ttft_p99_s"]
            and shed["perceived_ttft_p99_s"]
            >= 2.0 * baseline["perceived_ttft_p99_s"]
        ),
        "rescue_preserves_interactive_slo": (
            rescue["interactive_slo"] > shed["interactive_slo"]
        ),
        "all_accounted": all(accounted),
        "no_aborts": not any(
            value.get("aborted")
            for value in data.values()
            if isinstance(value, dict) and "aborted" in value
        ),
    }
    return ExperimentResult(
        name="ablation_chaos",
        description=(
            "Structural tier loss: KV rescue vs shed-only recovery, "
            "client-perceived interactive TTFT"
        ),
        tables=[sweep],
        data=data,
    )
