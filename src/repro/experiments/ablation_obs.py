"""Ablation: streaming burn-rate alerts vs post-hoc SLO analysis.

The SLO monitor (:mod:`repro.obs`) evaluates multi-window burn rates
at scheduler boundaries, so a latency regression raises an alert
*while the run degrades*.  The alternative — what the serve report
and ``build_metrics`` do — is post-hoc: percentiles over the finished
records, available only after the fact.  This ablation injects a
mid-run degradation and measures the detection gap in virtual time:

* A **healthy phase** of evenly spaced requests the engine keeps up
  with (TTFT ≈ prefill time, far under the objective threshold).
* A **degraded wave** arriving faster than the service rate from
  ``WAVE_START_S`` on: the queue builds, and TTFT climbs through the
  threshold request by request.

Three timestamps tell the story, all on the same virtual clock:

* ``onset_s`` — when the wave starts (ground truth);
* ``alert_s`` — when the burn-rate alert first fires (streaming);
* ``posthoc_s`` — the first completion time at which the *cumulative*
  TTFT p99 over all records so far exceeds the threshold, i.e. the
  earliest moment an after-the-fact percentile scan could have seen
  the violation.

Expected shape: ``onset_s < alert_s < posthoc_s`` — the windowed
detector reacts to the first bad completions while the cumulative
p99 still remembers the long healthy prefix.  The run is also
executed without any observer attached, and its records must be
bit-identical: observation never perturbs scheduling.

Set ``REPRO_QUICK=1`` (or ``repro-experiments run --quick``) to
shrink both phases.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from repro.analysis.reporting import Table
from repro.experiments.base import ExperimentResult
from repro.obs import SloObjective, SloSpec, WindowConfig
from repro.serve.arrivals import TraceReplay
from repro.serve.request import RequestSpec
from repro.serve.simulator import simulate_serving

MODEL = "opt-175b"
HOST = "NVDRAM"
PLACEMENT = "helm"
SEED = 5

#: Objective: 99% of requests see first token within this bound.
TTFT_THRESHOLD_S = 120.0
TARGET = 0.99

#: Healthy phase: one request per period, service time well under it.
#: Kept above 100 samples so the report's interpolated p99 is anchored
#: strictly below the maximum — one outlier does not move it, which is
#: exactly why post-hoc percentiles lag streaming burn rates.
HEALTHY_REQUESTS = 120
HEALTHY_PERIOD_S = 150.0
#: Degraded wave: arrivals faster than the service rate.
WAVE_REQUESTS = 30
WAVE_PERIOD_S = 15.0

QUICK_WAVE = 10  #: --quick shrinks the wave (healthy phase stays).


def _quick() -> bool:
    return os.environ.get("REPRO_QUICK", "") not in ("", "0")


def _specs() -> Tuple[RequestSpec, ...]:
    healthy = HEALTHY_REQUESTS
    wave = QUICK_WAVE if _quick() else WAVE_REQUESTS
    wave_start = healthy * HEALTHY_PERIOD_S
    specs: List[RequestSpec] = []
    for index in range(healthy):
        specs.append(
            RequestSpec(
                request_id=index,
                arrival_s=index * HEALTHY_PERIOD_S,
                prompt_len=128,
                gen_len=16,
            )
        )
    for index in range(wave):
        specs.append(
            RequestSpec(
                request_id=healthy + index,
                arrival_s=wave_start + index * WAVE_PERIOD_S,
                prompt_len=512,
                gen_len=16,
            )
        )
    return tuple(specs)


def _spec() -> SloSpec:
    return SloSpec(
        objectives=(
            SloObjective(
                name="ttft-fast",
                qos="*",
                metric="ttft",
                target=TARGET,
                threshold_s=TTFT_THRESHOLD_S,
            ),
        ),
        window=WindowConfig(width_s=60.0, windows=16),
    )


def _simulate(specs, slo=None):
    return simulate_serving(
        model=MODEL,
        host=HOST,
        placement=PLACEMENT,
        compress_weights=True,
        arrival=TraceReplay(specs=specs),
        num_requests=0,
        seed=SEED,
        slo=slo,
    )


def _posthoc_detection_s(records) -> float:
    """First completion time where the cumulative TTFT p99 exceeds
    the threshold — the earliest a post-hoc percentile scan over
    everything finished so far would have shown the violation.

    Computed exactly as the serve report does
    (:class:`repro.serve.metrics.LatencyStats` uses
    ``numpy.percentile`` with linear interpolation).
    """
    import numpy as np

    samples: List[float] = []
    for record in sorted(records, key=lambda r: r.finished_s):
        samples.append(record.ttft_s)
        if float(np.percentile(samples, 99.0)) > TTFT_THRESHOLD_S:
            return record.finished_s
    return float("inf")


def run() -> ExperimentResult:
    specs = _specs()
    spec = _spec()
    onset_s = next(
        s.arrival_s for s in specs if s.prompt_len == 512
    )

    observed = _simulate(specs, slo=spec)
    plain = _simulate(specs, slo=None)

    report = observed.setup["slo"]
    alert_s = report["first_alert_s"]
    posthoc_s = _posthoc_detection_s(observed.records)
    objective = report["objectives"][0]

    table = Table(
        title=(
            "Ablation: streaming burn-rate alert vs post-hoc p99 "
            f"(OPT-175B, {HOST}, {PLACEMENT}; TTFT <= "
            f"{TTFT_THRESHOLD_S:.0f} s for {TARGET:.0%})"
        ),
        columns=("event", "virtual_time_s", "lead_vs_posthoc_s"),
    )
    table.add_row("degradation onset", round(onset_s, 1), "-")
    table.add_row(
        "burn-rate alert",
        round(alert_s, 1) if alert_s is not None else "never",
        round(posthoc_s - alert_s, 1) if alert_s is not None else "-",
    )
    table.add_row("post-hoc p99 crosses", round(posthoc_s, 1), 0.0)
    table.add_row(
        "run ends (report avail.)",
        round(observed.metrics.duration_s, 1),
        round(observed.metrics.duration_s - posthoc_s, 1),
    )

    data: Dict[str, object] = {
        "onset_s": onset_s,
        "alert_s": alert_s,
        "posthoc_s": posthoc_s,
        "run_s": observed.metrics.duration_s,
        "alert_lead_s": (
            posthoc_s - alert_s if alert_s is not None else None
        ),
        "objective": objective,
        "alerts": report["alerts"],
        "checks": {
            # The wave actually broke the objective...
            "objective_violated": not objective["met"],
            # ...the streaming detector saw it...
            "alert_fired": alert_s is not None,
            # ...after the onset (no false positive in the healthy
            # phase) and before the cumulative p99 shows it.
            "alert_after_onset": (
                alert_s is not None and alert_s >= onset_s
            ),
            "alert_leads_posthoc": (
                alert_s is not None and alert_s < posthoc_s
            ),
            # Observation never perturbs scheduling: the unobserved
            # run's records are bit-identical.
            "observer_inert": plain.records == observed.records
            and plain.metrics.summary() == observed.metrics.summary(),
        },
    }
    return ExperimentResult(
        name="ablation_obs",
        description=(
            "Streaming SLO burn-rate alert fires before the post-hoc "
            "p99 violation is visible"
        ),
        tables=[table],
        data=data,
    )
