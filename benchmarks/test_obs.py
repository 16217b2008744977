"""Benchmark smoke: observability is inert when off and cheap when on.

Three machine checks of the ``repro.obs`` acceptance criteria, with
the measurements pinned in ``BENCH_obs.json`` at the repo root:

* **off-mode bit-identity** — across two models x two placements, a
  serve run with the full windowed-instrument + SLO monitor stack
  attached produces records and summary metrics bit-identical to the
  unobserved run, and an unobserved run publishes no ``obs/``/``slo/``
  series at all;
* **zero-regression diff** — two same-seed observed runs' telemetry
  bundles compare clean under ``repro-telemetry diff`` semantics
  (exit code 0, no regressions);
* **overhead** — the observed run costs at most 10% wall clock over
  the unobserved one plus a fixed 0.25 s slack, measured on the
  bigger of the sweep cells (the run is short enough that the slack,
  not the 10%, is what admits the observer's overhead; see
  docs/observability.md "Cost");

plus the ablation pin: the injected-degradation experiment's
burn-rate alert fires after onset and before the cumulative p99
crossing, and its virtual timestamps land in the artifact.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.experiments.common import clear_cache
from repro.obs.diff import diff_bundles
from repro.serve.arrivals import PoissonProcess
from repro.serve.simulator import simulate_serving
from repro.telemetry import Telemetry

from .record import write_report

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

RELATIVE_BUDGET = 0.10
ABSOLUTE_SLACK_S = 0.25

#: The bit-identity sweep: two models x two placements.
CELLS = (
    ("opt-175b", "helm"),
    ("opt-175b", "allcpu"),
    ("opt-30b", "helm"),
    ("opt-30b", "allcpu"),
)


@pytest.fixture
def quick_env(monkeypatch):
    monkeypatch.setenv("REPRO_QUICK", "1")


def _serve(model: str, placement: str, slo, telemetry=None):
    return simulate_serving(
        model=model,
        host="NVDRAM",
        placement=placement,
        arrival=PoissonProcess(rate_rps=0.05),
        num_requests=12,
        seed=11,
        slo=slo,
        telemetry=telemetry,
    )


def test_obs_off_and_on_bit_identity_and_overhead(quick_env, benchmark):
    identity = {}
    for model, placement in CELLS:
        plain_telemetry = Telemetry.create(tool="bench", cell="plain")
        observed_telemetry = Telemetry.create(tool="bench", cell="obs")
        plain = _serve(model, placement, None, plain_telemetry)
        observed = _serve(model, placement, True, observed_telemetry)
        cell = f"{model}/{placement}"
        assert plain.records == observed.records, cell
        assert plain.shed == observed.shed, cell
        assert (
            plain.metrics.summary() == observed.metrics.summary()
        ), cell
        plain_snapshot = plain_telemetry.registry.snapshot()
        observed_names = {
            entry["name"]
            for kind in ("counters", "gauges", "histograms")
            for entry in plain_snapshot[kind]
        }
        assert not any(
            name.startswith(("obs/", "slo/")) for name in observed_names
        ), f"{cell}: unobserved run published obs series"
        assert observed.setup["slo"]["objectives"], cell
        identity[cell] = True

    # Zero-regression diff between two same-seed observed runs.
    bundle_a = Telemetry.create(tool="bench", run="a")
    bundle_b = Telemetry.create(tool="bench", run="b")
    _serve("opt-175b", "helm", True, bundle_a)
    _serve("opt-175b", "helm", True, bundle_b)
    report = diff_bundles(bundle_a.bundle(), bundle_b.bundle())
    assert not report.regressions, [d.key for d in report.regressions]
    assert report.exit_code == 0

    # Overhead: observed vs unobserved, same cell, fresh caches.
    clear_cache()
    _serve("opt-175b", "helm", None)  # warm imports / model config
    started = time.perf_counter()
    _serve("opt-175b", "helm", None)
    baseline_s = time.perf_counter() - started

    def observed_job():
        started = time.perf_counter()
        _serve("opt-175b", "helm", True)
        return time.perf_counter() - started

    observed_s = benchmark.pedantic(observed_job, rounds=1, iterations=1)
    budget_s = baseline_s * (1.0 + RELATIVE_BUDGET) + ABSOLUTE_SLACK_S

    # Ablation pin: streaming alert leads the post-hoc p99 crossing.
    clear_cache()
    from repro.experiments.registry import run_experiment

    ablation = run_experiment("ablation_obs")
    checks = ablation.data["checks"]
    assert all(checks.values()), checks

    write_report(
        BENCH_PATH,
        {
            "bit_identity_cells": sorted(identity),
            "diff_regressions": 0,
            "baseline_s": round(baseline_s, 4),
            "observed_s": round(observed_s, 4),
            "overhead_s": round(observed_s - baseline_s, 4),
            "relative_budget": RELATIVE_BUDGET,
            "absolute_slack_s": ABSOLUTE_SLACK_S,
            "budget_s": round(budget_s, 4),
            "ablation": {
                "onset_s": ablation.data["onset_s"],
                "alert_s": ablation.data["alert_s"],
                "posthoc_s": ablation.data["posthoc_s"],
                "alert_lead_s": ablation.data["alert_lead_s"],
                "checks": checks,
            },
        },
        timings=("baseline_s", "observed_s", "overhead_s", "budget_s"),
    )

    assert observed_s < budget_s, (
        f"observed run took {observed_s:.2f}s vs baseline "
        f"{baseline_s:.2f}s (budget {budget_s:.2f}s)"
    )
