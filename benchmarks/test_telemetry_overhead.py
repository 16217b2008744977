"""Benchmark smoke: telemetry is free when off and cheap when on.

Runs the quick ``ablation_serving`` sweep twice — once plain, once
under an ambient enabled :class:`~repro.telemetry.Telemetry` — and
asserts the telemetry package's two headline properties at once: the
instrumented sweep produces bit-identical experiment data (telemetry
never perturbs a priced result), and the registry/tracer bookkeeping
costs less than 10% wall clock.  The measured times land in
``BENCH_telemetry.json`` at the repo root.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.experiments.common import clear_cache
from repro.telemetry import Telemetry, use_telemetry

from .record import write_report

#: Written next to the repo's other BENCH artifacts.
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"

#: Accepted overhead: 10% relative plus a fixed 0.25 s of slack so
#: that very fast quick-mode sweeps (where a single scheduler hiccup
#: dwarfs the relative budget) do not flake the assertion.
RELATIVE_BUDGET = 0.10
ABSOLUTE_SLACK_S = 0.25


@pytest.fixture
def quick_env(monkeypatch):
    monkeypatch.setenv("REPRO_QUICK", "1")


def _run_sweep(telemetry=None):
    clear_cache()
    from repro.experiments.ablation_serving import run

    started = time.perf_counter()
    if telemetry is None:
        result = run()
    else:
        with use_telemetry(telemetry):
            result = run()
    return result, time.perf_counter() - started


def test_telemetry_off_vs_on(quick_env, benchmark):
    # Warm imports and module-level setup outside the timed runs.
    _run_sweep()

    baseline_result, baseline_s = _run_sweep()

    telemetry = Telemetry.create(tool="benchmark")

    def instrumented_job():
        return _run_sweep(telemetry)

    telemetry_result, telemetry_s = benchmark.pedantic(
        instrumented_job, rounds=1, iterations=1
    )

    # Identical experiment data, not merely close: an enabled registry
    # observes the run without touching a single priced duration.
    assert telemetry_result.data == baseline_result.data

    # And the run actually recorded something.
    bundle = telemetry.bundle()
    assert bundle["metrics"]["counters"], "no counters recorded"
    assert bundle["spans"], "no spans recorded"

    budget_s = baseline_s * (1.0 + RELATIVE_BUDGET) + ABSOLUTE_SLACK_S
    write_report(
        BENCH_PATH,
        {
            "experiment": "ablation_serving (quick)",
            "baseline_s": round(baseline_s, 4),
            "telemetry_s": round(telemetry_s, 4),
            "overhead_s": round(telemetry_s - baseline_s, 4),
            "relative_budget": RELATIVE_BUDGET,
            "absolute_slack_s": ABSOLUTE_SLACK_S,
            "budget_s": round(budget_s, 4),
            "counters": len(bundle["metrics"]["counters"]),
            "histograms": len(bundle["metrics"]["histograms"]),
            "spans": len(bundle["spans"]),
        },
        timings=("baseline_s", "telemetry_s", "overhead_s", "budget_s"),
    )

    assert telemetry_s < budget_s, (
        f"instrumented sweep took {telemetry_s:.2f}s vs baseline "
        f"{baseline_s:.2f}s (budget {budget_s:.2f}s)"
    )
