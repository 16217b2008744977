"""Benchmark: regenerate the planner-in-the-loop autoscaling ablation.

Regenerates ``ablation_autoscale`` (OPT-6.7B / CXL-ASIC / helm under
a 10x diurnal swing) and asserts its headline result — the
deterministic autoscaler holds the interactive TTFT p99 within the
SLO while every static replica count either misses the SLO or spends
more GPU-seconds per generated token — plus the determinism and
clamp-inertness guards.  Records the per-arm numbers and the
regeneration time in ``BENCH_autoscale.json`` at the repo root,
rewriting it only when a value other than the time changed.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.experiments.ablation_autoscale import (
    SLO_TTFT_P99_S,
    STATIC_ARMS,
)
from repro.experiments.common import clear_cache
from repro.experiments.registry import run_experiment

from .record import write_report

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_autoscale.json"


def test_autoscale(benchmark):
    def job():
        clear_cache()
        return run_experiment("ablation_autoscale")

    started = time.perf_counter()
    result = benchmark.pedantic(job, rounds=1, iterations=1)
    elapsed_s = time.perf_counter() - started

    data = result.data
    checks = data["checks"]
    auto = data["autoscale"]
    assert all(checks.values()), checks
    # The cheapest static arm that meets the SLO must cost more than
    # the autoscaled fleet (the undersized arms miss it instead).
    feasible_costs = [
        data[f"static_{n}"]["gpu_seconds_per_token"]
        for n in STATIC_ARMS
        if data[f"static_{n}"]["meets_slo"]
    ]
    assert feasible_costs, "no static arm meets the SLO"
    assert min(feasible_costs) > auto["gpu_seconds_per_token"]

    write_report(
        BENCH_PATH,
        {
            "config": (
                "opt-6.7b / CXL-ASIC / helm, diurnal 0.4->4.0 "
                "rps over 240 s, interactive-only mix, "
                f"SLO: TTFT p99 <= {SLO_TTFT_P99_S:.0f} s"
            ),
            "elapsed_s": round(elapsed_s, 3),
            "autoscale": {
                "ttft_p99_s": round(auto["ttft_p99_s"], 4),
                "gpu_s_per_token": round(
                    auto["gpu_seconds_per_token"], 5
                ),
                "peak_replicas": auto["peak_replicas"],
                "final_replicas": auto["final_replicas"],
                "scaling_events": len(auto["scaling_events"]),
            },
            "static": {
                str(n): {
                    "ttft_p99_s": round(
                        data[f"static_{n}"]["ttft_p99_s"], 4
                    ),
                    "gpu_s_per_token": round(
                        data[f"static_{n}"]["gpu_seconds_per_token"],
                        5,
                    ),
                    "meets_slo": data[f"static_{n}"]["meets_slo"],
                }
                for n in STATIC_ARMS
            },
            "cost_saving_vs_cheapest_feasible_static": round(
                1.0
                - auto["gpu_seconds_per_token"] / min(feasible_costs),
                4,
            ),
            "checks": checks,
        },
    )
