"""Benchmark: regenerate the structural tier-loss ablation.

Regenerates ``ablation_chaos`` (OPT-175B / DRAM+SSD / All-CPU,
long-context interactive wave overcommitted onto the SSD tier, SSD
dies mid-drain) and asserts its headline result — the KV rescue path
preserves the client-perceived interactive p99 TTFT through the loss
while the shed-only baseline collapses it — then records the arms
and the regeneration time in ``BENCH_chaos.json`` at the repo root.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.experiments.common import clear_cache
from repro.experiments.registry import run_experiment

from .record import write_report

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"

ARMS = ("baseline", "tier_loss/rescue", "tier_loss/shed")


def test_chaos(benchmark):
    def job():
        clear_cache()
        return run_experiment("ablation_chaos")

    started = time.perf_counter()
    result = benchmark.pedantic(job, rounds=1, iterations=1)
    elapsed_s = time.perf_counter() - started

    data = result.data
    checks = data["checks"]
    assert checks["zero_chaos_identical"]
    assert checks["deterministic_replay"]
    assert checks["sanitized_identical_and_clean"]
    rescue = data["tier_loss/rescue"]
    shed = data["tier_loss/shed"]
    assert checks["rescue_preserves_perceived_ttft"], (
        f"rescue perceived p99 TTFT {rescue['perceived_ttft_p99_s']:.0f}s "
        f"vs shed-only {shed['perceived_ttft_p99_s']:.0f}s "
        f"(baseline {data['baseline']['perceived_ttft_p99_s']:.0f}s)"
    )

    write_report(
        BENCH_PATH,
        {
            "config": (
                "opt-175b / SSD host config / allcpu, interactive "
                "long-context wave + batch trickle, SSD TierLoss "
                "mid-drain"
            ),
            "elapsed_s": round(elapsed_s, 3),
            "arms": {
                label: {
                    "perceived_ttft_p99_s": round(
                        data[label]["perceived_ttft_p99_s"], 2
                    ),
                    "interactive_slo": round(
                        data[label]["interactive_slo"], 4
                    ),
                    "rescued_requests": data[label]["rescued_requests"],
                    "shed": data[label]["shed"],
                    "client_retries": data[label]["client_retries"],
                    "goodput_rps": round(
                        data[label]["goodput_rps"], 5
                    ),
                }
                for label in ARMS
            },
            "sanitize": {
                "boundaries": data["sanitize"]["boundaries"],
                "violations": len(data["sanitize"]["violations"]),
            },
            "checks": checks,
        },
    )

    assert all(checks.values()), checks
