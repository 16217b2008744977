"""Benchmark: regenerate the fleet-routing ablation.

Regenerates ``ablation_fleet`` (OPT-6.7B / CXL-ASIC / helm, four
replicas behind each router, skewed multi-tenant MMPP stream with
long shared prompt prefixes) and asserts its headline result — the
prefix-affinity router keeps the per-replica prefix caches hot and
beats round-robin on p99 time-to-first-token — plus the refactor's
inertness guarantee (a 1-replica fleet is ``simulate_serving`` bit
for bit).  Records the router arms and the regeneration time in
``BENCH_fleet.json`` at the repo root, rewriting it only when a value
other than the time changed.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.experiments.common import clear_cache
from repro.experiments.registry import run_experiment

from .record import write_report

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

ROUTERS = ("round-robin", "least-loaded", "prefix-affinity")


def test_fleet(benchmark):
    def job():
        clear_cache()
        return run_experiment("ablation_fleet")

    started = time.perf_counter()
    result = benchmark.pedantic(job, rounds=1, iterations=1)
    elapsed_s = time.perf_counter() - started

    data = result.data
    checks = data["checks"]
    assert checks["single_replica_bit_identical"]
    affinity = data["prefix-affinity"]
    round_robin = data["round-robin"]
    assert checks["affinity_beats_round_robin_p99_ttft"], (
        f"prefix-affinity p99 TTFT {affinity['ttft_p99_s']:.3f}s vs "
        f"round-robin {round_robin['ttft_p99_s']:.3f}s"
    )

    write_report(
        BENCH_PATH,
        {
            "config": (
                "opt-6.7b / CXL-ASIC / helm, 4 replicas, bursty "
                "MMPP, 8 skewed shared-prefix tenants "
                "(1792/2048 prefix), per-replica prefix cache "
                "of 2 groups"
            ),
            "elapsed_s": round(elapsed_s, 3),
            "routers": {
                router: {
                    "ttft_p50_s": round(
                        data[router]["ttft_p50_s"], 4
                    ),
                    "ttft_p99_s": round(
                        data[router]["ttft_p99_s"], 4
                    ),
                    "hit_rate": round(data[router]["hit_rate"], 4),
                    "goodput_rps": round(
                        data[router]["goodput_rps"], 5
                    ),
                    "routed": data[router]["routed"],
                }
                for router in ROUTERS
            },
            "p99_ttft_speedup": round(
                round_robin["ttft_p99_s"] / affinity["ttft_p99_s"], 3
            ),
            "checks": checks,
        },
    )

    assert all(checks.values()), checks
