"""Benchmark: static vs dynamic KV placement on the long-context trace.

Regenerates the ``ablation_kv`` experiment (OPT-175B / NVDRAM / HeLM,
bursty MMPP arrivals, lognormal prompts) and asserts its headline
result — the dynamic ``hotness`` policy beats the static split on p99
TTFT at equal tier capacity — then records the tail latencies and the
regeneration time in ``BENCH_kv.json`` at the repo root.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.experiments.common import clear_cache
from repro.experiments.registry import run_experiment

from .record import write_report

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_kv.json"


def test_kv_policies(benchmark):
    def job():
        clear_cache()
        return run_experiment("ablation_kv")

    started = time.perf_counter()
    result = benchmark.pedantic(job, rounds=1, iterations=1)
    elapsed_s = time.perf_counter() - started

    data = result.data
    assert data["checks"]["static_is_bit_identical_noop"]
    assert data["checks"]["dynamic_beats_static_p99_ttft"], (
        f"hotness p99 TTFT {data['hotness']['ttft_p99_s']:.1f}s is not "
        f"below static {data['static']['ttft_p99_s']:.1f}s"
    )

    write_report(
        BENCH_PATH,
        {
            "config": "opt-175b / NVDRAM / helm, bursty long-context",
            "elapsed_s": round(elapsed_s, 3),
            "policies": {
                label: {
                    "ttft_p99_s": round(data[label]["ttft_p99_s"], 2),
                    "tbt_p99_s": round(data[label]["tbt_p99_s"], 2),
                    "e2e_p99_s": round(data[label]["e2e_p99_s"], 2),
                    "migrations": data[label]["kv"]["migrations"],
                    "migration_bytes": data[label]["kv"][
                        "migration_bytes"
                    ],
                }
                for label in ("static", "hotness", "hotness-inclusive")
            },
            "checks": data["checks"],
        },
    )

    assert all(data["checks"].values()), data["checks"]
