"""Ablation: KV placement policies over the host-memory tiers.

``repro.kv`` turns the serving simulator's KV admission from a static
GPU-plan percentage split into a real per-(request, layer-range) tier
map over HBM / DRAM / NVDIMM / CXL / SSD.  This ablation pits the two
policy families against each other on the configuration where the
split matters most: OPT-175B under the HeLM placement, whose
GPU-resident weight shares leave almost no HBM for KV — the static
split therefore admits one sequence at a time and fully serializes a
long-context bursty (MMPP) trace.

The dynamic ``hotness`` policy overcommits admission into the host
tiers at *equal* tier capacity: surplus sequences keep their KV in
DRAM/NVDIMM and pay that tier's read bandwidth on every decode
iteration (priced through the same ``TransferPathSolver`` as every
other byte in the repo), while LRU demotion and passive promotion
shuttle the hot set into whatever HBM frees up.  Concurrency slashes
queueing delay — p99 TTFT and E2E drop severalfold — while the
honestly-priced slow-tier reads raise TBT: the paper's
latency/capacity trade, now visible inside a single placement.

The ``static`` row doubles as a live golden: its metrics must be
bit-identical to a run without ``repro.kv`` wired in at all.
"""

from __future__ import annotations

import os
from typing import Dict

from repro.analysis.reporting import Table
from repro.experiments.base import ExperimentResult
from repro.kv import HotnessKvPolicy
from repro.serve.simulator import simulate_serving
from repro.workloads.lengths import LengthDistribution

MODEL = "opt-175b"
HOST = "NVDRAM"
PLACEMENT = "helm"
RATE_RPS = 0.05
NUM_REQUESTS = 60
PROMPT_MEDIAN = 1024
GEN_LEN = 16
#: HeLM's GPU plan admits a single sequence; the dynamic policies
#: overcommit eightfold into the host tiers.
OVERCOMMIT = 8.0
SEED = 11


def _quick() -> bool:
    return os.environ.get("REPRO_QUICK", "") not in ("", "0")


def _policies():
    return (
        ("static", "static"),
        ("hotness", HotnessKvPolicy(overcommit=OVERCOMMIT)),
        (
            "hotness-inclusive",
            HotnessKvPolicy(
                name="hotness-inclusive",
                inclusive=True,
                overcommit=OVERCOMMIT,
            ),
        ),
    )


def _simulate(kv_policy, num_requests: int, gen_len: int):
    return simulate_serving(
        model=MODEL,
        host=HOST,
        placement=PLACEMENT,
        compress_weights=True,
        arrival="bursty",
        rate_rps=RATE_RPS,
        num_requests=num_requests,
        seed=SEED,
        prompt_lengths=LengthDistribution.lognormal(median=PROMPT_MEDIAN),
        gen_lengths=LengthDistribution.fixed(gen_len),
        kv_policy=kv_policy,
    )


def run() -> ExperimentResult:
    quick = _quick()
    num_requests = 16 if quick else NUM_REQUESTS
    gen_len = 8 if quick else GEN_LEN

    table = Table(
        title=(
            "Ablation: KV placement policy on a long-context MMPP trace "
            f"({MODEL.upper()}, {HOST}, {PLACEMENT}, lognormal prompts "
            f"median {PROMPT_MEDIAN}, equal tier capacity)"
        ),
        columns=(
            "policy", "admitted_batch", "ttft_p50_s", "ttft_p99_s",
            "tbt_p99_s", "e2e_p99_s", "goodput_rps", "migrations",
            "migrated_gib",
        ),
    )
    data: Dict[str, Dict] = {}
    for label, policy in _policies():
        result = _simulate(policy, num_requests, gen_len)
        metrics = result.metrics
        snapshot = result.setup["kv"]
        migrated_gib = snapshot["migration_bytes"] / (1 << 30)
        table.add_row(
            label,
            snapshot["admission_limit"] or result.setup["max_batch"],
            round(metrics.ttft.p50_s, 2),
            round(metrics.ttft.p99_s, 2),
            round(metrics.tbt.p99_s, 2),
            round(metrics.e2e.p99_s, 2),
            round(metrics.goodput_rps, 4),
            snapshot["migrations"],
            round(migrated_gib, 2),
        )
        flat = {
            key: value
            for key, value in metrics.summary().items()
            if not isinstance(value, dict)
        }
        flat["kv"] = snapshot
        data[label] = flat

    # The static policy must be a bit-identical no-op next to a run
    # with no KV manager at all — the subsystem's core golden.
    bare = _simulate(None, num_requests, gen_len)
    static = _simulate("static", num_requests, gen_len)
    data["checks"] = {
        "static_is_bit_identical_noop": (
            static.metrics.summary() == bare.metrics.summary()
        ),
        # Overcommitting KV into host tiers buys back concurrency the
        # GPU plan cannot: tail first-token and end-to-end latency
        # collapse at equal capacity ...
        "dynamic_beats_static_p99_ttft": (
            data["hotness"]["ttft_p99_s"] < data["static"]["ttft_p99_s"]
        ),
        "dynamic_beats_static_p99_e2e": (
            data["hotness"]["e2e_p99_s"] < data["static"]["e2e_p99_s"]
        ),
        # ... paid for honestly in slow-tier decode reads (TBT rises).
        "dynamic_pays_tbt_for_concurrency": (
            data["hotness"]["tbt_p99_s"] > data["static"]["tbt_p99_s"]
        ),
        # Inclusive shadows only ever cheapen demotion traffic.
        "inclusive_migrates_no_more_bytes": (
            data["hotness-inclusive"]["kv"]["migration_bytes"]
            <= data["hotness"]["kv"]["migration_bytes"]
        ),
    }
    return ExperimentResult(
        name="ablation_kv",
        description="KV tier placement policies under long-context load",
        tables=[table],
        data=data,
    )
