"""The three pinned serving workloads of the benchmark.

Each workload turns a seed into a request stream with the
benchmark's own RNG (so a change to the program's arrival generators
never changes the inputs), hands the stream to the program's public
entry point as a :class:`~repro.serve.TraceReplay`, and reduces the
result to the figures ``run.py`` reports and checks.

* ``serve`` — the paper's setting: one OPT-175B engine under the HeLM
  placement on Optane (NVDRAM) host memory, Poisson arrivals of
  lognormal-length prompts from an interactive and a batch tenant,
  with hotness KV tiering (demotions happen), the streaming SLO
  observer and the invariant sanitizer attached.  Exercises pricing,
  the scheduler, the KV manager and the instrumentation layers.
* ``fleet`` — four OPT-6.7B replicas on CXL-ASIC behind the
  prefix-affinity router, on/off bursty arrivals from twelve Zipf
  tenants whose prompts (up to 2048 tokens) share their first 1792,
  a two-entry prefix cache per replica.  Exercises routing and the
  prefix cache; bypasses KV tiering (static accounting only) and the
  planner.
* ``autoscale`` — an interactive OPT-6.7B fleet that the
  planner-in-the-loop controller grows and drains through a 10x
  diurnal swing.  Exercises the control plane (re-planning, replica
  add/drain); bypasses the prefix cache and KV tiering.

No workload sheds: every request is served, so a shed request is a
failure the benchmark counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.autoscale import AutoscalePolicy
from repro.core.qos import QosTarget
from repro.fleet import simulate_fleet
from repro.kv import HotnessKvPolicy
from repro.serve import TraceReplay, simulate_serving
from repro.serve.request import BATCH, INTERACTIVE, STANDARD, RequestSpec


@dataclass(frozen=True)
class Outcome:
    """One simulated run, reduced to what the benchmark inspects."""

    records: Tuple[object, ...]
    shed: int
    #: Prefill + decode iterations over every replica.
    iterations: int
    #: Requests in flight per iteration, summed over iterations.
    batched: int
    price_hits: int
    price_misses: int
    prefix_hits: int
    prefix_misses: int
    kv_migrations: int
    #: Autoscale controller decisions, each a capacity re-plan.
    replans: int
    #: Self-checks the program reported failing (sanitizer
    #: violations, router conservation), as readable strings.
    problems: Tuple[str, ...]
    #: Anything that must replay identically on a second pass.
    fingerprint: object


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int, int], Tuple[RequestSpec, ...]]
    run: Callable[[Sequence[RequestSpec]], Outcome]
    #: Requests per timed pass.
    requests: int


# -- arrival schedules (benchmark-owned, seeded) ------------------------


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniforms, one from each of ``n`` equal strata, shuffled.

    Pushed through an inverse CDF they give a sample whose empirical
    distribution barely moves between seeds while the order (which
    request is long, which gap is short) does: seed-to-seed spread in
    the figures then reflects the system, not sampling noise.
    """
    u = (rng.permutation(n) + rng.random(n)) / n
    return np.clip(u, 1e-9, 1.0 - 1e-9)


def _poisson(rng: np.random.Generator, n: int, rate: float) -> List[float]:
    gaps = -np.log1p(-_stratified(rng, n)) / rate
    return np.cumsum(gaps).tolist()


def _lognormal(
    rng: np.random.Generator, n: int, median: float, sigma: float
) -> np.ndarray:
    normal = NormalDist()
    z = np.asarray([normal.inv_cdf(u) for u in _stratified(rng, n)])
    return median * np.exp(sigma * z)


def _on_off(
    rng: np.random.Generator,
    n: int,
    base: float,
    burst: float,
    base_s: float,
    burst_s: float,
) -> List[float]:
    """Poisson arrivals modulated by fixed quiet/burst phases.

    An MMPP with fixed sojourns: the share of traffic that lands in
    bursts stays put from seed to seed, while which requests collide
    in a burst does not.
    """
    times: List[float] = []
    phase_start, bursting = 0.0, False
    clock = 0.0
    while len(times) < n:
        rate, length = (burst, burst_s) if bursting else (base, base_s)
        phase_end = phase_start + length
        while len(times) < n:
            clock += rng.exponential(1.0 / rate)
            if clock >= phase_end:
                break
            times.append(clock)
        phase_start, bursting = phase_end, not bursting
        clock = phase_start
    return times


def _uniform_ints(
    rng: np.random.Generator, n: int, low: int, high: int
) -> np.ndarray:
    """Stratified integers in ``[low, high]``."""
    return low + np.floor(_stratified(rng, n) * (high - low + 1)).astype(int)


def _diurnal(
    rng: np.random.Generator, n: int, base: float, peak: float, period_s: float
) -> List[float]:
    """Sinusoidal trough-to-peak arrivals, sampled by thinning."""
    times: List[float] = []
    now = 0.0
    while len(times) < n:
        now += rng.exponential(1.0 / peak)
        swing = (1.0 - math.cos(2.0 * math.pi * now / period_s)) / 2.0
        rate = base + (peak - base) * swing
        if rng.random() * peak <= rate:
            times.append(now)
    return times


# -- reductions -------------------------------------------------------------


def _serving_counts(result) -> Dict[str, int]:
    """Per-engine counters of one :class:`~repro.serve.ServingResult`."""
    setup = result.setup
    cache = setup.get("price_cache") or {}
    prefix = setup.get("prefix_cache") or {}
    return {
        "iterations": setup["prefill_iterations"] + setup["decode_iterations"],
        "batched": sum(sample.batch for sample in result.timeline),
        "price_hits": cache.get("hits", 0),
        "price_misses": cache.get("misses", 0),
        "prefix_hits": prefix.get("hits", 0),
        "prefix_misses": prefix.get("misses", 0),
        "kv_migrations": (setup.get("kv") or {}).get("migrations", 0),
    }


def _sanitizer_problems(result) -> List[str]:
    report = result.setup.get("sanitize")
    if report is None:
        return []
    return [
        f"sanitizer {v['check']} at boundary {v['boundary']}: {v['detail']}"
        for v in report["violations"]
    ]


def _fleet_outcome(fleet, specs, replans: int) -> Outcome:
    totals: Dict[str, int] = {}
    problems: List[str] = []
    for replica in fleet.replicas:
        for key, value in _serving_counts(replica.result).items():
            totals[key] = totals.get(key, 0) + value
        problems.extend(_sanitizer_problems(replica.result))
    routed = sum(replica.routed for replica in fleet.replicas)
    if routed != len(specs) or len(fleet.assignments) != len(specs):
        problems.append(
            f"router placed {routed} of {len(specs)} requests "
            f"({len(fleet.assignments)} assignments)"
        )
    records = fleet.records
    return Outcome(
        records=records,
        shed=fleet.metrics["shed_requests"],
        replans=replans,
        problems=tuple(problems),
        fingerprint=(records, tuple(sorted(fleet.assignments.items()))),
        **totals,
    )


# -- serve: one OPT-175B engine, the paper's setting -----------------------

SERVE_RATE_RPS = 0.03
SERVE_CLASSES = ((INTERACTIVE, 0.3), (BATCH, 0.7))


def serve_inputs(seed: int, n: int) -> Tuple[RequestSpec, ...]:
    rng = np.random.default_rng(seed)
    times = _poisson(rng, n, SERVE_RATE_RPS)
    prompts = np.clip(np.round(_lognormal(rng, n, 1024.0, 0.6)), 64, 1900)
    interactive = _stratified(rng, n) < SERVE_CLASSES[0][1]
    return tuple(
        RequestSpec(
            request_id=i,
            arrival_s=times[i],
            prompt_len=int(prompts[i]),
            gen_len=16,
            qos_class=(INTERACTIVE if interactive[i] else BATCH).name,
        )
        for i in range(n)
    )


def serve_run(specs: Sequence[RequestSpec]) -> Outcome:
    result = simulate_serving(
        model="opt-175b",
        host="NVDRAM",
        placement="helm",
        arrival=TraceReplay(tuple(specs)),
        num_requests=len(specs),
        class_mix=SERVE_CLASSES,
        kv_policy=HotnessKvPolicy(overcommit=8.0),
        slo=True,
        sanitize=True,
    )
    records = result.records
    return Outcome(
        records=records,
        shed=len(result.shed),
        replans=0,
        problems=tuple(_sanitizer_problems(result)),
        fingerprint=(records, result.shed),
        **_serving_counts(result),
    )


# -- fleet: prefix-affinity routing over shared-prefix tenants -----------

FLEET_REPLICAS = 4
FLEET_TENANTS = 12
#: Prompts are up to 2048 tokens, the first 1792 shared per tenant.
FLEET_PROMPT = 2048
FLEET_PREFIX = 1792


def fleet_inputs(seed: int, n: int) -> Tuple[RequestSpec, ...]:
    rng = np.random.default_rng(seed)
    times = _on_off(rng, n, 0.8, 4.0, 50.0, 10.0)
    weights = np.asarray(
        [1.0 / (rank + 1.0) for rank in range(FLEET_TENANTS)]
    )
    tenants = np.searchsorted(
        np.cumsum(weights / weights.sum()), _stratified(rng, n)
    ).clip(0, FLEET_TENANTS - 1)
    prompts = _uniform_ints(rng, n, FLEET_PREFIX + 64, FLEET_PROMPT)
    gens = _uniform_ints(rng, n, 8, 32)
    return tuple(
        RequestSpec(
            request_id=i,
            arrival_s=times[i],
            prompt_len=int(prompts[i]),
            gen_len=int(gens[i]),
            qos_class=STANDARD.name,
            prefix_group=f"tenant-{int(tenants[i])}",
            prefix_len=FLEET_PREFIX,
        )
        for i in range(n)
    )


def fleet_run(specs: Sequence[RequestSpec]) -> Outcome:
    fleet = simulate_fleet(
        model="opt-6.7b",
        host="CXL-ASIC",
        placement="helm",
        arrival=TraceReplay(tuple(specs)),
        num_requests=len(specs),
        max_batch=16,
        replicas=FLEET_REPLICAS,
        router="prefix-affinity",
        prefix_cache_size=2,
        kv_policy="static",
    )
    return _fleet_outcome(fleet, specs, replans=0)


# -- autoscale: planner in the loop through a 10x diurnal swing ----------

#: Generous headroom and slow drains keep the controller ahead of the
#: ramp on every seed; a tighter policy lets some seeds lag into
#: queueing and others not, which makes the medians bimodal.
AUTOSCALE_POLICY = AutoscalePolicy(
    interval_s=10.0,
    cooldown_s=10.0,
    min_replicas=1,
    max_replicas=4,
    scale_down_periods=4,
    headroom=2.0,
)


def autoscale_inputs(seed: int, n: int) -> Tuple[RequestSpec, ...]:
    rng = np.random.default_rng(seed)
    times = _diurnal(rng, n, 0.4, 4.0, 240.0)
    prompts = _uniform_ints(rng, n, 64, 256)
    gens = _uniform_ints(rng, n, 8, 24)
    return tuple(
        RequestSpec(
            request_id=i,
            arrival_s=times[i],
            prompt_len=int(prompts[i]),
            gen_len=int(gens[i]),
            qos_class=INTERACTIVE.name,
        )
        for i in range(n)
    )


def autoscale_run(specs: Sequence[RequestSpec]) -> Outcome:
    fleet = simulate_fleet(
        model="opt-6.7b",
        host="CXL-ASIC",
        placement="helm",
        arrival=TraceReplay(tuple(specs)),
        num_requests=len(specs),
        class_mix=((INTERACTIVE, 1.0),),
        max_batch=4,
        replicas=1,
        kv_policy="static",
        autoscale=AUTOSCALE_POLICY,
        autoscale_target=QosTarget(max_ttft_s=2.0),
    )
    scaling = fleet.metrics["autoscale"]
    outcome = _fleet_outcome(fleet, specs, replans=len(scaling["decisions"]))
    return replace(
        outcome, fingerprint=(outcome.fingerprint, scaling["decisions"])
    )


WORKLOADS: Dict[str, Workload] = {
    "serve": Workload(serve_inputs, serve_run, requests=300),
    "fleet": Workload(fleet_inputs, fleet_run, requests=1000),
    "autoscale": Workload(autoscale_inputs, autoscale_run, requests=1200),
}
