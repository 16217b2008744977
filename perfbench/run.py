"""Serving benchmark: host time and virtual time, end to end and per layer.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

The program is a simulator with two clocks, and both are measured:

* **host time** — how fast the simulator itself runs: milliseconds
  per simulated request, the median over repeated passes of one
  seeded request stream (``host_ms_per_request``), and the cold-start
  time to a first result from a fresh interpreter, the median of
  several probes (``setup_s``).  Both are scaled to a reference speed
  measured next to them (see ``common.py``), so that the shared
  machine's own speed swings largely cancel;
* **virtual time** — what the simulated deployment delivers to its
  users: median time to first token, time between tokens and
  end-to-end latency over the stream (``ttft_p50_s``, ``tbt_p50_s``,
  ``e2e_p50_s``).  These are deterministic for a seed.

Each run builds its inputs from ``--seed`` (see ``workloads.py``),
simulates the stream once untimed, then repeats it for ``--seconds``.
Every pass is checked: each request is served exactly once and its
record agrees with its input and with itself, the program's own
sanitizer and router counts report nothing, and every pass replays
the first bit for bit.  A shed request counts as failed.

``--trace 1`` profiles the timed passes instead and reports per-layer
figures (see ``layers.py``): self time and function calls per request
for each layer, plus the counters that say what the layers did.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

from common import (
    ROOT,
    SRC,
    add_program_to_path,
    reference_loop,
    scaled,
)

#: Cold-start probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Timed passes per run, however short ``--seconds`` is.
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(count: int) -> float:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for q in (0.99, 0.95, 0.9):
        if count * (1.0 - q) >= 10:
            return q
    return 0.5


def check(outcome, specs) -> List[str]:
    """Everything wrong with one simulated pass, as readable lines."""
    problems = list(outcome.problems)
    by_id = {spec.request_id: spec for spec in specs}
    seen = set()
    for record in outcome.records:
        spec = by_id.get(record.request_id)
        where = f"request {record.request_id}"
        if spec is None or record.request_id in seen:
            problems.append(f"{where}: unknown or served twice")
            continue
        seen.add(record.request_id)
        if (
            record.arrival_s != spec.arrival_s
            or record.prompt_len != spec.prompt_len
            or record.gen_len != spec.gen_len
            or record.qos_class != spec.qos_class
        ):
            problems.append(f"{where}: record does not match its input")
        tolerance = 1e-9 * max(1.0, record.finished_s)
        if not (
            record.admitted_s >= record.arrival_s
            and record.ttft_s > 0.0
            and record.ttft_s >= record.wait_s
            and record.e2e_s >= record.ttft_s
            and record.tbt_s >= 0.0
            and (record.gen_len == 1 or record.tbt_s > 0.0)
            and abs(record.e2e_s - (record.finished_s - record.arrival_s))
            <= tolerance
            and abs(record.wait_s - (record.admitted_s - record.arrival_s))
            <= tolerance
        ):
            problems.append(f"{where}: inconsistent timestamps {record}")
    if len(seen) + outcome.shed != len(specs):
        problems.append(
            f"{len(seen)} served + {outcome.shed} shed != {len(specs)} sent"
        )
    return problems


def probe_setup(workload: str, seed: int) -> List[float]:
    """Scaled cold-start seconds of ``SETUP_PROBES`` fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable,
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: setup probe exited {done.returncode}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    add_program_to_path()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]

    setup = [] if args.trace else probe_setup(args.workload, args.seed)

    specs = workload.make_inputs(args.seed, workload.requests)
    reference = workload.run(specs)
    problems = check(reference, specs)

    profile = None
    if args.trace:
        from layers import LayerProfile

        profile = LayerProfile()
    # Each pass is timed between two runs of the reference loop, which
    # scale it to the reference speed.
    scaled_passes: List[float] = []
    loops = [reference_loop()]
    failed = 0
    deadline = time.perf_counter() + args.seconds
    while len(scaled_passes) < MIN_PASSES or time.perf_counter() < deadline:
        started = time.perf_counter()
        if profile is None:
            outcome = workload.run(specs)
        else:
            outcome = profile.call(workload.run, specs)
        elapsed = time.perf_counter() - started
        loops.append(reference_loop())
        scaled_passes.append(scaled(elapsed, loops[-2], loops[-1]))
        failed += len(specs) - len(outcome.records)
        if outcome.fingerprint != reference.fingerprint:
            problems.append(
                f"pass {len(scaled_passes)} did not replay the first"
            )
        problems.extend(check(outcome, specs))
    attempted = len(specs) * len(scaled_passes)

    records = reference.records
    ttft = [r.ttft_s for r in records]
    tbt = [r.tbt_s for r in records]
    e2e = [r.e2e_s for r in records]
    host_ms = [1e3 * seconds / len(specs) for seconds in scaled_passes]
    tail = tail_quantile(len(records))
    print(
        f"perfbench {args.workload} seed {args.seed}: {len(specs)} "
        f"requests x {len(scaled_passes)} passes; host ms/request "
        f"min {min(host_ms):.4f} median {statistics.median(host_ms):.4f} "
        f"max {max(host_ms):.4f}; reference loop median "
        f"{statistics.median(loops):.4f} s"
    )
    print(
        f"  virtual (n={len(records)}): ttft p50 {quantile(ttft, 0.5):.4f} "
        f"p{tail * 100:g} {quantile(ttft, tail):.4f} s; tbt p50 "
        f"{quantile(tbt, 0.5):.4f} p{tail * 100:g} {quantile(tbt, tail):.4f} "
        f"s; e2e p50 {quantile(e2e, 0.5):.4f} p{tail * 100:g} "
        f"{quantile(e2e, tail):.4f} s"
    )
    if setup:
        print(f"  setup probes (s): {[round(s, 4) for s in setup]}")
    for line in problems[:20]:
        print(f"  FAILED CHECK: {line}", file=sys.stderr)

    if profile is None:
        metrics = {
            "host_ms_per_request": (statistics.median(host_ms), "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "ttft_p50_s": (quantile(ttft, 0.5), "s"),
            "tbt_p50_s": (quantile(tbt, 0.5), "s"),
            "e2e_p50_s": (quantile(e2e, 0.5), "s"),
        }
    else:
        loop = statistics.median(loops)
        scale = scaled(1.0, loop, loop)
        metrics = layer_metrics(profile, reference, attempted, scale)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def layer_metrics(
    profile, reference, attempted: int, scale: float
) -> Dict[str, tuple]:
    """Per-layer figures of a profiled run, per simulated request."""
    from layers import LAYER_NAMES

    totals = profile.totals()
    metrics: Dict[str, tuple] = {}
    for name in LAYER_NAMES:
        self_ms = 1e3 * scale * totals[name]["self_s"] / attempted
        metrics[f"{name}_ms"] = (self_ms, "ms")
    for name in LAYER_NAMES:
        metrics[f"{name}_calls"] = (totals[name]["calls"] / attempted, "count")
    records = reference.records
    priced = reference.price_hits + reference.price_misses
    prefixed = reference.prefix_hits + reference.prefix_misses
    metrics.update(
        {
            "iterations_per_request": (
                reference.iterations / len(records),
                "count",
            ),
            "batch_mean": (reference.batched / reference.iterations, "count"),
            "price_cache_hit_rate": (
                reference.price_hits / priced if priced else 0.0,
                "ratio",
            ),
            "price_misses": (reference.price_misses, "count"),
            "prefix_hit_rate": (
                reference.prefix_hits / prefixed if prefixed else 0.0,
                "ratio",
            ),
            "kv_migrations": (reference.kv_migrations, "count"),
            "replans": (reference.replans, "count"),
            "queue_wait_mean_s": (
                statistics.fmean(r.wait_s for r in records),
                "s",
            ),
        }
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
