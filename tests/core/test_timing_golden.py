"""Golden: everything the timing executor emits, pinned scenario by scenario.

Each scenario runs one whole generation through
:class:`~repro.core.timing.TimingExecutor` (via
``OffloadEngine.run_timing`` with an enabled
:class:`~repro.telemetry.Telemetry`, or via ``EventBackend.run`` for
the serial counterfactual) and, where it says so, prices single
iterations through :class:`~repro.pricing.EventBackend`.  A
scenario's *payload* is every artifact those calls produce:

* ``token_times``, ``total_s`` and the per-(token, layer) records;
* the executed trace, record by record, in order;
* the ``run_timing`` telemetry (registry snapshot and span tree);
* the fault injector's RNG position and counters after the run;
* ``EventBackend`` nominal parts with the ``last_trace`` each leaves
  behind, and faulted parts at several virtual start times.

The golden file stores the sha256 of the payload's canonical JSON
plus a few readable headline numbers, so a change to the executor
that moves any float, any trace record, their order, or any RNG draw
fails here with the headline diff shown.

The matrix covers an SSD disk tier, compression on and off,
``overlap=False``, a degradation + transient fault schedule, a
zero-intensity schedule, a policy that keeps KV and hidden states on
the GPU next to ones that offload them, and an all-GPU placement
whose weight loads take zero time.

Regenerate only when a change is meant to move numbers::

    PYTHONPATH=src python tests/core/test_timing_golden.py --write
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.engine import OffloadEngine
from repro.core.metrics import Stage
from repro.core.policy import DISK_POLICY, Policy
from repro.devices.device import DeviceKind
from repro.faults.models import (
    DegradationWindow,
    FaultSchedule,
    TransientFaults,
)
from repro.pricing import EventBackend
from repro.telemetry import Telemetry

GOLDEN = Path(__file__).with_name("timing_golden.json")

#: Slows the host tier for a window inside the run and fails a few
#: percent of host and disk transfers, so retries draw from the RNG.
CHAOTIC = FaultSchedule(
    faults=(
        DegradationWindow(
            target="host", slowdown=6.0, start_s=0.05, duration_s=0.4
        ),
        TransientFaults(target="host", probability=0.05),
        TransientFaults(target="disk", probability=0.05),
    ),
    seed=11,
)
ZERO = FaultSchedule(faults=(), seed=11)

#: KV and hidden states offloaded to host memory: every layer gains a
#: store-back op on the ``d2h`` stream.
OFFLOAD_POLICY = Policy(
    gpu_percent=40,
    cpu_percent=60,
    disk_percent=0,
    kv_gpu_percent=50.0,
    num_gpu_batches=2,
    hidden_device=DeviceKind.CPU,
)
#: Host-resident cache share attended on the CPU.
CPU_ATTENTION_POLICY = Policy(
    gpu_percent=40,
    cpu_percent=60,
    disk_percent=0,
    kv_gpu_percent=0.0,
    cpu_attention=True,
)
#: Every weight on the GPU: the load ops all take zero time.
ALL_GPU_POLICY = Policy(gpu_percent=100, cpu_percent=0, disk_percent=0)


def _plain(value):
    if isinstance(value, enum.Enum):
        return value.value
    raise TypeError(f"not JSON-serializable: {value!r}")


def canonical(obj) -> str:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=_plain
    )


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def trace_dicts(trace):
    return [
        {
            "label": record.label,
            "stream": record.stream,
            "category": record.category,
            "start": record.start,
            "end": record.end,
            "meta": record.meta,
        }
        for record in trace.records
    ]


def metrics_dict(metrics):
    return {
        "token_times": metrics.token_times,
        "total_s": metrics.total_s,
        "records": [dataclasses.asdict(r) for r in metrics.records],
        "spill_log": list(metrics.spill_log),
    }


def headline(metrics, trace):
    return {
        "total_s": metrics.total_s,
        "ttft_s": metrics.token_times[0],
        "trace_records": len(trace.records),
    }


def timed_run(**engine_kwargs):
    """One ``run_timing`` call with an enabled telemetry."""
    engine = OffloadEngine(**engine_kwargs)
    telemetry = Telemetry.create()
    metrics = engine.run_timing(telemetry=telemetry)
    payload = {
        "metrics": metrics_dict(metrics),
        "trace": trace_dicts(engine.last_trace),
        "telemetry": {
            "registry": telemetry.registry.snapshot(),
            "spans": telemetry.tracer.to_dicts(),
        },
        "injector": (
            None
            if engine.injector is None
            else engine.injector.state_snapshot()
        ),
    }
    return engine, payload, headline(metrics, engine.last_trace)


def serial_run(**engine_kwargs):
    """The no-overlap counterfactual through ``EventBackend.run``."""
    engine = OffloadEngine(**engine_kwargs)
    spec = dataclasses.replace(engine.run_spec(), overlap=False)
    backend = EventBackend()
    metrics = backend.run(spec)
    trace = backend.executor(spec).trace
    payload = {
        "metrics": metrics_dict(metrics),
        "trace": trace_dicts(trace),
    }
    return payload, headline(metrics, trace)


def backend_parts(engine, nows=(0.0,)):
    """``EventBackend`` nominal parts (each with its ``last_trace``)
    and faulted parts at each virtual start time in ``nows``."""
    backend = EventBackend()
    out = []
    for overlap in (True, False):
        spec = dataclasses.replace(engine.run_spec(), overlap=overlap)
        for stage, context in (
            (Stage.PREFILL, spec.prompt_len),
            (Stage.DECODE, spec.prompt_len + 3),
        ):
            parts = backend.iteration_parts(spec, stage, context)
            out.append(
                {
                    "nominal": dataclasses.asdict(parts),
                    "last_trace": trace_dicts(backend.last_trace),
                }
            )
            for now in nows:
                faulted = backend.faulted_iteration_parts(
                    spec, stage, context, now=now
                )
                out.append({"now": now, **dataclasses.asdict(faulted)})
    if engine.injector is not None:
        out.append(engine.injector.state_snapshot())
    return out


def with_parts(nows=(0.0,), **engine_kwargs):
    engine, payload, head = timed_run(**engine_kwargs)
    payload["backend"] = backend_parts(engine, nows)
    return payload, head


OPT30B = dict(model="opt-30b", host="NVDRAM", batch_size=2, gen_len=5)

SCENARIOS = {
    "opt30b_helm_compressed": lambda: with_parts(
        placement="helm", compress_weights=True, **OPT30B
    ),
    "opt30b_baseline_uncompressed": lambda: with_parts(
        placement="baseline", compress_weights=False, **OPT30B
    ),
    "opt175b_allcpu_compressed": lambda: timed_run(
        model="opt-175b",
        host="NVDRAM",
        placement="allcpu",
        compress_weights=True,
        gen_len=3,
    )[1:],
    "opt30b_ssd_disk_tier": lambda: with_parts(
        host="SSD",
        model="opt-30b",
        placement="baseline",
        policy=DISK_POLICY,
        compress_weights=True,
        batch_size=2,
        gen_len=4,
    ),
    "opt30b_cxl_serial": lambda: serial_run(
        host="CXL-FPGA",
        model="opt-30b",
        placement="helm",
        compress_weights=True,
        batch_size=2,
        gen_len=4,
    ),
    "opt30b_ssd_serial": lambda: serial_run(
        host="SSD",
        model="opt-30b",
        placement="baseline",
        policy=DISK_POLICY,
        batch_size=1,
        gen_len=3,
    ),
    "faults_degradation_transient": lambda: with_parts(
        nows=(0.0, 0.1, 0.3),
        placement="helm",
        compress_weights=True,
        faults=CHAOTIC,
        **OPT30B,
    ),
    "faults_ssd_degradation_transient": lambda: with_parts(
        nows=(0.0, 0.2),
        host="SSD",
        model="opt-30b",
        placement="baseline",
        policy=DISK_POLICY,
        batch_size=2,
        gen_len=4,
        faults=CHAOTIC,
    ),
    "faults_zero_intensity": lambda: with_parts(
        placement="helm", compress_weights=True, faults=ZERO, **OPT30B
    ),
    "kv_hidden_offloaded": lambda: with_parts(
        placement="helm", policy=OFFLOAD_POLICY, **OPT30B
    ),
    "kv_hidden_offloaded_faults": lambda: with_parts(
        nows=(0.0, 0.2),
        placement="allcpu",
        policy=OFFLOAD_POLICY,
        faults=CHAOTIC,
        **OPT30B,
    ),
    "cpu_attention": lambda: with_parts(
        placement="baseline", policy=CPU_ATTENTION_POLICY, **OPT30B
    ),
    "all_gpu_zero_loads": lambda: with_parts(
        model="opt-1.3b",
        host="DRAM",
        placement="baseline",
        policy=ALL_GPU_POLICY,
        batch_size=4,
        gen_len=4,
    ),
}


def load_golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_scenario():
    assert sorted(load_golden()) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden(name):
    payload, head = SCENARIOS[name]()
    expected = load_golden()[name]
    assert head == expected["headline"]
    assert digest(payload) == expected["sha256"]


def test_matrix_reaches_its_branches():
    """The matrix exercises what it exists for: retries drawn from the
    RNG, store-back ops, disk-tier transfers and zero-time loads."""
    chaos, _ = SCENARIOS["faults_degradation_transient"]()
    stats = chaos["injector"]["stats"]
    assert stats["retried_transfers"] > 0
    assert stats["degraded_transfers"] > 0
    offload, _ = SCENARIOS["kv_hidden_offloaded"]()
    assert any(r["label"].startswith("store") for r in offload["trace"])
    zero, _ = SCENARIOS["all_gpu_zero_loads"]()
    loads = [r for r in zero["trace"] if r["label"].startswith("load")]
    assert loads and all(r["start"] == r["end"] for r in loads)
    ssd, _ = SCENARIOS["faults_ssd_degradation_transient"]()
    assert ssd["injector"]["stats"]["transfers"] > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    golden = {}
    for name, scenario in SCENARIOS.items():
        payload, head = scenario()
        golden[name] = {"headline": head, "sha256": digest(payload)}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
