"""Differential: the direct stream pass against a ``SimEngine`` replay.

:class:`~repro.core.timing.TimingExecutor` and
:class:`~repro.pricing.EventBackend` time Listing 1's streams in one
pass in program order (:class:`~repro.sim.streams.StreamTimeline`).
The oracle here issues the very same ops -- same streams, durations,
dependencies, labels and metadata -- to the heap-based
``SimEngine`` (``tests/sim/engine.py``) and executes them event by
event.  Fault-free runs must agree exactly: token times, total time, the
per-layer records, and the trace record for record, in order.

Hypothesis draws the configuration (model, host, placement, policy,
compression, overlap, shape).  A second family swaps the cost model
for small integer durations, zeros included, so that ops sharing a
start and an end -- ties in completion order -- are common.
"""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.engine import OffloadEngine
from repro.core.metrics import Stage
from repro.core.policy import DISK_POLICY, Policy
from repro.core.scheduler import zigzag_schedule
from repro.devices.device import DeviceKind
from repro.errors import CapacityError, ConfigurationError, SimulationError
from repro.models.weights import LayerKind
from repro.pricing import EventBackend, build_executor
from tests.sim.engine import SimEngine
from repro.sim.streams import StreamTimeline

POLICIES = {
    "default": None,
    "disk": DISK_POLICY,
    "offload": Policy(
        gpu_percent=40,
        cpu_percent=60,
        disk_percent=0,
        kv_gpu_percent=50.0,
        num_gpu_batches=2,
        hidden_device=DeviceKind.CPU,
    ),
    "cpu_attention": Policy(
        gpu_percent=40,
        cpu_percent=60,
        disk_percent=0,
        kv_gpu_percent=0.0,
        cpu_attention=True,
    ),
    "all_gpu": Policy(gpu_percent=100, cpu_percent=0, disk_percent=0),
}

configs = st.fixed_dictionaries(
    {
        "model": st.sampled_from(("opt-125m", "opt-1.3b", "opt-30b")),
        "host": st.sampled_from(
            ("DRAM", "NVDRAM", "MemoryMode", "SSD", "FSDAX", "CXL-FPGA")
        ),
        "placement": st.sampled_from(("baseline", "helm", "allcpu")),
        "policy": st.sampled_from(sorted(POLICIES)),
        "compress_weights": st.booleans(),
        "batch_size": st.integers(1, 4),
        "prompt_len": st.integers(1, 96),
        "gen_len": st.integers(1, 3),
    }
)


def build(config, overlap):
    # The disk policy needs a storage tier to stream from.
    assume(config["policy"] != "disk" or config["host"] in ("SSD", "FSDAX"))
    config = dict(config, policy=POLICIES[config["policy"]])
    try:
        engine = OffloadEngine(**config)
    except (CapacityError, ConfigurationError):
        assume(False)
    spec = dataclasses.replace(engine.run_spec(), overlap=overlap)
    return spec, build_executor(spec)


def engine_replay(executor):
    """The executor's ops, issued to a SimEngine and executed."""
    engine = SimEngine()
    h2d = engine.stream("h2d")
    compute = engine.stream("compute")
    d2h = engine.stream("d2h")
    layers = executor.placement.layers
    token_ops = []
    compute_ops = {}

    def stage_of(token):
        return Stage.PREFILL if token == 0 else Stage.DECODE

    def load(token, index, deps):
        stage = stage_of(token)
        kind = layers[index].kind
        extra = 0.0
        if kind is LayerKind.MHA:
            extra = executor.kv_traffic_times(
                stage, executor.prompt_len + token
            )[0]
        extra += executor._hidden_traffic_times(stage)[0]
        return h2d.enqueue(
            executor.layer_transfer_time(index) + extra,
            label=f"load t{token} L{index}",
            category="transfer",
            deps=deps,
            meta={
                "token": token,
                "layer": index,
                "kind": kind.value,
                "stage": stage.value,
            },
        )

    sync = [load(0, 0, ())]
    for step in zigzag_schedule(len(layers), executor.gen_len):
        token, index = step.token_index, step.layer_index
        stage = stage_of(token)
        layer = layers[index]
        context = executor.prompt_len + token
        prefetch = None
        if executor.overlap and step.prefetch is not None:
            prefetch = load(*step.prefetch, sync)
        op = compute.enqueue(
            executor.layer_compute_time(layer, stage, context),
            label=f"compute t{token} L{index}",
            category="compute",
            deps=sync,
            meta={
                "token": token,
                "layer": index,
                "kind": layer.kind.value,
                "stage": stage.value,
            },
        )
        compute_ops[token, index] = op
        sync = [op]
        store = executor._hidden_traffic_times(stage)[1]
        if layer.kind is LayerKind.MHA:
            store = executor.kv_traffic_times(stage, context)[1] + store
        if store > 0:
            sync.append(
                d2h.enqueue(
                    store,
                    label=f"store t{token} L{index}",
                    category="transfer",
                    deps=[op],
                    meta={"stage": stage.value, "kind": "writeback"},
                )
            )
        if layer.kind is LayerKind.HEAD:
            logits = d2h.enqueue(
                executor._logits_writeback_time(),
                label=f"logits t{token}",
                category="transfer",
                deps=[op],
                meta={"stage": stage.value, "kind": "logits"},
            )
            token_ops.append(logits)
            sync.append(logits)
        if not executor.overlap and step.prefetch is not None:
            prefetch = load(*step.prefetch, [op])
        if prefetch is not None:
            sync.append(prefetch)
    total = engine.run()
    return engine.trace, total, token_ops, compute_ops


def backend_replay(executor, stage, context):
    """``EventBackend``'s one-iteration ops, executed by a SimEngine."""
    engine = SimEngine()
    h2d = engine.stream("h2d")
    compute = engine.stream("compute")
    loads, computes = [], []
    for index, layer in enumerate(executor.placement.layers):
        load = h2d.enqueue(
            executor.layer_transfer_time(index),
            label=f"load L{index}",
            category="transfer",
            meta={"layer": index, "stage": stage.value},
        )
        kernel = compute.enqueue(
            executor.layer_compute_time(layer, stage, context),
            label=f"compute L{index}",
            category="compute",
            deps=[load],
            meta={"layer": index, "stage": stage.value},
        )
        loads.append(load.duration)
        computes.append(kernel.duration)
    engine.run()
    return engine.trace, tuple(loads), tuple(computes)


def assert_run_matches_engine(executor):
    metrics = executor.run()
    trace, total, token_ops, compute_ops = engine_replay(executor)
    assert executor.trace.records == trace.records
    assert metrics.total_s == total
    assert metrics.token_times == [op.end_time for op in token_ops]
    for record in metrics.records:
        op = compute_ops[record.token_index, record.layer_index]
        assert (record.start_s, record.end_s) == (op.start_time, op.end_time)
        assert record.compute_s == op.duration


def assert_backend_matches_engine(spec, executor):
    backend = EventBackend()
    backend._executors[spec] = executor
    for stage, context in (
        (Stage.PREFILL, spec.prompt_len),
        (Stage.DECODE, spec.prompt_len + spec.gen_len),
    ):
        parts = backend.iteration_parts(spec, stage, context)
        trace, loads, computes = backend_replay(executor, stage, context)
        assert backend.last_trace.records == trace.records
        assert (parts.transfers, parts.computes) == (loads, computes)
        # Without an injector the faulted pass is the nominal pass.
        faulted = backend.faulted_iteration_parts(spec, stage, context, 2.5)
        assert faulted.parts == parts
        assert (faulted.retried_layers, faulted.retry_overhead_s) == (0, 0.0)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(config=configs, overlap=st.booleans())
def test_direct_pass_matches_engine(config, overlap):
    spec, executor = build(config, overlap)
    assert_run_matches_engine(executor)
    assert_backend_matches_engine(spec, executor)


class TickCosts:
    """Drawn integer durations in place of the platform cost model, so
    ops often share a start and an end."""

    def __init__(self, draw):
        self._draw = draw
        self._memo = {}

    def __call__(self, *key):
        if key not in self._memo:
            self._memo[key] = float(self._draw(st.integers(0, 2)))
        return self._memo[key]

    def install(self, executor):
        executor.layer_transfer_time = lambda index: self("load", index)
        executor.layer_transfer_parts = lambda index: (
            self("load", index),
            0.0,
        )
        executor.layer_compute_time = lambda layer, stage, context: self(
            "compute", layer.index, stage, context
        )
        executor.kv_traffic_times = lambda stage, context: (
            self("kv_load", stage, context),
            self("kv_store", stage, context),
        )
        executor._hidden_traffic_times = lambda stage: (
            self("hidden_load", stage),
            self("hidden_store", stage),
        )
        executor._logits_writeback_time = lambda: self("logits")


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    model=st.sampled_from(("opt-tiny", "opt-mini")),
    overlap=st.booleans(),
    gen_len=st.integers(1, 3),
)
def test_ties_pop_in_engine_order(data, model, overlap, gen_len):
    config = dict(
        model=model,
        host="DRAM",
        placement="baseline",
        policy="default",
        compress_weights=False,
        batch_size=1,
        prompt_len=4,
        gen_len=gen_len,
    )
    spec, executor = build(config, overlap)
    TickCosts(data.draw).install(executor)
    assert_run_matches_engine(executor)
    assert_backend_matches_engine(spec, executor)


@pytest.mark.parametrize("bad", (-1.0, math.nan, math.inf))
def test_bad_op_duration_raises_naming_the_op(bad):
    spec = OffloadEngine(
        model="opt-125m", host="DRAM", placement="helm", gen_len=2
    ).run_spec()
    executor = build_executor(spec)
    nominal = executor.layer_compute_time

    def compute_time(layer, stage, context):
        if layer.index == 3 and stage is Stage.DECODE:
            return bad
        return nominal(layer, stage, context)

    executor.layer_compute_time = compute_time
    with pytest.raises(SimulationError, match="'compute t1 L3'"):
        executor.run()
    backend = EventBackend()
    backend._executors[spec] = executor
    with pytest.raises(SimulationError, match="'compute L3'"):
        backend.iteration_parts(spec, Stage.DECODE, 9)


@pytest.mark.parametrize("bad", (-0.5, math.nan, math.inf))
def test_timeline_rejects_bad_durations(bad):
    timeline = StreamTimeline()
    timeline.add("h2d", 1.0, "ok", "transfer", {})
    with pytest.raises(SimulationError, match="'bad op'"):
        timeline.add("h2d", bad, "bad op", "transfer", {})
    assert timeline.start("h2d") == 1.0


def test_no_runtime_path_loads_the_engine():
    """Whole runs, event pricing (nominal and faulted) and serving all
    run without ever importing the oracle, which the package does not
    ship; run from the repository root, where the oracle would import."""
    script = """
import importlib.util
import sys
assert importlib.util.find_spec("repro.sim.engine") is None
from repro.core.engine import OffloadEngine
from repro.core.metrics import Stage
from repro.faults.models import FaultSchedule, TransientFaults
from repro.pricing import EventBackend
from repro.serve.simulator import simulate_serving

faults = FaultSchedule(faults=(TransientFaults("host", probability=0.1),))
engine = OffloadEngine(model="opt-125m", host="DRAM", faults=faults)
engine.run_timing()
backend = EventBackend()
spec = engine.run_spec()
backend.iteration_parts(spec, Stage.DECODE, 140)
backend.faulted_iteration_parts(spec, Stage.DECODE, 140, now=1.0)
simulate_serving(model="opt-125m", host="DRAM", rate_rps=2.0, num_requests=5)
assert "tests.sim.engine" not in sys.modules, "the engine was imported"
"""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run(
        [sys.executable, "-c", script], check=True, env=env, cwd=root
    )
