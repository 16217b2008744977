"""Serve takes decode runs: the per-iteration layers act inside a run.

A decode run commits several iterations over an unchanged batch in
one step.  Three layers act at every iteration or boundary, and each
acts per iteration inside the run:

* a dynamic KV policy pays its reads, drained demotions and
  promotions in the run's first iteration and only reads after it;
* the SLO observer sees every iteration end and every inner
  boundary;
* the sanitizer checks every inner boundary.

These tests run the paper's setting (OPT-175B, HeLM on NVDRAM) as
shipped and with every run one iteration long (the per-iteration
loop), and pin that everything the run leaves behind agrees:
records, sheds, timeline, trace records, span dicts, registry
snapshots, SLO alert edges with their times, the sanitizer report
byte for byte, the KV snapshot, migrations and last-touch times, the
price-cache counters and the boundary count.

Two edges are pinned on their own.  A KV-accounting fault planted in
a run's first iteration is reported at the same boundary either way
(one planted while a later iteration is priced is reported sooner,
since a run is priced before it is committed).  And a run ends after
its first iteration when that iteration moved KV while a request
waits below the batch limit: the waiting head's admission is retried
at every boundary, and it may go differently once the tier map
changed.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import json
import math
import sys
from pathlib import Path
from typing import List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import SanitizerHarness
from repro.errors import SanitizerError
from repro.fleet.replica import ReplicaConfig, ReplicaPlan
from repro.kv import HotnessKvPolicy, KvCacheManager
from repro.kv.pricing import KvPricer
from repro.kv.tiers import KvTierTopology
from repro.obs import ServeObserver
from repro.serve import TraceReplay, simulate_serving
from repro.serve.request import BATCH, INTERACTIVE, STANDARD, RequestSpec
from repro.serve.scheduler import ContinuousBatchingScheduler, _ServingLoop
from repro.serve.simulator import resolve_slo
from repro.telemetry import Telemetry
from repro.workloads.lengths import LengthDistribution

CLASS_MIX = ((INTERACTIVE, 0.3), (BATCH, 0.7))
PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench" / "workloads.py"


def perfbench_serve_inputs(requests: int):
    """The first ``requests`` of the benchmark's seed-11 serve stream."""
    name = "perfbench_workloads"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH)
        module = importlib.util.module_from_spec(spec)
        # Its dataclasses resolve their module through sys.modules.
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module.serve_inputs(11, 300)[:requests]


# -- the two ways to run -----------------------------------------------------


def one_iteration_runs(patch) -> None:
    """Every decode run is one iteration: the per-iteration loop."""
    patch.setattr(_ServingLoop, "runs_allowed", lambda self: False)


def probe_pass(patch, probes: List[dict]) -> None:
    """Record what a pass leaves in its layers as it ends, and the
    last-touch times every admission that placed or moved KV saw (a
    pass releases every request's, so only these show them)."""
    finalize = _ServingLoop.finalize
    try_admit = KvCacheManager.try_admit
    admissions: List[tuple] = []

    def admitting(self, spec, now):
        touched = dict(self._last_touch)
        moved = len(self.migrations)
        admitted, surcharge = try_admit(self, spec, now)
        if admitted or len(self.migrations) > moved:
            admissions.append((spec.request_id, now, admitted, touched))
        return admitted, surcharge

    def probed(self):
        run = finalize(self)
        kv, observer = self.kv, self.observer
        probes.append(
            {
                "boundary": self.state.boundary,
                "migrations": list(kv.migrations) if kv else None,
                "last_touch": dict(kv._last_touch) if kv else None,
                "admissions": list(admissions),
                "alerts": (
                    list(observer.slo.alerts)
                    if observer is not None and observer.slo is not None
                    else None
                ),
            }
        )
        return run

    patch.setattr(KvCacheManager, "try_admit", admitting)
    patch.setattr(_ServingLoop, "finalize", probed)


def count_commits(patch, commits: List[int]) -> None:
    """Record the length of every committed run."""
    commit = _ServingLoop.commit

    def counted(self, kind, now, durations, *args):
        commits.append(len(durations))
        commit(self, kind, now, durations, *args)

    patch.setattr(_ServingLoop, "commit", counted)


def kv_policy(params):
    if params["kv"] == "static":
        return "static"
    return HotnessKvPolicy(
        name=params["kv"],
        inclusive=params["kv"] == "hotness-inclusive",
        overcommit=params["overcommit"],
    )


def sanitizer(mode):
    if mode == "off":
        return False
    return SanitizerHarness(strict=mode == "strict")


def serve(params, *patches) -> dict:
    """One pass, reduced to everything the two ways must agree on."""
    probes: List[dict] = []
    telemetry = Telemetry.create()
    if params["inputs"] == "perfbench":
        stream = dict(arrival=TraceReplay(perfbench_serve_inputs(60)))
    else:
        stream = dict(
            arrival="poisson",
            rate_rps=params["rate_rps"],
            seed=params["seed"],
            prompt_lengths=LengthDistribution.lognormal(median=1024),
            gen_lengths=LengthDistribution.uniform(1, params["gen_len"]),
        )
    with pytest.MonkeyPatch.context() as patch:
        probe_pass(patch, probes)
        for apply in patches:
            apply(patch)
        result = simulate_serving(
            model="opt-175b",
            host="NVDRAM",
            placement="helm",
            num_requests=params["requests"],
            class_mix=CLASS_MIX,
            max_batch=params["max_batch"],
            kv_policy=kv_policy(params),
            slo=params["slo"],
            sanitize=sanitizer(params["sanitize"]),
            telemetry=telemetry,
            **stream,
        )
    setup = dict(result.setup)
    report = setup.pop("sanitize", None)
    (probe,) = probes
    return {
        "records": result.records,
        "shed": result.shed,
        "timeline": result.timeline,
        "trace": result.trace.records,
        "spans": telemetry.tracer.to_dicts(),
        "registry": telemetry.registry.snapshot(),
        "setup": setup,
        "sanitizer": (
            json.dumps(report, sort_keys=True).encode()
            if report is not None
            else None
        ),
        **probe,
    }


def check(params) -> dict:
    shipped = serve(params)
    baseline = serve(params, one_iteration_runs)
    assert shipped.keys() == baseline.keys()
    for key in shipped:
        assert shipped[key] == baseline[key], key
    return shipped


PERFBENCH_SLICE = dict(
    inputs="perfbench", requests=60, kv="hotness", overcommit=8.0,
    slo=True, sanitize="strict", max_batch=None,
)
DRAWN = dict(
    inputs="drawn", requests=24, kv="hotness", overcommit=2.0, slo=True,
    sanitize="lenient", max_batch=None, rate_rps=0.1, gen_len=24, seed=3,
)

serves = st.fixed_dictionaries(
    {
        "inputs": st.just("drawn"),
        "requests": st.integers(8, 30),
        "kv": st.sampled_from(("static", "hotness", "hotness-inclusive")),
        "overcommit": st.sampled_from((1.0, 2.0, 8.0)),
        "slo": st.booleans(),
        "sanitize": st.sampled_from(("off", "strict", "lenient")),
        "max_batch": st.sampled_from((None, 2, 4, 8)),
        "rate_rps": st.sampled_from((0.02, 0.05, 0.2)),
        "gen_len": st.sampled_from((1, 4, 16, 40)),
        "seed": st.integers(0, 2**16),
    }
)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(params=serves)
@example(params=PERFBENCH_SLICE)
@example(params={**PERFBENCH_SLICE, "kv": "hotness-inclusive"})
@example(params={**PERFBENCH_SLICE, "sanitize": "off", "slo": False})
@example(params=DRAWN)
@example(params={**DRAWN, "max_batch": 2, "rate_rps": 0.2})
@example(params={**DRAWN, "kv": "static", "sanitize": "strict"})
def test_serve_runs_match_the_per_iteration_loop(params):
    check(params)


def test_serve_takes_decode_runs():
    """The paper's setting commits its decodes in runs: the same
    pass, in fewer commits than iterations."""
    shipped: List[int] = []
    baseline: List[int] = []
    ours = serve(
        PERFBENCH_SLICE, functools.partial(count_commits, commits=shipped)
    )
    theirs = serve(
        PERFBENCH_SLICE,
        functools.partial(count_commits, commits=baseline),
        one_iteration_runs,
    )
    assert ours["timeline"] == theirs["timeline"]
    assert sum(shipped) == len(baseline) == len(ours["timeline"])
    assert set(baseline) == {1}
    assert len(shipped) < len(baseline) / 2


# -- a fault planted inside a run ------------------------------------------


FAULTED = dict(PERFBENCH_SLICE, sanitize="lenient")


def survey_reads(patch, reads: List[bool], runs: List[tuple]) -> None:
    """Record, per slow-tier read priced, whether a run's first
    iteration priced it, and per committed run its length and the
    reads priced by then."""
    on_decode = KvCacheManager.on_decode
    read_time = KvPricer.read_time
    commit = _ServingLoop.commit
    first = [False]

    def marked(self, running, now):
        first[0] = True
        try:
            return on_decode(self, running, now)
        finally:
            first[0] = False

    def counted(self, budget, nbytes):
        reads.append(first[0])
        return read_time(self, budget, nbytes)

    def committed(self, kind, now, durations, *args):
        runs.append((len(durations), len(reads)))
        commit(self, kind, now, durations, *args)

    patch.setattr(KvCacheManager, "on_decode", marked)
    patch.setattr(KvPricer, "read_time", counted)
    patch.setattr(_ServingLoop, "commit", committed)


def reads_inside_runs(first: bool) -> int:
    """A slow-tier read (1-based) priced inside a run of several
    iterations, from the middle of the pass: one its first iteration
    priced (``first``), or one a later iteration priced."""
    reads: List[bool] = []
    runs: List[tuple] = []
    serve(FAULTED, functools.partial(survey_reads, reads=reads, runs=runs))
    candidates = []
    done = 0
    for length, upto in runs:
        if length > 1:
            candidates.extend(
                index + 1
                for index in range(done, upto)
                if reads[index] == first
            )
        done = upto
    assert candidates
    return candidates[len(candidates) // 2]


def plant_fault(patch, at_read: int) -> None:
    """Skew the read tier's byte counter by one byte as the
    ``at_read``-th slow-tier read is priced.  Either way, each decode
    iteration that reads KV prices one read, in the same order."""
    managers: List[KvCacheManager] = []
    bind_run = KvCacheManager.bind_run
    read_time = KvPricer.read_time
    seen = [0]

    def bound(self, tracer, run_span):
        managers.append(self)
        bind_run(self, tracer, run_span)

    def faulty(self, budget, nbytes):
        seen[0] += 1
        if seen[0] == at_read:
            managers[-1].tiermap._used[budget.name] += 1
        return read_time(self, budget, nbytes)

    patch.setattr(KvCacheManager, "bind_run", bound)
    patch.setattr(KvPricer, "read_time", faulty)


def report(params, *patches) -> dict:
    return json.loads(serve(params, *patches)["sanitizer"])


class TestFaultInsideARun:
    """A fault planted as a run's first iteration prices its reads
    lands before the run's first inner boundary, as it lands before
    the next boundary in the per-iteration loop."""

    def test_lenient_reports_it_at_the_same_boundary(self):
        plant = functools.partial(
            plant_fault, at_read=reads_inside_runs(first=True)
        )
        shipped = report(FAULTED, plant)
        baseline = report(FAULTED, plant, one_iteration_runs)
        assert shipped["violations"][0]["check"] == "kv_accounting"
        # Every later boundary reports it again, the same way.
        assert shipped == baseline

    def test_strict_raises_at_that_boundary(self):
        plant = functools.partial(
            plant_fault, at_read=reads_inside_runs(first=True)
        )
        (expected, *_) = report(FAULTED, plant)["violations"]
        strict = dict(FAULTED, sanitize="strict")
        for patches in ((plant,), (plant, one_iteration_runs)):
            with pytest.raises(SanitizerError) as raised:
                serve(strict, *patches)
            assert raised.value.check == "kv_accounting"
            assert raised.value.boundary == expected["boundary"]

    def test_a_later_iteration_s_fault_is_reported_no_later(self):
        """A run prices all its iterations before it commits them, so
        a fault planted by a later iteration's read pricing is in
        place at the run's first inner boundary: reported sooner than
        the per-iteration loop reports it, never later."""
        plant = functools.partial(
            plant_fault, at_read=reads_inside_runs(first=False)
        )
        (shipped, *_) = report(FAULTED, plant)["violations"]
        (baseline, *_) = report(
            FAULTED, plant, one_iteration_runs
        )["violations"]
        assert shipped["check"] == baseline["check"] == "kv_accounting"
        assert shipped["boundary"] < baseline["boundary"]


# -- the admission-retry cut -----------------------------------------------


#: Half the HBM KV budget and about 6.3 GB of Optane for KV: request 0
#: (1,371 tokens) fits only partly in HBM, and request 1 then waits
#: KV-blocked below the batch limit while request 0 decodes.
CUT_TOPOLOGY = (467_154_585, 6_344_717_851)
CUT_SPECS = tuple(
    RequestSpec(
        request_id=i, arrival_s=arrival_s, prompt_len=prompt_len,
        gen_len=gen_len,
    )
    for i, (arrival_s, prompt_len, gen_len) in enumerate(
        ((0.0, 1361, 10), (16.9, 139, 16), (18.6, 1273, 11))
    )
)


def cut_pass(*patches):
    """The capacity-bound pass, its probe (see :func:`probe_pass`), its
    sanitizer report, and per priced run whether the admission-retry
    cut ended it."""
    plan = ReplicaPlan.build(
        ReplicaConfig(model="opt-175b", host="NVDRAM", placement="helm")
    )
    topology = KvTierTopology(
        budgets=tuple(
            dataclasses.replace(budget, capacity_bytes=capacity)
            for budget, capacity in zip(
                plan.kv_topology.budgets, CUT_TOPOLOGY
            )
        )
    )
    kv = KvCacheManager(
        plan.engine,
        HotnessKvPolicy(overcommit=8.0),
        topology=topology,
        backend=plan.backend,
    )
    classes = (STANDARD,)
    scheduler = ContinuousBatchingScheduler(
        plan.cost_model(),
        classes,
        kv=kv,
        sanitizer=SanitizerHarness(),
        observer=ServeObserver(
            spec=resolve_slo(True, tuple((qos, 1.0) for qos in classes))
        ),
        telemetry=Telemetry.create(),
    )
    probes: List[dict] = []
    cuts: List[bool] = []
    decode_run = _ServingLoop.decode_run

    def watched(self, now, batch, tokens, first=None):
        migrations = len(kv.migrations)
        durations = decode_run(self, now, batch, tokens, first)
        state = self.state
        remaining = min(r.spec.gen_len - r.tokens_done for r in batch)
        arrival = math.inf
        if state.next_arrival < len(state.pending):
            arrival = state.pending[state.next_arrival].arrival_s
        # One iteration that moved KV, while the run could have gone
        # on: no request finished and nothing arrived.
        cuts.append(
            len(durations) == 1
            and len(kv.migrations) > migrations
            and remaining > 1
            and now + durations[0] < arrival
        )
        return durations

    with pytest.MonkeyPatch.context() as patch:
        probe_pass(patch, probes)
        patch.setattr(_ServingLoop, "decode_run", watched)
        for apply in patches:
            apply(patch)
        result = scheduler.run(CUT_SPECS)
    return result, probes, scheduler.sanitizer.report(), cuts


def test_failed_admission_charges_its_demotions():
    """A retry that demotes and then fails on fragmentation keeps its
    demotions; their time is pending for the next decode iteration,
    as every other migration's is."""
    charged = []
    try_admit = KvCacheManager.try_admit

    def admitting(self, spec, now):
        moved, pending = len(self.migrations), self._pending_s
        admitted, surcharge = try_admit(self, spec, now)
        if not admitted and len(self.migrations) > moved:
            demoted = sum(m.duration_s for m in self.migrations[moved:])
            charged.append((demoted, self._pending_s - pending))
        return admitted, surcharge

    cut_pass(
        lambda patch: patch.setattr(KvCacheManager, "try_admit", admitting)
    )
    assert charged
    for demoted, pending in charged:
        assert demoted > 0.0
        assert pending == pytest.approx(demoted)


def test_admission_retry_cut_ends_a_run_that_moved_kv():
    """While request 1 waits, each boundary retries its admission:
    the retry demotes request 0's HBM extent, then fails on block
    fragmentation and undoes only its own placement; the next decode
    promotes the extent back.  A run past that first iteration would
    skip the retries (and their migrations) the per-iteration loop
    makes, so the cut ends it there."""
    shipped, probes, sanitized, cuts = cut_pass()
    baseline, base_probes, base_sanitized, base_cuts = cut_pass(
        one_iteration_runs
    )
    assert shipped.records == baseline.records
    assert shipped.timeline == baseline.timeline
    assert shipped.trace.records == baseline.trace.records
    assert probes == base_probes
    assert sanitized == base_sanitized
    assert not sanitized["violations"]
    (probe,) = probes
    reasons = {record.reason for record in probe["migrations"]}
    assert reasons == {"demote", "promote"}
    assert any(cuts)
    # Between the cuts, runs still go on.
    assert not all(cuts) and len(cuts) < len(base_cuts)
