"""Decode runs and lazy replica advance are exact.

The serving loop commits a run of decodes over an unchanged batch in
one step, reading one price per context bucket, and a fleet replica
runs to an arrival only when the router reads it or pushes to it.
These tests run each fleet three ways — as shipped, with every run
one iteration long (the bind-time decision forced off), and with every
replica advanced at each arrival — and pin that records, timelines,
trace records, span dicts, registry snapshots, each replica's price
hits and misses, boundary counts and assignments agree.  An autoscaled
fleet harvests completions into its controller only when a decision
is due; it runs a fourth way too, harvesting at every arrival, and
must agree with that as well.  Each replica's cost model memoizes and
counts only its own lookups, so the order replicas catch up in moves
no counter.

The edge cases below pin a run's boundaries: an iteration that ends
exactly on an arrival, a request that finishes in the iteration that
crosses the horizon, runs that cross a price bucket or sit at the
``max_position`` cap, and checkpointed and crashed-and-restored runs.
"""

from __future__ import annotations

import functools
from typing import List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autoscale import AutoscaleController, AutoscalePolicy
from repro.chaos import CheckpointPlan
from repro.core.qos import QosTarget
from repro.errors import SimulatedCrash
from repro.fleet import simulate_fleet
from repro.serve import TraceReplay, simulate_serving
from repro.serve.costs import FixedCostModel, IterationCostModel
from repro.serve.request import STANDARD, RequestSpec
from repro.serve.resilience import ResiliencePolicy
from repro.serve.scheduler import (
    ContinuousBatchingScheduler,
    SchedulerDrive,
    _ServingLoop,
)
from repro.telemetry import Telemetry
from repro.workloads.lengths import LengthDistribution

ROUTERS = ("round-robin", "least-loaded", "prefix-affinity")
#: A one-second control loop that adds and drains replicas within a
#: few dozen requests once the TTFT target is tight.
AUTOSCALE = AutoscalePolicy(
    interval_s=1.0, cooldown_s=1.0, min_replicas=1, max_replicas=3,
    scale_down_periods=1, headroom=2.0,
)


# -- the three ways to run -------------------------------------------------


def one_iteration_runs(patch) -> None:
    """Every decode run is one iteration: the per-iteration loop."""
    patch.setattr(_ServingLoop, "runs_allowed", lambda self: False)


def eager_advance(patch) -> None:
    """Every replica runs to each arrival as it is announced."""
    lazy = SchedulerDrive.advance

    def advance(self, until):
        lazy(self, until)
        self.state

    patch.setattr(SchedulerDrive, "advance", advance)


def harvest_every_arrival(patch) -> None:
    """The fleet harvests completions at every arrival; decisions
    still fall due on the controller's own interval."""
    due = AutoscaleController.due
    decide = AutoscaleController.maybe_decide

    def maybe_decide(self, now, current_replicas):
        if not due(self, now):
            return None
        return decide(self, now, current_replicas)

    patch.setattr(AutoscaleController, "due", lambda self, now: True)
    patch.setattr(AutoscaleController, "maybe_decide", maybe_decide)


def count_commits(patch, commits: List[str]) -> None:
    """Record the kind of every committed run."""
    commit = _ServingLoop.commit

    def counted(self, kind, *args):
        commits.append(kind)
        commit(self, kind, *args)

    patch.setattr(_ServingLoop, "commit", counted)


def probe_passes(patch, probes: List[tuple]) -> None:
    """Record each pass's boundary count and span dicts as it ends."""
    finalize = _ServingLoop.finalize

    def probed(self):
        run = finalize(self)
        probes.append(
            (self.state.boundary, self.telemetry.tracer.to_dicts())
        )
        return run

    patch.setattr(_ServingLoop, "finalize", probed)


def fleet(params, *patches):
    probes: List[tuple] = []
    target = params.get("autoscale")
    telemetry = Telemetry.create(enabled=params["telemetry"])
    with pytest.MonkeyPatch.context() as patch:
        probe_passes(patch, probes)
        for apply in patches:
            apply(patch)
        result = simulate_fleet(
            model="opt-1.3b",
            host="DRAM",
            placement="helm",
            rate_rps=params["rate_rps"],
            num_requests=params["requests"],
            seed=params["seed"],
            max_batch=params["max_batch"],
            replicas=params["replicas"],
            tensor_parallel=params["tensor_parallel"],
            router=params["router"],
            prefix_groups=3,
            prefix_cache_size=params["prefix_cache"],
            kv_policy=params["kv"],
            resilience=params.get("resilience"),
            prompt_lengths=LengthDistribution.uniform(8, 120),
            gen_lengths=LengthDistribution.uniform(1, params["max_gen"]),
            telemetry=telemetry,
            autoscale=AUTOSCALE if target else None,
            autoscale_target=QosTarget(max_ttft_s=target) if target else None,
        )
    return result, probes, telemetry


# -- comparing them --------------------------------------------------------


def assert_same(ours, theirs) -> None:
    result, probes, telemetry = ours
    other, other_probes, other_telemetry = theirs
    assert result.assignments == other.assignments
    # A pass is probed as it finalizes, which for a drained replica is
    # whenever the fleet next reads it: compare the passes, not their
    # order.
    assert sorted(probes, key=repr) == sorted(other_probes, key=repr)
    assert len(result.replicas) == len(other.replicas)
    for replica, peer in zip(result.replicas, other.replicas):
        served, baseline = replica.result, peer.result
        assert replica.routed == peer.routed
        assert served.records == baseline.records
        assert served.shed == baseline.shed
        assert served.timeline == baseline.timeline
        assert served.trace.records == baseline.trace.records
        assert served.setup == baseline.setup
        assert replica.telemetry_snapshot == peer.telemetry_snapshot
    assert result.registry.snapshot() == other.registry.snapshot()
    assert (
        telemetry.registry.snapshot() == other_telemetry.registry.snapshot()
    )
    assert telemetry.tracer.to_dicts() == other_telemetry.tracer.to_dicts()
    assert result.summary() == other.summary()


def check_fleet(params) -> None:
    shipped = fleet(params)
    autoscaled = bool(params.get("autoscale"))
    assert_same(shipped, fleet(params, one_iteration_runs))
    assert_same(shipped, fleet(params, eager_advance))
    if autoscaled:
        assert_same(shipped, fleet(params, harvest_every_arrival))


def unsharded_when_autoscaled(params: dict) -> dict:
    """Autoscaling adds and drains unsharded replicas only."""
    if params["autoscale"]:
        return {**params, "tensor_parallel": 1}
    return params


fleets = st.fixed_dictionaries(
    {
        "replicas": st.integers(1, 4),
        "tensor_parallel": st.sampled_from((1, 2)),
        "router": st.sampled_from(ROUTERS),
        "prefix_cache": st.sampled_from((0, 2)),
        "kv": st.sampled_from((None, "static")),
        "max_batch": st.sampled_from((None, 2, 4, 8)),
        "max_gen": st.sampled_from((1, 6, 40)),
        "telemetry": st.booleans(),
        "rate_rps": st.sampled_from((0.5, 2.0, 8.0)),
        "requests": st.integers(6, 24),
        "seed": st.integers(0, 2**16),
        # The TTFT target of an autoscaled fleet; None is a fixed one.
        "autoscale": st.sampled_from((None, 0.1, 0.3)),
    }
).map(unsharded_when_autoscaled)

BASE = dict(
    replicas=4, tensor_parallel=1, router="prefix-affinity",
    prefix_cache=2, kv="static", max_batch=8, max_gen=40, telemetry=True,
    rate_rps=2.0, requests=24, seed=9,
)
#: Adds and drains replicas under round-robin (which reads no depth).
AUTOSCALED = dict(
    BASE, replicas=1, router="round-robin", prefix_cache=0, max_batch=4,
    requests=40, autoscale=0.1,
)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(params=fleets)
@example(params=BASE)
@example(params={**BASE, "router": "round-robin", "telemetry": False})
@example(params={**BASE, "router": "least-loaded", "max_batch": None})
@example(params={**BASE, "replicas": 1, "kv": None, "max_gen": 1})
@example(params={**BASE, "replicas": 3, "prefix_cache": 0, "max_gen": 6})
@example(params={**BASE, "tensor_parallel": 2, "router": "round-robin"})
@example(params={**AUTOSCALED, "telemetry": False})
@example(params={**AUTOSCALED, "router": "least-loaded", "autoscale": 0.3})
@example(params={**AUTOSCALED, "router": "prefix-affinity", "seed": 10})
def test_runs_and_lazy_advance_match_the_per_iteration_loop(params):
    check_fleet(params)


def test_decision_time_harvest_commits_fewer_runs():
    """Harvesting only when a decision is due leaves replicas
    unread between decisions, so their runs span arrivals: the same
    records in strictly fewer committed runs."""
    runs, commits = [], []
    for patches in ((), (harvest_every_arrival,)):
        seen: List[str] = []
        counting = functools.partial(count_commits, commits=seen)
        runs.append(fleet(AUTOSCALED, counting, *patches))
        commits.append(len(seen))
    shipped, oracle = runs
    assert_same(shipped, oracle)
    scaling = shipped[0].metrics["autoscale"]
    assert scaling["scaling_events"]
    # The controller saw completions before deciding.
    assert any(d["ttft_p99_s"] > 0 for d in scaling["decisions"])
    assert commits[0] < commits[1]


def test_idle_parks_before_a_client_retry_stay_transparent():
    """A timed-out request returns as a client retry after a backoff,
    so a replica can sit idle with its next arrival past arrivals
    routed elsewhere: parking at each of those, or not, is the same
    run (while a queueing deadline is set, runs are one iteration)."""
    params = {
        **BASE,
        "replicas": 3,
        "router": "round-robin",
        "max_batch": 1,
        "rate_rps": 8.0,
        "requests": 40,
        "resilience": ResiliencePolicy(
            queue_deadline_s=0.5, retry_shed=True, retry_backoff_s=1.0
        ),
    }
    shipped = fleet(params)
    assert any(
        record.reason == "timeout"
        for replica in shipped[0].replicas
        for record in replica.result.shed
    )
    assert_same(shipped, fleet(params, eager_advance))


# -- a run's edges ---------------------------------------------------------


def spec(request_id, arrival_s, prompt_len=32, gen_len=4):
    return RequestSpec(
        request_id=request_id,
        arrival_s=arrival_s,
        prompt_len=prompt_len,
        gen_len=gen_len,
    )


def fixed_scheduler():
    return ContinuousBatchingScheduler(
        FixedCostModel(prefill_s=1.0, decode_s=0.5, slots=4),
        classes=(STANDARD,),
    )


def both_ways(run):
    """``run()`` as shipped and with one-iteration runs."""
    shipped = run()
    with pytest.MonkeyPatch.context() as patch:
        one_iteration_runs(patch)
        baseline = run()
    return shipped, baseline


def assert_same_pass(shipped, baseline):
    assert shipped.records == baseline.records
    assert shipped.timeline == baseline.timeline
    assert shipped.trace.records == baseline.trace.records
    assert shipped.decode_iterations == baseline.decode_iterations
    assert shipped.gpu_busy_s == baseline.gpu_busy_s


def serve_pass(specs, **kwargs):
    probes: List[tuple] = []
    with pytest.MonkeyPatch.context() as patch:
        probe_passes(patch, probes)
        result = simulate_serving(
            model="opt-1.3b",
            host="DRAM",
            placement="helm",
            arrival=TraceReplay(tuple(specs)),
            num_requests=len(specs),
            max_batch=4,
            telemetry=Telemetry.create(),
            **kwargs,
        )
    return result, probes


def assert_same_serving(shipped, baseline):
    (result, probes), (other, other_probes) = shipped, baseline
    assert result.records == other.records
    assert result.timeline == other.timeline
    assert result.trace.records == other.trace.records
    assert result.setup == other.setup
    assert probes == other_probes


class TestRunEdges:
    def test_iteration_ending_on_an_arrival_parks_first(self):
        # Prefill ends at 1.0, decodes at 1.5, 2.0, 2.5, ...: the
        # second request arrives exactly as one ends.
        specs = (spec(0, 0.0, gen_len=8), spec(1, 2.5))
        shipped, baseline = both_ways(
            lambda: fixed_scheduler().run(specs)
        )
        assert_same_pass(shipped, baseline)
        second = next(r for r in shipped.records if r.request_id == 1)
        assert second.admitted_s == 2.5
        ends = [sample.time_s for sample in shipped.timeline]
        assert ends[:5] == [1.0, 1.5, 2.0, 2.5, 3.5]

        def driven():
            drive = fixed_scheduler().drive()
            for item in specs:
                drive.advance(item.arrival_s)
                drive.push(item)
            return drive.finish()

        driven_shipped, driven_baseline = both_ways(driven)
        assert_same_pass(driven_shipped, driven_baseline)
        assert driven_shipped.records == shipped.records
        assert driven_shipped.timeline == shipped.timeline

    def test_priced_iteration_ending_on_an_arrival(self):
        first = (spec(0, 0.0, gen_len=12), spec(1, 0.0, gen_len=20))
        landing = serve_pass(first)[0].timeline[6].time_s
        specs = first + (spec(2, landing, gen_len=3),)
        shipped, baseline = both_ways(lambda: serve_pass(specs))
        assert_same_serving(shipped, baseline)
        third = next(r for r in shipped[0].records if r.request_id == 2)
        assert third.admitted_s == landing

    def test_finish_in_the_iteration_that_crosses_the_horizon(self):
        # Request 0's last decode runs 2.0 -> 2.5, across horizon 2.3.
        def driven():
            drive = fixed_scheduler().drive()
            drive.push(spec(0, 0.0, gen_len=4))
            drive.advance(2.3)
            parked = (drive.now, drive.state.boundary, drive.queue_depth)
            drive.push(spec(1, 2.3, gen_len=2))
            return parked, drive.finish()

        (parked, shipped), (base_parked, baseline) = both_ways(driven)
        assert parked == base_parked == (2.5, 4, 0)
        assert_same_pass(shipped, baseline)
        assert [r.finished_s for r in shipped.records] == [2.5, 4.0]

    @pytest.mark.parametrize(
        "prompt_len, gen_len, counted",
        [
            # Contexts 21..49: buckets 32 and 64.
            (20, 30, [(21, 11), (33, 16)]),
            # Contexts 2001..2059: buckets 2016 and 2048, then every
            # context prices the cell clipped at max_position 2050.
            (2000, 60, [(2001, 15), (2017, 31), (2049, 10)]),
        ],
        ids=["bucket", "cap"],
    )
    def test_run_across_a_bucket_and_at_the_cap(
        self, prompt_len, gen_len, counted
    ):
        specs = (spec(0, 0.0, prompt_len=prompt_len, gen_len=gen_len),)
        calls, reads = [], []
        read = IterationCostModel.decode_bucket
        count = IterationCostModel.count_decode_hits

        def reading(self, batch, context_len):
            reads.append(context_len)
            return read(self, batch, context_len)

        def counting(self, n):
            calls.append((reads[-1], n))
            count(self, n)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(IterationCostModel, "decode_bucket", reading)
            patch.setattr(IterationCostModel, "count_decode_hits", counting)
            shipped, baseline = both_ways(lambda: serve_pass(specs))
        assert_same_serving(shipped, baseline)
        # One run of gen_len - 1 decodes: one price read per bucket,
        # the bucket's other iterations counted as its hits.
        assert calls == counted
        assert shipped[0].setup["decode_iterations"] == gen_len - 1

    def test_checkpointed_and_restored_runs_match(self):
        specs = tuple(
            spec(i, 0.4 * i, prompt_len=24 + 8 * i, gen_len=6 + i)
            for i in range(8)
        )
        plain = both_ways(lambda: serve_pass(specs))
        assert_same_serving(*plain)
        taken = []
        checkpointed = serve_pass(
            specs, checkpoint=CheckpointPlan(every=3, sink=taken.append)
        )
        assert taken
        assert checkpointed[0].records == plain[0][0].records
        assert checkpointed[0].timeline == plain[0][0].timeline
        assert checkpointed[1][0][0] == plain[0][1][0][0]  # boundaries
        with pytest.raises(SimulatedCrash) as crash:
            serve_pass(specs, checkpoint=CheckpointPlan(every=3, crash_at=9))
        resumed = both_ways(
            lambda: serve_pass(specs, restore=crash.value.checkpoint)
        )
        for result, _ in resumed:
            assert result.records == plain[0][0].records
            assert result.timeline == plain[0][0].timeline
            assert result.trace.records == plain[0][0].trace.records
