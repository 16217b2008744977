"""The sanitizer checks a decode run's inner boundaries in one call.

Between the inner boundaries of a committed run nothing runs but each
boundary's timeline append, so ``SanitizerHarness.observe`` takes them
all at once: the clock and price-agreement checks run per boundary,
the state checks once.  These tests pin that one call over a run
equals one call per boundary (report, violations, strict raise), on
drawn runs with planted faults, and that a sanitized serve pass walks
the KV extents once per boundary the loop opened plus once per decode
run longer than one iteration.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace
from typing import List

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import SanitizerHarness
from repro.errors import SanitizerError
from repro.serve.costs import price_summary
from repro.serve.scheduler import _ServingLoop
from tests.serve.test_serve_decode_runs import (
    PERFBENCH_SLICE,
    count_commits,
    serve,
)

TIERS = ("HBM", "NVDRAM")


class RecordingHarness(SanitizerHarness):
    """Records every sampled price-agreement check instead of pricing
    (the real check prices a spec once per run)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.priced: List[int] = []

    def _check_price_agreement(self, boundary, kv):
        self.checks["price_agreement"] += 1
        self.priced.append(boundary)


def world(faults):
    """A serving state and scheduler holding three requests' KV, with
    ``faults`` planted: a KV counter skew, a request both waiting and
    running, a negative cache counter."""
    extents = {
        request_id: [
            SimpleNamespace(tier_name=TIERS[request_id % 2], nbytes=4096),
            SimpleNamespace(tier_name="NVDRAM", nbytes=1024 * request_id),
        ]
        for request_id in (1, 2, 3)
    }
    used = {tier: 0 for tier in TIERS}
    for held in extents.values():
        for extent in held:
            used[extent.tier_name] += extent.nbytes
    if "kv" in faults:
        used["HBM"] += 1
    tiermap = SimpleNamespace(
        extents_by_request=extents,
        used_bytes=used.__getitem__,
        enforce=True,
        capacity_bytes=lambda tier: 1 << 30,
    )
    kv = SimpleNamespace(
        topology=SimpleNamespace(
            budgets=tuple(SimpleNamespace(name=tier) for tier in TIERS)
        ),
        tiermap=tiermap,
        lost_tiers=set(),
        spec=object(),
    )
    request = lambda request_id: SimpleNamespace(
        spec=SimpleNamespace(request_id=request_id)
    )
    waiting = [(0, 0.0, 3, request(3))]
    running = [request(1), request(2)]
    if "overlap" in faults:
        running.append(request(3))
    state = SimpleNamespace(
        records=[],
        shed_records=[],
        waiting=waiting,
        running=running,
        next_arrival=3,
        timeline=[],
    )
    hits = -2 if "cache" in faults else 5
    costs = SimpleNamespace(cache_stats=price_summary(hits, 3, 3))
    return state, SimpleNamespace(kv=kv, costs=costs)


def sample(time_s):
    return SimpleNamespace(time_s=time_s)


def one_call_per_run(harness, passes, state, scheduler):
    """Each pass: the boundary the loop opened, then the run's inner
    boundaries in one call, after their timeline appends."""
    boundary = 0
    for now, ends in passes:
        boundary += 1
        harness.observe(boundary, (now,), state, scheduler)
        state.timeline.extend(map(sample, ends))
        if ends:
            harness.observe(boundary + 1, ends, state, scheduler)
        boundary += len(ends)


def one_call_per_boundary(harness, passes, state, scheduler):
    """The same boundaries, each checked on its own as it opens."""
    boundary = 0
    for now, ends in passes:
        boundary += 1
        harness.observe(boundary, (now,), state, scheduler)
        for end in ends:
            boundary += 1
            state.timeline.append(sample(end))
            harness.observe(boundary, (end,), state, scheduler)


def outcome(drive, passes, faults, strict, every):
    harness = RecordingHarness(strict=strict, pricing_check_every=every)
    state, scheduler = world(faults)
    try:
        drive(harness, passes, state, scheduler)
        raised = None
    except SanitizerError as error:
        raised = (error.check, error.boundary, error.detail)
    return harness.report(), harness.priced, raised


def timed(drawn):
    """``(gap, steps)`` pairs as ``(now, ends)`` passes: the loop opens
    a boundary ``gap`` after the previous run's end, and each inner
    boundary lands ``step`` after the one before.  A negative gap or
    step plants a clock fault."""
    passes = []
    time_s = 0.0
    for gap, inner in drawn:
        now = time_s = time_s + gap
        ends = []
        for step in inner:
            time_s += step
            ends.append(time_s)
        passes.append((now, ends))
    return passes


steps = st.floats(min_value=-0.5, max_value=4.0, allow_nan=False)
passes = st.lists(
    st.tuples(steps, st.lists(steps, max_size=6)), min_size=1, max_size=6
).map(timed)
fault_sets = st.sets(st.sampled_from(("kv", "overlap", "cache")))


@settings(max_examples=120, deadline=None)
@given(
    passes=passes,
    faults=fault_sets,
    strict=st.booleans(),
    every=st.sampled_from((0, 1, 2, 3, 64)),
)
@example(passes=[(1.0, [2.0, 3.0, 4.0])], faults={"kv"}, strict=False,
         every=2)
@example(passes=[(1.0, [2.0, 3.0, 4.0])], faults={"overlap"}, strict=True,
         every=0)
@example(passes=[(1.0, [2.0, 3.0]), (3.0, [2.5, 4.0])], faults={"cache"},
         strict=False, every=3)
def test_one_call_per_run_equals_one_per_boundary(
    passes, faults, strict, every
):
    ours = outcome(one_call_per_run, passes, faults, strict, every)
    theirs = outcome(one_call_per_boundary, passes, faults, strict, every)
    assert ours == theirs


def test_planted_faults_are_reported_at_every_inner_boundary():
    report, _, raised = outcome(
        one_call_per_run,
        [(1.0, [2.0, 3.0, 4.0])],
        {"kv", "overlap", "cache"},
        strict=False,
        every=0,
    )
    assert raised is None
    checks = [(v["boundary"], v["check"]) for v in report["violations"]]
    assert checks == [
        (boundary, check)
        for boundary in (1, 2, 3, 4)
        for check in (
            "conservation",
            "conservation",
            "kv_accounting",
            "cache_stats",
            "cache_stats",
        )
    ]
    assert report["checks"]["kv_accounting"] == 4


# -- a sanitized serve pass ----------------------------------------------


def count_calls(patch, calls: List[str]) -> None:
    """Record each boundary the loop opens and each KV-accounting
    walk."""
    boundary = _ServingLoop.boundary
    check = SanitizerHarness._check_kv_accounting

    def opened(self, now):
        calls.append("boundary")
        return boundary(self, now)

    def walked(self, at, kv):
        calls.append("walk")
        return check(self, at, kv)

    patch.setattr(_ServingLoop, "boundary", opened)
    patch.setattr(SanitizerHarness, "_check_kv_accounting", walked)


def test_serve_pass_walks_kv_once_per_boundary_and_run():
    calls: List[str] = []
    commits: List[int] = []
    passed = serve(
        PERFBENCH_SLICE,
        functools.partial(count_calls, calls=calls),
        functools.partial(count_commits, commits=commits),
    )
    assert passed["sanitizer"] is not None
    # With runs of three or more iterations, a walk per inner boundary
    # would exceed the count below.
    assert any(length > 2 for length in commits)
    runs = sum(1 for length in commits if length > 1)
    assert calls.count("walk") == calls.count("boundary") + runs
