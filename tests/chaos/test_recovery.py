"""Crash-consistent checkpoint/restore of scheduler runs.

The acceptance property: a run crashed at an arbitrary boundary and
resumed from its snapshot is bit-identical — records, timeline, shed
list, and derived metrics — to one that never crashed, across
placements.
"""

import collections

import pytest

import repro.serve.scheduler as scheduler_module
import repro.serve.state as state_module
from repro.chaos import CheckpointPlan, RecoveryReport, run_with_crashes
from repro.errors import CheckpointError, SimulatedCrash
from repro.serve.costs import FixedCostModel
from repro.serve.request import STANDARD, RequestSpec
from repro.serve.resilience import ResiliencePolicy
from repro.serve.scheduler import ContinuousBatchingScheduler
from repro.serve.simulator import simulate_serving


def make_scheduler():
    return ContinuousBatchingScheduler(
        FixedCostModel(prefill_s=1.0, decode_s=0.5, slots=4),
        classes=(STANDARD,),
    )


def stream(num=12, rate=2.0):
    return tuple(
        RequestSpec(
            request_id=index,
            arrival_s=index / rate,
            prompt_len=32,
            gen_len=5,
            qos_class=STANDARD.name,
        )
        for index in range(num)
    )


def _retrying_run():
    """Every checkpoint of a run whose timed-out requests come back as
    client retries (inserted into the arrival stream mid-run)."""
    snapshots = []
    scheduler = ContinuousBatchingScheduler(
        FixedCostModel(prefill_s=1.0, decode_s=0.5, slots=4),
        classes=(STANDARD,),
        resilience=ResiliencePolicy(
            queue_deadline_s=2.0, retry_shed=True, retry_backoff_s=1.0
        ),
    )
    run = scheduler.run(
        stream(num=24, rate=4.0),
        checkpoint=CheckpointPlan(every=1, sink=snapshots.append),
    )
    assert run.faults.client_retries > 0 and len(snapshots) > 10
    return snapshots


class TestCheckpointPlan:
    def test_validation(self):
        with pytest.raises(CheckpointError):
            CheckpointPlan(every=0)
        with pytest.raises(CheckpointError):
            CheckpointPlan(crash_at=0)

    def test_sink_receives_every_snapshot(self):
        snapshots = []
        plan = CheckpointPlan(every=1, sink=snapshots.append)
        clean = make_scheduler().run(stream())
        make_scheduler().run(stream(), checkpoint=plan)
        boundaries = [snapshot["boundary"] for snapshot in snapshots]
        assert boundaries == sorted(boundaries)
        assert len(snapshots) >= len(clean.timeline) - 1

    def test_checkpoints_serialize_each_history_entry_once(
        self, monkeypatch
    ):
        """Every checkpoint carries the whole history, but each record,
        shed record and timeline sample is turned into a dict once,
        not once per checkpoint (which made checkpointing quadratic
        in run length)."""
        serialized = collections.Counter()
        asdict = state_module.dataclasses.asdict

        def counting_asdict(obj, *args, **kwargs):
            serialized[id(obj)] += 1
            return asdict(obj, *args, **kwargs)

        monkeypatch.setattr(
            state_module.dataclasses, "asdict", counting_asdict
        )
        snapshots = []
        scheduler = ContinuousBatchingScheduler(
            FixedCostModel(prefill_s=1.0, decode_s=0.5, slots=4),
            classes=(STANDARD,),
            resilience=ResiliencePolicy(queue_deadline_s=2.0),
        )
        run = scheduler.run(
            stream(num=24, rate=4.0),
            checkpoint=CheckpointPlan(every=1, sink=snapshots.append),
        )
        assert run.shed and len(snapshots) > 10
        last = snapshots[-1]["state"]
        rows = (
            len(last["records"]) + len(last["shed_records"])
            + len(last["timeline"])
        )
        assert set(serialized.values()) == {1}
        assert len(serialized) == rows
        assert last["records"] and last["shed_records"]
        # Each snapshot owns its lists.
        assert last["records"] is not snapshots[-2]["state"]["records"]

    def test_checkpoints_serialize_each_trace_record_once(
        self, monkeypatch
    ):
        """The trace only grows at its end, so across N checkpoints
        each trace record is turned into a dict once, and every
        snapshot still equals a from-scratch serialization."""
        trace_dict = state_module._trace_dict
        traced = collections.Counter()

        def counting_trace_dict(record):
            traced[id(record)] += 1
            return trace_dict(record)

        snapshot_clock = scheduler_module.snapshot_clock

        def checked_clock(clock, trace, state):
            payload = snapshot_clock(clock, trace, state)
            assert payload["trace"] == [
                trace_dict(record) for record in trace.records
            ]
            return payload

        monkeypatch.setattr(state_module, "_trace_dict", counting_trace_dict)
        monkeypatch.setattr(scheduler_module, "snapshot_clock", checked_clock)
        snapshots = _retrying_run()

        last = snapshots[-1]["engine"]["trace"]
        assert set(traced.values()) == {1}
        assert len(traced) == len(last) > 10
        # Each snapshot owns its list.
        assert last is not snapshots[-2]["engine"]["trace"]

    def test_checkpoints_serialize_each_absorbed_spec_once(
        self, monkeypatch
    ):
        """Client retries insert only at or after ``next_arrival``, so
        the absorbed prefix of the arrival stream only grows at its
        end: each absorbed spec is turned into a dict once, and only
        the unabsorbed tail and the live requests are serialized per
        checkpoint.  Every snapshot still equals a from-scratch
        serialization."""
        spec_dict = state_module._spec_dict
        calls = [0]

        def counting_spec_dict(spec):
            calls[0] += 1
            return spec_dict(spec)

        snapshot_state = scheduler_module.snapshot_state

        def checked_state(state):
            payload = snapshot_state(state)
            assert payload["pending"] == [
                spec_dict(spec) for spec in state.pending
            ]
            return payload

        monkeypatch.setattr(state_module, "_spec_dict", counting_spec_dict)
        monkeypatch.setattr(scheduler_module, "snapshot_state", checked_state)
        snapshots = [snapshot["state"] for snapshot in _retrying_run()]

        per_snapshot = sum(
            len(state["pending"]) - state["next_arrival"]
            + len(state["waiting"]) + len(state["running"])
            for state in snapshots
        )
        assert calls[0] == snapshots[-1]["next_arrival"] + per_snapshot
        # Each snapshot owns its list.
        assert snapshots[-1]["pending"] is not snapshots[-2]["pending"]

    def test_crash_raises_with_snapshot(self):
        plan = CheckpointPlan(every=1, crash_at=4)
        with pytest.raises(SimulatedCrash) as excinfo:
            make_scheduler().run(stream(), checkpoint=plan)
        crash = excinfo.value
        assert crash.boundary == 4
        assert crash.checkpoint["boundary"] < 4


class TestCrashRestore:
    @pytest.mark.parametrize("placement", ["allcpu", "helm"])
    def test_restored_run_is_bit_identical(self, placement):
        kwargs = dict(
            model="opt-1.3b",
            host="DRAM",
            placement=placement,
            rate_rps=0.5,
            num_requests=12,
            seed=3,
            max_batch=4,
        )
        clean = simulate_serving(**kwargs)
        with pytest.raises(SimulatedCrash) as excinfo:
            simulate_serving(
                **kwargs, checkpoint=CheckpointPlan(every=1, crash_at=5)
            )
        checkpoint = excinfo.value.checkpoint
        resumed = simulate_serving(**kwargs, restore=checkpoint)
        assert resumed.records == clean.records
        assert resumed.timeline == clean.timeline
        assert resumed.shed == clean.shed
        assert resumed.metrics.summary() == clean.metrics.summary()

    def test_sparse_checkpoints_replay_the_gap(self):
        """With a snapshot cadence > 1 the crash loses boundaries,
        which the resumed run re-executes deterministically."""
        clean = make_scheduler().run(stream())
        plan = CheckpointPlan(every=4, crash_at=6)
        with pytest.raises(SimulatedCrash) as excinfo:
            make_scheduler().run(stream(), checkpoint=plan)
        crash = excinfo.value
        assert crash.checkpoint["boundary"] <= 4
        resumed = make_scheduler().run(
            (), restore=crash.checkpoint
        )
        assert resumed.records == clean.records
        assert resumed.timeline == clean.timeline


class TestRunWithCrashes:
    def test_multi_crash_drive_matches_clean_run(self):
        clean = make_scheduler().run(stream())
        report = run_with_crashes(
            make_scheduler(), stream(), crash_boundaries=[3, 8]
        )
        assert isinstance(report, RecoveryReport)
        assert report.crashes == (3, 8)
        assert len(report.resumed_from) == 2
        assert all(
            resumed < crashed
            for resumed, crashed in zip(
                report.resumed_from, report.crashes
            )
        )
        assert report.run.records == clean.records
        assert report.run.timeline == clean.timeline

    def test_crash_past_the_end_is_a_clean_run(self):
        clean = make_scheduler().run(stream())
        report = run_with_crashes(
            make_scheduler(),
            stream(),
            crash_boundaries=[10_000],
        )
        assert report.crashes == ()
        assert report.resumed_from == ()
        assert report.run.records == clean.records

    def test_crash_boundaries_validated(self):
        with pytest.raises(CheckpointError):
            run_with_crashes(
                make_scheduler(), stream(), crash_boundaries=[0]
            )
