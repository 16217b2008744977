"""The checkpoint codec carries every :class:`SchedulerState` field.

Scalar fields travel through one table (``_SCALARS``, built from the
dataclass fields), so a field added later is either in it, in the
named serialized lists, or declared runtime-only here — it cannot
silently drop out of checkpoints.  A drawn round trip pins that the
table reads back what it wrote, and a malformed checkpoint — in the
scheduler's sections or in the KV manager's — fails with a
:class:`~repro.errors.CheckpointError` naming the bad entry.  Scalars
are read strictly: a bool field takes only a bool, an int field an
int that is not a bool, a float field an int or a float.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError, SimulatedCrash
from repro.serve.costs import FixedCostModel
from repro.serve.request import STANDARD, RequestSpec
from repro.serve.scheduler import ContinuousBatchingScheduler
from repro.serve.simulator import simulate_serving
from repro.serve.state import (
    _SCALARS,
    CheckpointPlan,
    SchedulerState,
    restore_state,
    snapshot_state,
)

#: Non-scalar fields a checkpoint carries, each as a named list.
SERIALIZED = frozenset(
    {
        "pending",
        "waiting",
        "running",
        "records",
        "shed_records",
        "timeline",
        "attempts",
    }
)
#: Fields rebuilt at restore (``active_costs``) or never serialized
#: (``rows``, the snapshot memo).
RUNTIME = frozenset({"active_costs", "rows"})
SCALAR_NAMES = frozenset(name for name, _ in _SCALARS)


def make_scheduler():
    return ContinuousBatchingScheduler(
        FixedCostModel(prefill_s=1.0, decode_s=0.25, slots=3),
        classes=(STANDARD,),
    )


def stream():
    return tuple(
        RequestSpec(
            request_id=index,
            arrival_s=0.4 * index,
            prompt_len=32,
            gen_len=3 + index % 4,
        )
        for index in range(10)
    )


def checkpoint() -> dict:
    """A JSON-clean copy of a mid-run checkpoint that has finished,
    waiting and running requests."""
    taken = []
    make_scheduler().run(
        stream(), checkpoint=CheckpointPlan(every=1, sink=taken.append)
    )
    for snapshot in taken:
        state = snapshot["state"]
        if state["records"] and state["waiting"] and state["running"]:
            return json.loads(json.dumps(snapshot))
    raise AssertionError("no checkpoint has records, waiting and running")


def state_payload() -> dict:
    return checkpoint()["state"]


class TestFieldCoverage:
    def test_every_field_is_carried_or_runtime_only(self):
        names = {f.name for f in dataclasses.fields(SchedulerState)}
        assert SCALAR_NAMES.isdisjoint(SERIALIZED | RUNTIME)
        assert names == SCALAR_NAMES | SERIALIZED | RUNTIME

    def test_snapshot_carries_exactly_the_table_and_the_lists(self):
        assert set(state_payload()) == SCALAR_NAMES | SERIALIZED

    def test_scalars_keep_their_types(self):
        payload = state_payload()
        for name, kind in _SCALARS:
            assert type(payload[name]) is kind, name


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_drawn_scalars_round_trip_byte_equal(data):
    draw = {
        int: st.integers(),
        float: st.floats(),
        bool: st.booleans(),
    }
    scheduler = make_scheduler()
    state = restore_state(state_payload(), scheduler._request)
    for name, kind in _SCALARS:
        setattr(state, name, data.draw(draw[kind], label=name))
    written = json.dumps(snapshot_state(state))
    restored = restore_state(json.loads(written), scheduler._request)
    assert json.dumps(snapshot_state(restored)) == written


class TestMalformedCheckpoint:
    def restore(self, broken: dict):
        return make_scheduler().run((), restore=broken)

    def test_the_checkpoint_itself_restores(self):
        run = self.restore(checkpoint())
        assert len(run.records) == len(stream())

    @pytest.mark.parametrize("section", ["state", "engine"])
    def test_missing_section_is_named(self, section):
        broken = checkpoint()
        del broken[section]
        with pytest.raises(CheckpointError, match=f"'{section}'"):
            self.restore(broken)

    @pytest.mark.parametrize("section", ["state", "engine"])
    def test_every_missing_field_is_named(self, section):
        keys = sorted(checkpoint()[section])
        assert keys
        for key in keys:
            broken = checkpoint()
            del broken[section][key]
            with pytest.raises(CheckpointError, match=f"'{section}.{key}'"):
                self.restore(broken)

    @pytest.mark.parametrize(
        "section, key", [("state", "boundary"), ("engine", "now")]
    )
    def test_ill_typed_field_is_named(self, section, key):
        broken = checkpoint()
        broken[section][key] = "x"
        with pytest.raises(
            CheckpointError, match=f"'{section}.{key}' is malformed"
        ):
            self.restore(broken)

    @pytest.mark.parametrize(
        "key, value",
        [
            # Each restored silently under a plain cast: True and 2.
            ("aborted", "no"),
            ("boundary", 2.7),
            ("boundary", True),
            ("aborted", 1),
            ("stall_s", False),
        ],
    )
    def test_scalars_are_read_strictly(self, key, value):
        broken = checkpoint()
        broken["state"][key] = value
        with pytest.raises(
            CheckpointError, match=f"'state.{key}' is malformed"
        ):
            self.restore(broken)

    def test_an_int_reads_into_a_float_field_as_a_float(self):
        payload = state_payload()
        payload["stall_s"] = 2
        state = restore_state(payload, make_scheduler()._request)
        assert type(state.stall_s) is float and state.stall_s == 2.0


#: The KV manager's section of a checkpoint, key by key.
KV_KEYS = (
    "admission_limit",
    "last_touch",
    "lost_tiers",
    "migration_bytes",
    "migrations",
    "pending_s",
    "tiermap",
)


class TestMalformedKvSection:
    SERVE = dict(
        model="opt-1.3b",
        host="DRAM",
        placement="helm",
        rate_rps=0.5,
        num_requests=8,
        seed=3,
        max_batch=4,
        kv_policy="hotness",
    )

    @pytest.fixture(scope="class")
    def crashed(self) -> str:
        with pytest.raises(SimulatedCrash) as crash:
            simulate_serving(
                **self.SERVE, checkpoint=CheckpointPlan(crash_at=4)
            )
        return json.dumps(crash.value.checkpoint)

    def restore(self, broken: dict):
        return simulate_serving(**self.SERVE, restore=broken)

    def test_the_section_is_what_is_tested(self, crashed):
        checkpoint = json.loads(crashed)
        assert tuple(sorted(checkpoint["kv"])) == KV_KEYS
        assert self.restore(checkpoint).records

    @pytest.mark.parametrize("key", KV_KEYS)
    def test_every_missing_key_is_named(self, crashed, key):
        broken = json.loads(crashed)
        del broken["kv"][key]
        with pytest.raises(CheckpointError, match=f"'kv.{key}'"):
            self.restore(broken)

    @pytest.mark.parametrize("key", ("capacity_factor", "extents"))
    def test_every_missing_tiermap_key_is_named(self, crashed, key):
        broken = json.loads(crashed)
        del broken["kv"]["tiermap"][key]
        with pytest.raises(CheckpointError, match=f"'kv.tiermap.{key}'"):
            self.restore(broken)

    def test_ill_typed_key_is_named(self, crashed):
        broken = json.loads(crashed)
        broken["kv"]["pending_s"] = "x"
        with pytest.raises(
            CheckpointError, match="'kv.pending_s' is malformed"
        ):
            self.restore(broken)
