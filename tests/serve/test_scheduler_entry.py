"""The scheduler rejects bad input where it enters, not mid-run.

* a checkpoint resumes only into a scheduler with the same optional
  layers (fault injector, KV manager) — in both directions;
* a request naming an unknown QoS class fails at ``run()`` entry and
  at ``SchedulerDrive.push``, before anything is simulated;
* integer knobs (``max_batch``, ``CheckpointPlan.every``/``crash_at``)
  reject non-integers, ``bool`` included, naming the field.
"""

import math

import numpy as np
import pytest

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    SimulatedCrash,
    WorkloadError,
)
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSchedule
from repro.serve.costs import FixedCostModel
from repro.serve.request import STANDARD, RequestSpec
from repro.serve.scheduler import ContinuousBatchingScheduler
from repro.serve.simulator import simulate_serving
from repro.serve.state import CheckpointPlan


def stream(num=8, qos=STANDARD.name):
    return tuple(
        RequestSpec(
            request_id=index,
            arrival_s=index * 0.5,
            prompt_len=32,
            gen_len=4,
            qos_class=qos,
        )
        for index in range(num)
    )


def make_scheduler(injector=None, costs=None):
    return ContinuousBatchingScheduler(
        costs or FixedCostModel(prefill_s=1.0, decode_s=0.5, slots=4),
        classes=(STANDARD,),
        injector=injector,
    )


def zero_injector():
    return FaultInjector(schedule=FaultSchedule(faults=(), seed=3))


def crash_checkpoint(scheduler):
    with pytest.raises(SimulatedCrash) as excinfo:
        scheduler.run(stream(), checkpoint=CheckpointPlan(crash_at=4))
    return excinfo.value.checkpoint


class TestRestoreLayerPresence:
    def test_injector_state_into_plain_scheduler(self):
        checkpoint = crash_checkpoint(make_scheduler(zero_injector()))
        with pytest.raises(CheckpointError, match="carries injector"):
            make_scheduler().run((), restore=checkpoint)

    def test_fault_free_checkpoint_into_injected_scheduler(self):
        checkpoint = crash_checkpoint(make_scheduler())
        with pytest.raises(CheckpointError, match="no injector state"):
            make_scheduler(zero_injector()).run((), restore=checkpoint)

    def test_matching_layers_still_resume(self):
        clean = make_scheduler(zero_injector()).run(stream())
        checkpoint = crash_checkpoint(make_scheduler(zero_injector()))
        resumed = make_scheduler(zero_injector()).run((), restore=checkpoint)
        assert resumed.records == clean.records

    @pytest.fixture(scope="class")
    def serve_kwargs(self):
        return dict(
            model="opt-1.3b",
            host="DRAM",
            placement="helm",
            rate_rps=0.5,
            num_requests=8,
            seed=3,
            max_batch=4,
        )

    def crash(self, serve_kwargs, **extra):
        with pytest.raises(SimulatedCrash) as excinfo:
            simulate_serving(
                **serve_kwargs,
                checkpoint=CheckpointPlan(crash_at=4),
                **extra,
            )
        return excinfo.value.checkpoint

    def test_kv_state_into_scheduler_without_kv(self, serve_kwargs):
        checkpoint = self.crash(serve_kwargs, kv_policy="hotness")
        with pytest.raises(CheckpointError, match="carries KV state"):
            simulate_serving(**serve_kwargs, restore=checkpoint)

    def test_kv_free_checkpoint_into_scheduler_with_kv(self, serve_kwargs):
        checkpoint = self.crash(serve_kwargs)
        with pytest.raises(CheckpointError, match="no KV state"):
            simulate_serving(
                **serve_kwargs, kv_policy="hotness", restore=checkpoint
            )


class RefusingCosts(FixedCostModel):
    """A cost model that fails the test if anything is priced."""

    def prefill_time(self, batch, prompt_len):
        raise AssertionError("an iteration was priced before the error")

    decode_time = prefill_time


class TestUnknownQosClass:
    def test_run_rejects_at_entry(self):
        """The bad spec arrives last, yet nothing is priced first."""
        bad = RequestSpec(
            request_id=99, arrival_s=1e6, prompt_len=32, gen_len=4,
            qos_class="gold",
        )
        scheduler = make_scheduler(
            costs=RefusingCosts(prefill_s=1.0, decode_s=0.5, slots=4)
        )
        with pytest.raises(WorkloadError, match="unknown QoS class 'gold'"):
            scheduler.run(stream() + (bad,))

    def test_push_rejects_immediately(self):
        drive = make_scheduler().drive(stream(2))
        bad = RequestSpec(
            request_id=7, arrival_s=3.0, prompt_len=32, gen_len=4,
            qos_class="gold",
        )
        with pytest.raises(WorkloadError, match="request 7 names unknown"):
            drive.push(bad)
        assert len(drive.state.pending) == 2
        assert len(drive.finish().records) == 2


class TestIntegerKnobs:
    @pytest.mark.parametrize("value", [math.nan, 2.5, 4.0, True, "4"])
    def test_max_batch(self, value):
        with pytest.raises(ConfigurationError, match="max_batch"):
            ContinuousBatchingScheduler(
                FixedCostModel(prefill_s=1.0, decode_s=0.5, slots=4),
                classes=(STANDARD,),
                max_batch=value,
            )

    def test_max_batch_accepts_numpy_integers(self):
        scheduler = ContinuousBatchingScheduler(
            FixedCostModel(prefill_s=1.0, decode_s=0.5, slots=4),
            classes=(STANDARD,),
            max_batch=np.int64(3),
        )
        assert scheduler.max_batch == 3 and type(scheduler.max_batch) is int

    @pytest.mark.parametrize("value", [math.nan, 2.5, 3.0, True])
    def test_checkpoint_every(self, value):
        with pytest.raises(CheckpointError, match="every"):
            CheckpointPlan(every=value)

    @pytest.mark.parametrize("value", [math.nan, 3.7, False])
    def test_checkpoint_crash_at(self, value):
        with pytest.raises(CheckpointError, match="crash_at"):
            CheckpointPlan(crash_at=value)
