"""Per-layer fault pricing: ``faulted_iteration_parts`` semantics.

The event backend walks the layer
schedule pricing each transfer through the fault injector at its own
virtual start time, so degradation windows and transient retries land
on the layers they actually hit instead of inflating the whole
iteration by a lump-sum factor.
"""

import dataclasses

import repro.serve.costs
from repro.core.engine import OffloadEngine
from repro.core.metrics import Stage
from repro.faults.injector import FaultInjector
from repro.faults.models import DegradationWindow, FaultSchedule, TransientFaults
from repro.faults.retry import RetryPolicy
from repro.pricing import EventBackend
from repro.serve.simulator import simulate_serving
from repro.workloads.lengths import LengthDistribution


def spec_with(schedule):
    engine = OffloadEngine(
        model="opt-30b", host="DRAM", placement="baseline", batch_size=4
    )
    spec = engine.run_spec(include_faults=False)
    if schedule is None:
        return spec
    return dataclasses.replace(spec, injector=FaultInjector(schedule))


class TestFaultedIterationParts:
    def test_no_injector_degrades_to_nominal(self):
        backend = EventBackend()
        spec = spec_with(None)
        faulted = backend.faulted_iteration_parts(spec, Stage.DECODE, 128)
        assert faulted.parts == backend.iteration_parts(
            spec, Stage.DECODE, 128
        )
        assert faulted.retried_layers == 0
        assert faulted.retry_overhead_s == 0.0

    def test_degradation_window_slows_only_covered_time(self):
        backend = EventBackend()
        schedule = FaultSchedule(
            faults=(
                DegradationWindow(
                    target="host",
                    slowdown=4.0,
                    start_s=0.0,
                    duration_s=1e9,
                ),
            ),
            seed=0,
        )
        spec = spec_with(schedule)
        nominal = backend.iteration_parts(spec_with(None), Stage.DECODE, 128)
        slowed = backend.faulted_iteration_parts(spec, Stage.DECODE, 128, now=0.0)
        assert slowed.total_s() > nominal.total_s()
        # Computes stay nominal; only transfers are repriced.
        assert slowed.parts.computes == nominal.computes
        # After the window the same pricing returns to nominal... but
        # this window never ends, so a far-future `now` is still slow.
        still = backend.faulted_iteration_parts(spec, Stage.DECODE, 128, now=1e6)
        assert still.total_s() > nominal.total_s()

    def test_transient_retries_are_seeded_deterministic(self):
        schedule = FaultSchedule(
            faults=(
                TransientFaults(
                    target="host",
                    probability=0.3,
                    start_s=0.0,
                    end_s=1e9,
                ),
            ),
            seed=7,
        )
        retry = RetryPolicy(max_attempts=16)

        def run():
            backend = EventBackend()
            spec = dataclasses.replace(spec_with(schedule), retry=retry)
            return backend.faulted_iteration_parts(
                spec, Stage.DECODE, 128, now=10.0
            )

        first, second = run(), run()
        assert first == second
        assert first.retried_layers > 0
        assert first.retry_overhead_s > 0.0
        assert first.total_s() >= first.parts.total_s()


class TestServingIterationFaultPricing:
    SCHEDULE = FaultSchedule(
        faults=(
            DegradationWindow(
                target="host",
                slowdown=3.0,
                start_s=5.0,
                duration_s=40.0,
            ),
            TransientFaults(
                target="host",
                probability=0.1,
                start_s=0.0,
                end_s=1e9,
            ),
        ),
        seed=4,
    )
    COMMON = dict(
        model="opt-30b",
        host="DRAM",
        placement="baseline",
        arrival="poisson",
        rate_rps=0.3,
        num_requests=12,
        gen_lengths=LengthDistribution.fixed(4),
        seed=2,
        faults=SCHEDULE,
    )

    def test_default_pricer_matches_all_event_run(self, monkeypatch):
        """Per-layer fault pricing runs on the default pricer and equals
        a run whose every price comes from the event oracle."""
        layered = simulate_serving(**self.COMMON, iteration_fault_pricing=True)
        monkeypatch.setattr(repro.serve.costs, "AnalyticBackend", EventBackend)
        oracle = simulate_serving(**self.COMMON, iteration_fault_pricing=True)

        def priced(result):
            summary = result.summary()
            summary.pop("backend_memo")
            return summary

        assert priced(layered) == priced(oracle)
        assert layered.records == oracle.records
        assert layered.shed == oracle.shed

    def test_per_layer_pricing_differs_from_lump_sum(self):
        lump = simulate_serving(**self.COMMON)
        layered = simulate_serving(**self.COMMON, iteration_fault_pricing=True)
        assert layered.metrics.summary() != lump.metrics.summary()
        repeat = simulate_serving(**self.COMMON, iteration_fault_pricing=True)
        assert repeat.metrics.summary() == layered.metrics.summary()
