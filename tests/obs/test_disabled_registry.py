"""A disabled registry makes the serving publishers derive nothing.

The observer, the SLO monitor and the KV manager each decide once,
when they bind, whether their registry keeps writes.  On a disabled
registry (the ambient default) they read no windowed quantile or
rate and write no gauge, while the run itself — records, sheds, SLO
report and alert edges — is the same as with an enabled registry.
"""

import dataclasses
import sys

import pytest

from repro.fleet import simulate_fleet
from repro.kv import HotnessKvPolicy
from repro.obs import (
    BurnRule,
    RollingCounter,
    SloObjective,
    SloSpec,
    WindowConfig,
    WindowedHistogram,
)
from repro.serve import TraceReplay, simulate_serving
from repro.serve.request import BATCH, INTERACTIVE, RequestSpec
from repro.telemetry import Telemetry
from repro.telemetry.registry import Gauge, _NullInstrument

MIX = ((INTERACTIVE, 0.3), (BATCH, 0.7))
ENGINE = dict(model="opt-175b", host="NVDRAM", placement="helm")
#: A TTFT bound the run misses about half the time, so burn-rate
#: alerts raise and clear mid-run.
SPEC = SloSpec(
    objectives=(
        SloObjective(
            name="ttft", qos="*", metric="ttft", target=0.9, threshold_s=8.0
        ),
        SloObjective(
            name="interactive", qos="interactive", metric="slo", target=0.9
        ),
    ),
    window=WindowConfig(width_s=60.0, windows=8),
    burn_rules=(BurnRule(factor=2.0, long_windows=4, short_windows=1),),
)
#: Modules whose gauge writes are derived values: the observer, the
#: SLO monitor and the KV occupancy publisher.
PUBLISHERS = ("repro.obs.", "repro.kv.")


def _specs(gap_s, unservable=False, n=40):
    specs = [
        RequestSpec(
            request_id=i,
            arrival_s=round(i * gap_s, 6),
            prompt_len=512 + 128 * (i % 7),
            gen_len=16,
            qos_class=(INTERACTIVE if i % 3 == 0 else BATCH).name,
        )
        for i in range(n)
    ]
    if unservable:
        # A KV window that can never fit: one ``kv_capacity`` shed.
        specs[7] = dataclasses.replace(specs[7], gen_len=10**8)
    return tuple(specs)


def _serve(telemetry):
    specs = _specs(33.0, unservable=True)
    return simulate_serving(
        **ENGINE,
        arrival=TraceReplay(specs),
        num_requests=len(specs),
        class_mix=MIX,
        kv_policy=HotnessKvPolicy(overcommit=8.0),
        slo=SPEC,
        sanitize=True,
        telemetry=telemetry,
    )


def _fleet(telemetry):
    # Twice the serve run's load, so each replica sees about as much.
    specs = _specs(16.5)
    return simulate_fleet(
        **ENGINE,
        arrival=TraceReplay(specs),
        num_requests=len(specs),
        class_mix=MIX,
        replicas=2,
        kv_policy="static",
        slo=SPEC,
        telemetry=telemetry,
    )


@pytest.fixture
def reads(monkeypatch):
    """Count windowed reads and gauge writes made during a run."""
    counts = {"quantiles": 0, "rate": 0, "publisher_sets": 0}
    quantiles = WindowedHistogram.quantiles
    rate = RollingCounter.rate

    def counted_quantiles(self, *args, **kwargs):
        counts["quantiles"] += 1
        return quantiles(self, *args, **kwargs)

    def counted_rate(self, *args, **kwargs):
        counts["rate"] += 1
        return rate(self, *args, **kwargs)

    def counting_set(original):
        def counted_set(self, value):
            caller = sys._getframe(1).f_globals["__name__"]
            if caller.startswith(PUBLISHERS):
                counts["publisher_sets"] += 1
            original(self, value)

        return counted_set

    monkeypatch.setattr(WindowedHistogram, "quantiles", counted_quantiles)
    monkeypatch.setattr(RollingCounter, "rate", counted_rate)
    monkeypatch.setattr(Gauge, "set", counting_set(Gauge.set))
    monkeypatch.setattr(
        _NullInstrument, "set", counting_set(_NullInstrument.set)
    )
    return counts


def _counted(reads, run, telemetry):
    for key in reads:
        reads[key] = 0
    result = run(telemetry)
    return result, dict(reads)


def _report(setup):
    report = setup["slo"]
    assert report["alerts"], "the spec should raise alerts"
    return report


def test_serve_on_a_disabled_registry_derives_no_gauge_value(reads):
    disabled, quiet = _counted(reads, _serve, Telemetry.create(enabled=False))
    enabled, loud = _counted(reads, _serve, Telemetry.create())

    assert quiet["quantiles"] == quiet["rate"] == 0
    assert quiet["publisher_sets"] == 0
    assert disabled.setup["kv"]["migrations"] > 0
    # The counters do see the enabled run's publishing.
    assert loud["quantiles"] > 0 and loud["rate"] > 0
    assert loud["publisher_sets"] > 0

    assert disabled.records == enabled.records
    assert disabled.shed == enabled.shed
    assert [s.reason for s in disabled.shed] == ["kv_capacity"]
    assert _report(disabled.setup) == _report(enabled.setup)
    assert disabled.setup["sanitize"]["violations"] == []


def test_fleet_on_a_disabled_registry_derives_no_gauge_value(reads):
    disabled, quiet = _counted(reads, _fleet, Telemetry.create(enabled=False))
    enabled, loud = _counted(reads, _fleet, Telemetry.create())

    assert quiet["quantiles"] == quiet["rate"] == 0
    assert quiet["publisher_sets"] == 0
    assert loud["quantiles"] > 0 and loud["publisher_sets"] > 0

    assert disabled.records == enabled.records
    assert disabled.assignments == enabled.assignments
    for key in ("shed_requests", "slo"):
        assert disabled.metrics[key] == enabled.metrics[key]
    for quiet_replica, loud_replica in zip(
        disabled.replicas, enabled.replicas
    ):
        assert quiet_replica.result.shed == loud_replica.result.shed
        assert _report(quiet_replica.result.setup) == _report(
            loud_replica.result.setup
        )
