"""Declarative SLOs with SRE-style multi-window burn-rate alerts.

An :class:`SloObjective` states "fraction ``target`` of ``qos``-class
requests keep ``metric`` under ``threshold_s``"; its error budget is
``1 - target``.  A :class:`BurnRule` pairs a long and a short window
with a factor: the alert fires when the *burn rate* — the windowed
bad-fraction divided by the error budget — is at or above the factor
over **both** windows, the standard multi-window construction that
keeps alerts fast on real regressions and quiet on blips.

:class:`SloSpec` (objectives + burn rules + window shape) round-trips
through JSON, so ``repro-serve --slo spec.json`` and fleet runs share
one file format.  :class:`SloMonitor` is the live evaluator: the
scheduler feeds it finished/shed records, and at iteration boundaries
it publishes ``slo/`` gauges, appends ``slo_alert`` span events into
the run span (and thus the JSONL stream), and keeps per-objective
alert state so transitions are edge-triggered, not repeated.  An
objective whose inputs — its good/bad counter versions, the end
window and the bound registry — are unchanged since its last
evaluation is skipped: its burn rates, firing state and gauges would
all come out the same, so no edge can occur there.  While no
objective's counters changed at all and the end window and registry
hold, :meth:`SloMonitor.evaluate` returns at once, without visiting
the objectives.  A real evaluation reads each objective's good and
bad windows once for all its burn rules.

Virtual time only — nothing here reads a clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.window import RollingCounter, WindowConfig
from repro.serve.request import QosClass

#: Metrics an objective can bound. ``slo`` uses the request's own
#: composite ``slo_met`` verdict (its class's QosTarget) instead of a
#: single threshold.
OBJECTIVE_METRICS = ("ttft", "tbt", "e2e", "slo")


@dataclass(frozen=True)
class SloObjective:
    """One objective: a latency bound and a target attainment."""

    name: str
    qos: str  #: QoS class name, or ``"*"`` for all classes.
    metric: str
    target: float  #: Required good fraction, e.g. 0.99.
    threshold_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("an SLO objective needs a name")
        if self.metric not in OBJECTIVE_METRICS:
            raise ConfigurationError(
                f"objective {self.name!r}: unknown metric "
                f"{self.metric!r} (choose from {OBJECTIVE_METRICS})"
            )
        if not 0.0 < self.target < 1.0:
            raise ConfigurationError(
                f"objective {self.name!r}: target must be in (0, 1), "
                f"got {self.target}"
            )
        if self.metric == "slo":
            if self.threshold_s is not None:
                raise ConfigurationError(
                    f"objective {self.name!r}: the 'slo' metric uses "
                    f"the QoS class's own bounds, not a threshold"
                )
        elif self.threshold_s is None or self.threshold_s <= 0:
            raise ConfigurationError(
                f"objective {self.name!r}: metric {self.metric!r} "
                f"needs a positive threshold_s"
            )

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target

    def matches(self, qos_class: str) -> bool:
        return self.qos == "*" or self.qos == qos_class

    def is_good(self, record) -> bool:
        """Whether one finished :class:`RequestRecord` is within SLO."""
        if self.metric == "slo":
            return bool(record.slo_met)
        value = getattr(record, f"{self.metric}_s")
        return value <= self.threshold_s

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "name": self.name,
            "qos": self.qos,
            "metric": self.metric,
            "target": self.target,
        }
        if self.threshold_s is not None:
            data["threshold_s"] = self.threshold_s
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "SloObjective":
        return cls(
            name=str(data["name"]),
            qos=str(data.get("qos", "*")),
            metric=str(data.get("metric", "slo")),
            target=float(data["target"]),
            threshold_s=(
                float(data["threshold_s"])
                if data.get("threshold_s") is not None
                else None
            ),
        )


@dataclass(frozen=True)
class BurnRule:
    """One multi-window burn-rate condition.

    Fires when the burn rate over the last ``long_windows`` *and* the
    last ``short_windows`` are both at or above ``factor``.
    """

    factor: float
    long_windows: int
    short_windows: int

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ConfigurationError("burn factor must be positive")
        if not 0 < self.short_windows <= self.long_windows:
            raise ConfigurationError(
                f"need 0 < short_windows <= long_windows, got "
                f"{self.short_windows} / {self.long_windows}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "factor": self.factor,
            "long_windows": self.long_windows,
            "short_windows": self.short_windows,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "BurnRule":
        return cls(
            factor=float(data["factor"]),
            long_windows=int(data["long_windows"]),
            short_windows=int(data["short_windows"]),
        )


#: The classic fast-burn / slow-burn pair, scaled to window counts.
DEFAULT_BURN_RULES: Tuple[BurnRule, ...] = (
    BurnRule(factor=14.4, long_windows=4, short_windows=1),
    BurnRule(factor=6.0, long_windows=12, short_windows=3),
)


@dataclass(frozen=True)
class SloSpec:
    """A full SLO declaration: window shape + objectives + burn rules."""

    objectives: Tuple[SloObjective, ...]
    window: WindowConfig = WindowConfig()
    burn_rules: Tuple[BurnRule, ...] = DEFAULT_BURN_RULES

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ConfigurationError("an SLO spec needs objectives")
        if not self.burn_rules:
            raise ConfigurationError(
                "an SLO spec needs at least one burn rule"
            )
        names = [objective.name for objective in self.objectives]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate objective names in SLO spec: {names}"
            )
        longest = max(rule.long_windows for rule in self.burn_rules)
        if longest > self.window.windows:
            raise ConfigurationError(
                f"burn rule needs {longest} windows but the ring only "
                f"keeps {self.window.windows}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "window": self.window.to_dict(),
            "objectives": [o.to_dict() for o in self.objectives],
            "burn_rules": [r.to_dict() for r in self.burn_rules],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SloSpec":
        """Parse a spec; a missing ``burn_rules`` key means
        :data:`DEFAULT_BURN_RULES`, an empty list is an error."""
        rules = data.get("burn_rules")
        return cls(
            objectives=tuple(
                SloObjective.from_dict(entry)
                for entry in data.get("objectives", ())
            ),
            window=WindowConfig.from_dict(data.get("window", {})),
            burn_rules=(
                DEFAULT_BURN_RULES
                if rules is None
                else tuple(BurnRule.from_dict(entry) for entry in rules)
            ),
        )

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=1)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "SloSpec":
        with open(path) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"{path}: not an SLO spec ({error})"
                ) from None
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"{path}: not an SLO spec object")
        return cls.from_dict(data)

    @classmethod
    def for_classes(
        cls,
        classes: Sequence[QosClass],
        target: float = 0.99,
        window: WindowConfig = WindowConfig(),
        burn_rules: Tuple[BurnRule, ...] = DEFAULT_BURN_RULES,
    ) -> "SloSpec":
        """Derive one composite objective per QoS class from the
        classes' own latency bounds."""
        return cls(
            objectives=tuple(
                SloObjective(
                    name=f"{qos.name}-slo",
                    qos=qos.name,
                    metric="slo",
                    target=target,
                )
                for qos in classes
            ),
            window=window,
            burn_rules=burn_rules,
        )


@dataclass
class SloAlert:
    """One edge-triggered burn-rate alert transition."""

    objective: str
    rule: BurnRule
    time_s: float
    burn_long: float
    burn_short: float
    firing: bool  #: True on raise, False on clear.

    def to_dict(self) -> Dict[str, object]:
        return {
            "objective": self.objective,
            "factor": self.rule.factor,
            "long_windows": self.rule.long_windows,
            "short_windows": self.rule.short_windows,
            "time_s": self.time_s,
            "burn_long": self.burn_long,
            "burn_short": self.burn_short,
            "firing": self.firing,
        }


class _ObjectiveState:
    """Live good/bad counts for one objective."""

    def __init__(self, objective: SloObjective, window: WindowConfig):
        self.objective = objective
        self.good = RollingCounter(f"{objective.name}/good", window)
        self.bad = RollingCounter(f"{objective.name}/bad", window)
        #: rule index -> currently firing?
        self.firing: Dict[int, bool] = {}
        #: (good version, bad version, end window, registry) at the
        #: last evaluation; ``None`` forces the next one.
        self.stamp: Optional[Tuple[int, int, int, object]] = None

    def observe(self, good: bool, time_s: float) -> None:
        (self.good if good else self.bad).inc(time_s)

    def burn_rates(
        self, spans: Sequence[int], now: float
    ) -> Dict[int, float]:
        """Windowed bad-fraction over the error budget, for each count
        of trailing windows in ``spans`` (ascending), from one read of
        each counter's widest span.  Each sum adds its windows oldest
        first, as :meth:`RollingCounter.count` does."""
        widest = spans[-1]
        good = self.good.counts(widest, now=now)
        bad = self.bad.counts(widest, now=now)
        budget = self.objective.error_budget
        rates: Dict[int, float] = {}
        for windows in spans:
            good_count = sum(good[widest - windows:])
            bad_count = sum(bad[widest - windows:])
            total = good_count + bad_count
            rates[windows] = (
                0.0 if total <= 0 else (bad_count / total) / budget
            )
        return rates

    def attainment(self) -> float:
        total = self.good.total + self.bad.total
        if total <= 0:
            return 1.0
        return self.good.total / total


#: Per-objective ``slo/`` gauges: (name, help text).
SLO_GAUGES: Tuple[Tuple[str, str], ...] = (
    ("attainment", "lifetime good fraction per objective"),
    ("burn_rate", "burn rate over the longest rule window"),
    ("firing", "1 while any burn rule is firing"),
)


class SloMonitor:
    """Evaluate an :class:`SloSpec` as virtual time advances.

    ``observe``/``observe_shed`` classify completions as they happen;
    ``evaluate(now)`` recomputes burn rates, publishes gauges under
    the registry's ``slo/`` namespace, and returns the alert *edges*
    (raise / clear) since the previous evaluation.  ``span`` — when
    bound — receives one ``slo_alert`` event per edge, which the JSONL
    exporter then streams.
    """

    def __init__(self, spec: SloSpec, registry=None, span=None) -> None:
        self.spec = spec
        self.registry = registry
        self.span = span
        self._states = [
            _ObjectiveState(objective, spec.window)
            for objective in spec.objectives
        ]
        self.alerts: List[SloAlert] = []
        self._first_breach_s: Optional[float] = None
        #: Every rule's window counts, ascending; the last, the longest
        #: rule's long window, is also the burn-rate gauge's.
        self._spans = tuple(
            sorted(
                {rule.long_windows for rule in spec.burn_rules}
                | {rule.short_windows for rule in spec.burn_rules}
            )
        )
        #: Bumped by every call that may change an objective's counters.
        self._changes = 0
        #: (changes, end window, registry) at the last evaluation;
        #: ``None`` forces the next one.
        self._stamp: Optional[Tuple[int, int, object]] = None
        #: Per-objective (attainment, burn_rate, firing) gauges, bound
        #: to ``_gauges_for``; rebuilt when :attr:`registry` changes.
        self._gauges: List[Tuple[object, object, object]] = []
        self._gauges_for = None

    # -- feeding --------------------------------------------------------

    def observe(self, record, time_s: Optional[float] = None) -> None:
        """Classify one finished :class:`RequestRecord`."""
        when = record.finished_s if time_s is None else time_s
        self._changes += 1
        for state in self._states:
            if state.objective.matches(record.qos_class):
                state.observe(state.objective.is_good(record), when)

    def observe_shed(self, shed) -> None:
        """A shed request burns budget in every matching objective."""
        self._changes += 1
        for state in self._states:
            if state.objective.matches(shed.qos_class):
                state.observe(False, shed.shed_s)

    # -- evaluation -----------------------------------------------------

    def evaluate(self, now: float) -> List[SloAlert]:
        """Re-evaluate every burn rule at virtual time ``now``.

        Returns at once while no objective's counters changed, the end
        window holds and the registry is the same: every objective's
        stamp then holds too."""
        end = self.spec.window.index(now)
        inputs = (self._changes, end, self.registry)
        if inputs == self._stamp:
            return []
        self._stamp = inputs
        edges: List[SloAlert] = []
        gauges = self._bound_gauges()
        rules = self.spec.burn_rules
        spans = self._spans
        for position, state in enumerate(self._states):
            # Every read below is a function of this stamp, and
            # ``state.firing`` already holds what these inputs give.
            stamp = (
                state.good.version, state.bad.version, end, self.registry
            )
            if stamp == state.stamp:
                continue
            state.stamp = stamp
            objective = state.objective
            rates = state.burn_rates(spans, now)
            for index, rule in enumerate(rules):
                burn_long = rates[rule.long_windows]
                burn_short = rates[rule.short_windows]
                firing = (
                    burn_long >= rule.factor and burn_short >= rule.factor
                )
                if firing != state.firing.get(index, False):
                    state.firing[index] = firing
                    edge = SloAlert(
                        objective=objective.name,
                        rule=rule,
                        time_s=now,
                        burn_long=burn_long,
                        burn_short=burn_short,
                        firing=firing,
                    )
                    edges.append(edge)
                    if firing and self._first_breach_s is None:
                        self._first_breach_s = now
            if gauges:
                attainment_gauge, burn_gauge, firing_gauge = gauges[position]
                attainment_gauge.set(state.attainment())
                burn_gauge.set(rates[spans[-1]])
                firing_gauge.set(1.0 if any(state.firing.values()) else 0.0)
        self.alerts.extend(edges)
        if self.span is not None:
            for edge in edges:
                self.span.event(
                    "slo_alert",
                    edge.time_s,
                    objective=edge.objective,
                    state="firing" if edge.firing else "resolved",
                    factor=edge.rule.factor,
                    burn_long=round(edge.burn_long, 4),
                    burn_short=round(edge.burn_short, 4),
                )
        return edges

    def _bound_gauges(self) -> List[Tuple[object, object, object]]:
        """Every objective's ``slo/`` gauges in the current registry
        (none without one), looked up once per registry rather than
        once per evaluation."""
        if self.registry is None:
            return []
        if self._gauges_for is self.registry:
            return self._gauges
        slo = self.registry.scoped("slo")
        self._gauges = [
            tuple(
                slo.gauge(
                    name,
                    labels={
                        "objective": state.objective.name,
                        "qos": state.objective.qos,
                    },
                    help_text=help_text,
                )
                for name, help_text in SLO_GAUGES
            )
            for state in self._states
        ]
        self._gauges_for = self.registry
        return self._gauges

    # -- snapshots / merge ---------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Good/bad window state per objective, replica-mergeable."""
        return {
            "objectives": {
                state.objective.name: {
                    "good": state.good.snapshot(),
                    "bad": state.bad.snapshot(),
                }
                for state in self._states
            }
        }

    def merge(self, snapshot: Mapping) -> None:
        """Fold one replica's :meth:`snapshot` into this monitor.

        Only objectives present in this monitor's spec are folded —
        merging across mismatched specs is a configuration error left
        to the caller (fleet replicas always share one spec).
        """
        entries = snapshot.get("objectives", {})
        self._changes += 1
        for state in self._states:
            entry = entries.get(state.objective.name)
            if entry is None:
                continue
            state.good.merge(entry["good"])
            state.bad.merge(entry["bad"])

    # -- reporting ------------------------------------------------------

    @property
    def first_alert_s(self) -> Optional[float]:
        """Virtual time of the first raised alert, if any."""
        return self._first_breach_s

    def report(self) -> Dict[str, object]:
        """End-of-run summary, JSON-able for results/setup dicts."""
        return {
            "spec": self.spec.to_dict(),
            "objectives": [
                {
                    "name": state.objective.name,
                    "qos": state.objective.qos,
                    "metric": state.objective.metric,
                    "target": state.objective.target,
                    "good": state.good.total,
                    "bad": state.bad.total,
                    "attainment": state.attainment(),
                    "met": state.attainment() >= state.objective.target,
                    "firing": any(state.firing.values()),
                }
                for state in self._states
            ],
            "alerts": [alert.to_dict() for alert in self.alerts],
            "first_alert_s": self._first_breach_s,
        }
