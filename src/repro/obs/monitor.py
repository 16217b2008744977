"""The serve-time observer: windowed signals + SLO evaluation.

:class:`ServeObserver` is the single object the scheduler talks to.
It owns the windowed instruments (per-QoS TTFT/TBT/E2E histograms,
arrival/completion/shed/token rolling counters) and, when an
:class:`~repro.obs.slo.SloSpec` is attached, an
:class:`~repro.obs.slo.SloMonitor`.  The scheduler calls the hooks at
natural points of its loop:

* ``on_arrival`` as each request is absorbed from the stream,
* ``on_finish`` / ``on_shed`` as requests complete or are rejected,
* ``on_iteration`` after each priced prefill/decode pass,
* ``on_boundary`` once per iteration boundary — this is where burn
  rates are re-evaluated and the ``obs/`` gauges are published, and
* ``finalize`` at run end.

Every hook is a plain method call guarded at the call sites by
``observer is not None``: a run without an observer executes exactly
the pre-observer instruction stream, which is what keeps the off-mode
bit-identity acceptance check honest.  All timestamps are virtual.

Publishing is proportional to change.  Each windowed instrument's
gauges are a function of its ``version`` and of the boundary's end
window, so the observer stamps every instrument with ``(version, end
window)`` at publish time and writes its gauges again only when the
stamp moved; the SLO monitor does the same per objective.  A gauge is
last-write-wins, so a skipped write of an unchanged value is
invisible.  A changed latency histogram answers p50 and p99 from one
window merge (``WindowedHistogram.quantiles``).

Gauges published under ``obs/`` (and ``slo/`` via the monitor) land
in the run's ordinary :class:`~repro.telemetry.MetricsRegistry`, so
fleet runs roll replicas up through ``MetricsRegistry.merge`` with
``replica`` labels exactly like every other metric, and
``repro-telemetry dash`` reads them from the exported JSONL stream.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.slo import SloMonitor, SloSpec
from repro.obs.window import RollingCounter, WindowConfig, WindowedHistogram

#: Quantiles published as ``obs/<metric>_p<q>_s`` gauges.
GAUGE_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p99", 0.99),
)
_QS = tuple(q for _, q in GAUGE_QUANTILES)

#: Windowed latency families the observer maintains per QoS class.
LATENCY_METRICS = ("ttft", "tbt", "e2e")

#: Rate gauges: (gauge name, help text), in publishing order.
RATE_GAUGES: Tuple[Tuple[str, str], ...] = (
    ("arrival_rate_rps", "windowed arrival rate"),
    ("completion_rate_rps", "windowed completion rate"),
    ("shed_rate_rps", "windowed shed rate"),
    ("token_rate_tps", "windowed generated-token rate"),
)


class ServeObserver:
    """Streaming observability for one scheduler run.

    ``recent_windows`` controls how many trailing windows the
    published rate/quantile gauges aggregate over: at least 1, and
    clamped to the ring (burn rules manage their own windows through
    the spec).
    """

    def __init__(
        self,
        spec: Optional[SloSpec] = None,
        window: Optional[WindowConfig] = None,
        recent_windows: int = 4,
    ) -> None:
        if recent_windows < 1:
            raise ConfigurationError(
                f"recent_windows must be >= 1, got {recent_windows}"
            )
        if window is None:
            window = spec.window if spec is not None else WindowConfig()
        self.spec = spec
        self.window = window
        self.recent_windows = min(recent_windows, window.windows)
        self._latency: Dict[Tuple[str, str], WindowedHistogram] = {}
        #: ``_latency`` items in publishing (sorted key) order.
        self._latency_order: List[
            Tuple[Tuple[str, str], WindowedHistogram]
        ] = []
        self._arrivals = RollingCounter("arrivals", window)
        self._completions = RollingCounter("completions", window)
        self._sheds = RollingCounter("sheds", window)
        self._tokens = RollingCounter("tokens", window)
        #: The rate counters, in :data:`RATE_GAUGES` order.
        self._counters = (
            self._arrivals,
            self._completions,
            self._sheds,
            self._tokens,
        )
        self.slo: Optional[SloMonitor] = None
        self._obs = None  #: ``obs/``-scoped registry once bound.
        #: (gauge name, qos) -> gauge handle in the bound registry.
        self._gauges: Dict[Tuple[str, str], object] = {}
        #: instrument -> its version at its last publish into the bound
        #: registry, all at end window ``_stamped_end``; reset by
        #: :meth:`bind_run` and whenever the end window moves.
        self._stamps: Dict[object, int] = {}
        self._stamped_end: Optional[int] = None
        self._last_now = 0.0

    # -- binding --------------------------------------------------------

    def bind_run(self, telemetry, run_span) -> None:
        """Attach the run's telemetry; called once by the scheduler."""
        self._obs = telemetry.scoped("obs")
        self._gauges = {}
        self._stamps = {}
        if self.spec is not None:
            if self.slo is None:
                self.slo = SloMonitor(self.spec)
            # Re-binding preserves accumulated state (fleet rollup
            # observers merge replica snapshots before binding).
            self.slo.registry = telemetry.registry
            self.slo.span = run_span

    def _histogram(self, metric: str, qos: str) -> WindowedHistogram:
        key = (metric, qos)
        instrument = self._latency.get(key)
        if instrument is None:
            instrument = WindowedHistogram(
                f"{metric}_s:{qos}", config=self.window
            )
            self._latency[key] = instrument
            self._latency_order = sorted(self._latency.items())
        return instrument

    # -- scheduler hooks ------------------------------------------------

    def on_arrival(self, spec) -> None:
        self._arrivals.inc(spec.arrival_s)

    def on_finish(self, record) -> None:
        when = record.finished_s
        self._completions.inc(when)
        qos = record.qos_class
        self._histogram("ttft", qos).observe(record.ttft_s, when)
        self._histogram("tbt", qos).observe(record.tbt_s, when)
        self._histogram("e2e", qos).observe(record.e2e_s, when)
        if self.slo is not None:
            self.slo.observe(record)

    def on_shed(self, shed) -> None:
        self._sheds.inc(shed.shed_s)
        if self.slo is not None:
            self.slo.observe_shed(shed)

    def on_iteration(self, kind: str, batch: int, done_at: float) -> None:
        # Every iteration emits one token per batched sequence
        # (prefill: the first token of each admitted prompt).
        self._tokens.inc(done_at, batch)

    def on_boundary(self, now: float) -> None:
        self._last_now = max(self._last_now, now)
        if self.slo is not None:
            self.slo.evaluate(now)
        self._publish(now)

    def finalize(self, now: float) -> None:
        """Last evaluation at run end, so gauges reflect the full run."""
        self.on_boundary(now)

    # -- publishing -----------------------------------------------------

    def _publish(self, now: float) -> None:
        """Write the gauges of every instrument whose ``(version, end
        window)`` stamp moved since its last publish."""
        if self._obs is None:
            return
        k = self.recent_windows
        end = self.window.index(now)
        if end != self._stamped_end:
            # Every read now ends in another window: republish all.
            self._stamps = {}
            self._stamped_end = end
        stamps = self._stamps
        for (name, help_text), counter in zip(RATE_GAUGES, self._counters):
            if stamps.get(counter) != counter.version:
                stamps[counter] = counter.version
                self._gauge(name, "", help_text).set(
                    counter.rate(k, now=now)
                )
        for (metric, qos), instrument in self._latency_order:
            if stamps.get(instrument) == instrument.version:
                continue
            stamps[instrument] = instrument.version
            values = instrument.quantiles(_QS, windows=k, now=now)
            for (suffix, _), value in zip(GAUGE_QUANTILES, values):
                self._gauge(
                    f"{metric}_{suffix}_s", qos, f"windowed {metric} {suffix}"
                ).set(value)

    def _gauge(self, name: str, qos: str, help_text: str):
        """The bound ``obs/`` gauge for ``(name, qos)``, looked up in
        the registry once per :meth:`bind_run`."""
        handle = self._gauges.get((name, qos))
        if handle is None:
            handle = self._obs.gauge(
                name,
                labels={"qos": qos} if qos else None,
                help_text=help_text,
            )
            self._gauges[(name, qos)] = handle
        return handle

    # -- reading / rollups ----------------------------------------------

    def quantile(
        self,
        metric: str,
        qos: str,
        q: float,
        windows: Optional[int] = None,
        now: Optional[float] = None,
    ) -> float:
        """Mid-run windowed quantile, e.g. ``("ttft", "standard", .99)``."""
        instrument = self._latency.get((metric, qos))
        if instrument is None:
            return 0.0
        return instrument.quantile(
            q,
            windows=windows if windows is not None else self.recent_windows,
            now=now,
        )

    def snapshot(self) -> Dict[str, object]:
        """Windowed state as a JSON-able dict, mergeable per replica."""
        slo = self.slo.snapshot() if self.slo is not None else None
        return {
            **({"slo": slo} if slo is not None else {}),
            "window": self.window.to_dict(),
            "latency": {
                f"{metric}:{qos}": self._latency[(metric, qos)].snapshot()
                for (metric, qos) in sorted(self._latency)
            },
            "counters": {
                counter.name: counter.snapshot() for counter in self._counters
            },
            "last_now": self._last_now,
        }

    def merge(self, snapshot: Mapping) -> None:
        """Fold one replica's :meth:`snapshot` into this observer.

        Window indices are absolute, so merging replicas that served
        disjoint slices of one stream reproduces the single-observer
        state exactly (pinned in ``tests/obs/test_window.py``).
        """
        for key, entry in snapshot.get("latency", {}).items():
            metric, _, qos = key.partition(":")
            self._histogram(metric, qos).merge(entry)
        if "slo" in snapshot:
            if self.slo is None and self.spec is not None:
                self.slo = SloMonitor(self.spec)
            if self.slo is not None:
                self.slo.merge(snapshot["slo"])
        counters = {counter.name: counter for counter in self._counters}
        for name, entry in snapshot.get("counters", {}).items():
            if name in counters:
                counters[name].merge(entry)
        self._last_now = max(
            self._last_now, float(snapshot.get("last_now", 0.0))
        )

    def report(self) -> Optional[Dict[str, object]]:
        """The SLO monitor's end-of-run report, if one is attached."""
        if self.slo is None:
            return None
        return self.slo.report()
