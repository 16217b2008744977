"""``repro-telemetry dash`` — a live terminal dashboard over JSONL.

The dash tails the same append-only JSONL export ``summary --follow``
reads (one-shot exports, or the incremental ``reset``-marker streams
long sweeps append), parses whatever has landed so far into a bundle,
and renders the observability surface in one screenful:

* windowed rates (``obs/``): arrivals, completions, sheds, tokens;
* windowed latency quantiles per QoS class (TTFT/TBT p50/p99);
* SLO state (``slo/``): attainment, burn rate, firing flags;
* KV tier occupancy (``kv/occupancy_bytes``);
* sweep progress (``progress/``) for ``repro-experiments`` runs.

Each gauge keeps a short history across renders, drawn as a unicode
sparkline, so trends are visible without a real plotting stack.  The
renderer is a pure function of (bundle, prior history) — tests drive
it directly with no terminal or timing involved.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from repro.telemetry.export import follow_jsonl

_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values, width: int = 24) -> str:
    """The trailing ``width`` values as a unicode sparkline."""
    tail = list(values)[-width:]
    if not tail:
        return ""
    lo = min(tail)
    hi = max(tail)
    if hi <= lo:
        return _SPARK[0] * len(tail)
    span = hi - lo
    return "".join(
        _SPARK[int((value - lo) / span * (len(_SPARK) - 1))]
        for value in tail
    )


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e9:
        return f"{value / 1e9:.2f}G"
    if abs(value) >= 1e6:
        return f"{value / 1e6:.2f}M"
    if abs(value) >= 1e3:
        return f"{value / 1e3:.2f}k"
    if abs(value) < 0.01:
        return f"{value:.2e}"
    return f"{value:.3f}".rstrip("0").rstrip(".")


def _gauges(bundle: Mapping) -> Dict[Tuple[str, Tuple], float]:
    out: Dict[Tuple[str, Tuple], float] = {}
    for entry in bundle.get("metrics", {}).get("gauges", ()):
        key = (
            entry["name"],
            tuple(sorted((entry.get("labels") or {}).items())),
        )
        out[key] = float(entry["value"])
    return out


def _label_text(labels: Tuple) -> str:
    return ",".join(f"{k}={v}" for k, v in labels)


class DashState:
    """Render-to-render gauge history for sparklines."""

    def __init__(self, history: int = 48) -> None:
        self.history = history
        self._series: Dict[Tuple[str, Tuple], Deque[float]] = {}

    def _push(self, gauges: Dict[Tuple[str, Tuple], float]) -> None:
        for key, value in gauges.items():
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = deque(maxlen=self.history)
            series.append(value)

    def _row(self, key: Tuple[str, Tuple], label: str) -> str:
        series = self._series.get(key, ())
        latest = series[-1] if series else 0.0
        return (
            f"  {label:<32} {_fmt(latest):>10}  {sparkline(series)}"
        )

    def render(self, bundle: Mapping) -> str:
        """One dashboard frame; also advances the history."""
        gauges = _gauges(bundle)
        self._push(gauges)
        lines: List[str] = []
        meta = bundle.get("meta", {})
        if meta:
            lines.append(
                "[" + ", ".join(
                    f"{k}={v}" for k, v in sorted(meta.items())
                ) + "]"
            )

        def section(title: str, prefix: str, unit: str = "") -> None:
            keys = sorted(k for k in gauges if k[0].startswith(prefix))
            if not keys:
                return
            lines.append(f"{title}")
            for key in keys:
                name = key[0][len(prefix):]
                labels = _label_text(key[1])
                label = f"{name}{{{labels}}}" if labels else name
                lines.append(self._row(key, label))

        section("rates & latency (obs/)", "obs/")
        section("slo (slo/)", "slo/")
        section("kv occupancy (kv/)", "kv/occupancy")
        section("sweep progress (progress/)", "progress/")
        if len(lines) <= (1 if meta else 0):
            lines.append(
                "no obs/slo/kv/progress gauges yet — run with "
                "observability enabled (repro-serve --slo / --obs, or "
                "repro-experiments --telemetry-out sweep.jsonl)"
            )
        spans = bundle.get("spans", ())
        alerts = [
            event
            for span in spans
            for event in span.get("events", ())
            if event.get("name") == "slo_alert"
        ]
        if alerts:
            lines.append(f"alerts ({len(alerts)}):")
            for event in alerts[-6:]:
                attrs = event.get("attrs", {})
                lines.append(
                    f"  t={event['time_s']:.1f}s "
                    f"{attrs.get('objective', '?')} "
                    f"{attrs.get('state', '?')} "
                    f"(burn long {attrs.get('burn_long', '?')}, "
                    f"short {attrs.get('burn_short', '?')})"
                )
        return "\n".join(lines)


def follow_dash(
    path: str,
    poll_s: float = 0.5,
    max_renders: Optional[int] = None,
    out=None,
    clear: bool = True,
) -> int:
    """Tail ``path`` (JSONL export) and re-render the dashboard.

    The tailing contract is :func:`~repro.telemetry.export.follow_jsonl`'s:
    each frame is a pure function of the complete lines read so far,
    partial trailing lines are held back, and ``reset`` records
    restart accumulation.  Stops after ``max_renders`` frames or on
    Ctrl-C.
    """
    state = DashState()
    wipe = "\x1b[2J\x1b[H" if clear else ""

    def frame(bundle, renders: int, count: int) -> str:
        header = f"{wipe}--- dash {renders} ({count} lines) ---"
        return f"{header}\n{state.render(bundle)}\n"

    return follow_jsonl(path, frame, poll_s, max_renders, out)
