"""Human-readable rendering of telemetry bundles.

One formatter, two consumers: the ``repro-telemetry summary`` command
renders a whole bundle grouped by subsystem, and ``repro-serve``'s
report pulls its pricing/cache line from the same registry counters —
so counter formatting lives here and nowhere else.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.telemetry.registry import MetricsRegistry


def _fmt_value(value: float) -> str:
    if float(value) == int(value):
        return str(int(value))
    return f"{value:.6g}"


def _label_suffix(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def summary_lines(bundle: Mapping) -> List[str]:
    """The bundle as indented text, grouped by top-level namespace."""
    metrics = bundle.get("metrics", {})
    groups: Dict[str, List[str]] = {}

    def add(name: str, labels: Mapping[str, str], text: str) -> None:
        subsystem, _, rest = name.partition("/")
        rest = rest or subsystem
        groups.setdefault(subsystem, []).append(
            (rest + _label_suffix(labels), text)
        )

    for entry in metrics.get("counters", ()):
        add(entry["name"], entry.get("labels", {}),
            _fmt_value(entry["value"]))
    for entry in metrics.get("gauges", ()):
        add(entry["name"], entry.get("labels", {}),
            _fmt_value(entry["value"]))
    for entry in metrics.get("histograms", ()):
        if entry["count"]:
            text = (
                f"n={entry['count']} mean={entry['sum'] / entry['count']:.6g} "
                f"min={entry['min']:.6g} max={entry['max']:.6g}"
            )
        else:
            text = "n=0 (no data)"
        add(entry["name"], entry.get("labels", {}), text)

    lines: List[str] = []
    for subsystem in sorted(groups):
        lines.append(f"{subsystem}:")
        rows = groups[subsystem]
        width = max(len(name) for name, _ in rows)
        for name, text in rows:
            lines.append(f"  {name:<{width}} : {text}")

    spans = bundle.get("spans", ())
    if spans:
        by_category: Dict[str, int] = {}
        for span in spans:
            category = span.get("category", "span")
            by_category[category] = by_category.get(category, 0) + 1
        breakdown = ", ".join(
            f"{category} {count}"
            for category, count in sorted(by_category.items())
        )
        lines.append(f"spans: {len(spans)} ({breakdown})")
    return lines


def render_summary(bundle: Mapping) -> str:
    return "\n".join(summary_lines(bundle))


def cache_stats_line(registry: MetricsRegistry) -> Optional[str]:
    """The ``repro-serve`` pricing/cache report line, off the registry.

    Returns None when the run never touched the price cache (no
    counters registered), so callers can skip the row entirely.
    """
    hits = registry.value("pricing/cache/hits")
    misses = registry.value("pricing/cache/misses")
    if hits is None and misses is None:
        return None
    hits = int(hits or 0)
    misses = int(misses or 0)
    lookups = hits + misses
    rate = hits / lookups if lookups else 0.0
    line = f"cache {hits} hits / {misses} misses ({rate:.1%} hit rate)"
    memo_entries = registry.value("pricing/backend/entries")
    if memo_entries is not None:
        line += f", {int(memo_entries)} backend memo entries"
    return line
