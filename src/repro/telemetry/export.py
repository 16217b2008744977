"""Exporters: Prometheus text, JSONL event log, extended Chrome trace.

All three render the same *bundle* — the JSON-able dict produced by
:meth:`repro.telemetry.Telemetry.bundle` (``meta`` + registry
snapshot + finished spans) — so a run saved with ``--telemetry-out``
can be re-exported offline by ``repro-telemetry export`` without
re-running anything.

The Chrome exporter extends :mod:`repro.sim.chrome_trace`: the
engine's operation-level trace keeps its per-stream tracks (process
0), and serving-level spans are overlaid as a second process —
request spans as async begin/end pairs (they overlap freely),
run/iteration spans as complete events, span events as instants.
Load the result in Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from repro.errors import TelemetryError
from repro.sim.chrome_trace import trace_to_chrome_events
from repro.sim.trace import Trace

#: Chrome-trace process ids: engine streams vs. serving-level spans.
ENGINE_PID = 0
SPAN_PID = 1


def _bundle_parts(bundle: Mapping) -> Dict:
    if "metrics" not in bundle:
        raise TelemetryError(
            "not a telemetry bundle: missing 'metrics' "
            "(expected the dict written by --telemetry-out)"
        )
    return {
        "meta": dict(bundle.get("meta", {})),
        "metrics": bundle["metrics"],
        "spans": list(bundle.get("spans", ())),
    }


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------

def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch in "_:" else "_")
    sanitized = "".join(out)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_value(value: float) -> str:
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def _prom_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash first
    (so escapes are not re-escaped), then double-quote and newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [
        f'{_prom_name(key)}="{_prom_label_value(value)}"'
        for key, value in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def to_prometheus_text(bundle: Mapping) -> str:
    """The bundle's metrics in the Prometheus exposition format."""
    metrics = _bundle_parts(bundle)["metrics"]
    lines: List[str] = []
    seen_header = set()

    def header(name: str, kind: str, help_text: str) -> None:
        if name in seen_header:
            return
        seen_header.add(name)
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    for entry in metrics.get("counters", ()):
        name = _prom_name(entry["name"])
        if not name.endswith("_total"):
            name += "_total"
        header(name, "counter", entry.get("help", ""))
        lines.append(
            f"{name}{_prom_labels(entry.get('labels', {}))} "
            f"{_prom_value(entry['value'])}"
        )
    for entry in metrics.get("gauges", ()):
        name = _prom_name(entry["name"])
        header(name, "gauge", entry.get("help", ""))
        lines.append(
            f"{name}{_prom_labels(entry.get('labels', {}))} "
            f"{_prom_value(entry['value'])}"
        )
    for entry in metrics.get("histograms", ()):
        name = _prom_name(entry["name"])
        header(name, "histogram", entry.get("help", ""))
        labels = entry.get("labels", {})
        cumulative = 0
        for bound, count in zip(entry["buckets"], entry["counts"]):
            cumulative += count
            le = 'le="%s"' % format(bound, "g")
            lines.append(
                f"{name}_bucket{_prom_labels(labels, le)} {cumulative}"
            )
        cumulative += entry["counts"][len(entry["buckets"])]
        inf = 'le="+Inf"'
        lines.append(
            f"{name}_bucket{_prom_labels(labels, inf)} {cumulative}"
        )
        lines.append(
            f"{name}_sum{_prom_labels(labels)} "
            f"{_prom_value(entry['sum'])}"
        )
        lines.append(
            f"{name}_count{_prom_labels(labels)} {int(entry['count'])}"
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------

def to_jsonl_lines(bundle: Mapping) -> Iterable[str]:
    """The bundle as one JSON object per line.

    Order is deterministic: meta, spans (id order), span events
    (span id, then event order), then metrics.
    """
    parts = _bundle_parts(bundle)
    yield json.dumps({"type": "meta", **parts["meta"]}, sort_keys=True)
    for span in parts["spans"]:
        record = {
            key: value for key, value in span.items() if key != "events"
        }
        yield json.dumps({"type": "span", **record}, sort_keys=True)
        for event in span.get("events", ()):
            yield json.dumps(
                {
                    "type": "span_event",
                    "span_id": span["span_id"],
                    **event,
                },
                sort_keys=True,
            )
    metrics = parts["metrics"]
    for kind in ("counters", "gauges", "histograms"):
        for entry in metrics.get(kind, ()):
            yield json.dumps(
                {"type": "metric", "kind": kind[:-1], **entry},
                sort_keys=True,
            )


def to_jsonl_text(bundle: Mapping) -> str:
    return "\n".join(to_jsonl_lines(bundle)) + "\n"


def append_jsonl_snapshot(
    bundle: Mapping, path: str, reset: bool = True
) -> None:
    """Append one full export of ``bundle`` to a live JSONL log.

    With ``reset`` (the default) a ``{"type": "reset"}`` marker
    precedes the export, so tailing readers (``--follow``, ``dash``)
    replace their state with this snapshot instead of accumulating
    duplicates.  The file stays append-only, which is what keeps the
    offset-based follow machinery valid.
    """
    with open(path, "a") as handle:
        if reset:
            handle.write(json.dumps({"type": "reset"}) + "\n")
        handle.write(to_jsonl_text(bundle))


def bundle_from_jsonl_lines(lines: Iterable[str]) -> Dict[str, object]:
    """Rebuild a bundle dict from :func:`to_jsonl_lines` output.

    The inverse of the JSONL exporter, tolerant of *prefixes* of a
    stream: a log still being appended to (``repro-telemetry summary
    --follow``) parses to a bundle of whatever has landed so far.
    Unknown record types are ignored so the format can grow.

    A ``{"type": "reset"}`` record clears everything accumulated so
    far: long sweeps (``repro-experiments run all --telemetry-out
    sweep.jsonl``) append a fresh ``reset`` + full export after each
    cell, so an append-only log stays tailable
    (``repro-telemetry dash``) while always parsing to the *latest*
    snapshot.  One-shot exports never emit it.
    """
    meta: Dict[str, object] = {}
    spans: List[Dict[str, object]] = []
    span_index: Dict[object, Dict[str, object]] = {}
    metrics: Dict[str, List[Dict[str, object]]] = {
        "counters": [],
        "gauges": [],
        "histograms": [],
    }
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise TelemetryError(
                f"line {line_no}: not JSON ({error})"
            ) from None
        if not isinstance(record, dict) or "type" not in record:
            raise TelemetryError(
                f"line {line_no}: not a JSONL export record "
                "(missing 'type')"
            )
        kind = record.pop("type")
        if kind == "reset":
            meta = {}
            spans = []
            span_index = {}
            metrics = {"counters": [], "gauges": [], "histograms": []}
        elif kind == "meta":
            meta = record
        elif kind == "span":
            record["events"] = []
            spans.append(record)
            span_index[record.get("span_id")] = record
        elif kind == "span_event":
            span_id = record.pop("span_id", None)
            parent = span_index.get(span_id)
            if parent is None:
                raise TelemetryError(
                    f"line {line_no}: span_event for unknown span "
                    f"{span_id!r}"
                )
            parent["events"].append(record)
        elif kind == "metric":
            family = record.pop("kind", None)
            if family not in ("counter", "gauge", "histogram"):
                raise TelemetryError(
                    f"line {line_no}: unknown metric kind {family!r}"
                )
            metrics[f"{family}s"].append(record)
    return {
        "version": 1,
        "meta": meta,
        "metrics": metrics,
        "spans": spans,
    }


def follow_jsonl(
    path: str,
    render: Callable[[Dict[str, object], int, int], str],
    poll_s: float = 0.5,
    max_renders: Optional[int] = None,
    out=None,
) -> int:
    """Tail a JSONL export, writing ``render(bundle, renders, lines)``
    once at the start and whenever complete lines arrive.

    A trailing partial line is held back until its newline arrives, so
    following a finished log renders what a one-shot parse would.
    Stops after ``max_renders`` renders, or on Ctrl-C.
    """
    out = out if out is not None else sys.stdout
    offset = 0
    tail = b""
    lines: List[str] = []
    renders = 0
    try:
        while max_renders is None or renders < max_renders:
            with open(path, "rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
            offset += len(chunk)
            tail += chunk
            fresh = tail.split(b"\n")
            tail = fresh.pop()  # incomplete (or empty) final piece
            if fresh or renders == 0:
                lines.extend(piece.decode("utf-8") for piece in fresh)
                renders += 1
                out.write(
                    render(bundle_from_jsonl_lines(lines), renders, len(lines))
                )
                out.flush()
            if max_renders is not None and renders >= max_renders:
                break
            time.sleep(poll_s)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


# ----------------------------------------------------------------------
# Extended Chrome / Perfetto trace
# ----------------------------------------------------------------------

def spans_to_chrome_events(
    spans: Iterable[Mapping],
) -> List[Dict[str, object]]:
    """Serving-level spans as trace events in process :data:`SPAN_PID`.

    Request/shed spans become async begin/end pairs (one async track
    per span name family, overlapping freely, as concurrent requests
    do); everything else becomes a complete ("X") event on a track
    named after its category, nesting children over parents.
    """
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": SPAN_PID,
            "args": {"name": "serving spans"},
        }
    ]
    track_ids: Dict[str, int] = {}

    def track(name: str) -> int:
        if name not in track_ids:
            tid = len(track_ids)
            track_ids[name] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": SPAN_PID,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        return track_ids[name]

    for span in spans:
        category = span.get("category", "span")
        attrs = {
            str(key): str(value)
            for key, value in span.get("attrs", {}).items()
        }
        start_us = span["start_s"] * 1e6
        duration_us = (span["end_s"] - span["start_s"]) * 1e6
        if category in ("request", "shed"):
            lane = str(span.get("attrs", {}).get("qos", category))
            tid = track(f"requests:{lane}")
            common = {
                "name": span["name"],
                "cat": category,
                "id": span["span_id"],
                "pid": SPAN_PID,
                "tid": tid,
            }
            events.append(
                {**common, "ph": "b", "ts": start_us, "args": attrs}
            )
            events.append(
                {**common, "ph": "e", "ts": start_us + duration_us}
            )
        else:
            tid = track(category)
            events.append(
                {
                    "name": span["name"],
                    "cat": category,
                    "ph": "X",
                    "pid": SPAN_PID,
                    "tid": tid,
                    "ts": start_us,
                    "dur": duration_us,
                    "args": attrs,
                }
            )
        for event in span.get("events", ()):
            events.append(
                {
                    "name": event["name"],
                    "cat": category,
                    "ph": "i",
                    "s": "t",
                    "pid": SPAN_PID,
                    "tid": tid,
                    "ts": event["time_s"] * 1e6,
                    "args": {
                        str(key): str(value)
                        for key, value in event.get("attrs", {}).items()
                    },
                }
            )
    return events


def to_chrome_trace(
    bundle: Mapping, trace: Optional[Trace] = None
) -> Dict[str, object]:
    """The bundle (plus an optional engine trace) as one trace JSON."""
    events: List[Dict[str, object]] = []
    if trace is not None:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": ENGINE_PID,
                "args": {"name": "engine streams"},
            }
        )
        events.extend(trace_to_chrome_events(trace))
    events.extend(spans_to_chrome_events(_bundle_parts(bundle)["spans"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def save_extended_chrome_trace(
    bundle: Mapping, path: str, trace: Optional[Trace] = None
) -> None:
    """Write the overlaid Perfetto-loadable trace JSON to ``path``."""
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(bundle, trace=trace), handle)
