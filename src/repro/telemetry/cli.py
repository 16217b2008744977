"""``repro-telemetry`` — inspect and convert saved telemetry bundles.

::

    repro-serve --rate 0.2 --requests 50 --telemetry-out run.json
    repro-telemetry summary run.json
    repro-telemetry export run.json --format prom -o metrics.prom
    repro-telemetry export run.json --format jsonl
    repro-telemetry export run.json --format chrome -o spans.trace.json
    repro-telemetry dash live.jsonl            # live terminal dashboard
    repro-telemetry diff before.json after.json
    repro-telemetry profile run.json --folded out.folded

``export --format chrome`` renders the serving-level spans; the
*merged* trace with engine compute/transfer tracks underneath is
written live by ``repro-serve --chrome-trace`` (the engine trace is
not part of the bundle).

``dash`` tails a JSONL event log (same contract as ``summary
--follow``) and re-renders a terminal dashboard of the windowed
``obs/``, ``slo/``, KV-occupancy, and sweep ``progress/`` gauges.
``diff`` compares two bundles and exits 2 when a metric regressed
past the thresholds — wire it into CI.  ``profile`` prints the
virtual-time span profile and critical path; ``--folded`` writes
flamegraph.pl / speedscope-compatible folded stacks.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import ReproError, TelemetryError
from repro.telemetry.export import (
    bundle_from_jsonl_lines,
    follow_jsonl,
    to_chrome_trace,
    to_jsonl_text,
    to_prometheus_text,
)
from repro.telemetry.summary import render_summary

EXPORT_FORMATS = ("prom", "jsonl", "chrome")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-telemetry",
        description=(
            "Summarize or convert a telemetry bundle written by "
            "repro-serve/repro-experiments --telemetry-out."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summary = sub.add_parser(
        "summary", help="print registry metrics and span counts"
    )
    summary.add_argument("bundle", help="bundle JSON path")
    summary.add_argument(
        "--follow", action="store_true",
        help="treat the path as a JSONL event log (export --format "
        "jsonl, or a fleet run's --telemetry-out *.jsonl) and re-render "
        "the summary as lines are appended",
    )
    summary.add_argument(
        "--poll-s", type=float, default=0.5,
        help="--follow poll interval in seconds (default 0.5)",
    )
    summary.add_argument(
        "--max-renders", type=int, default=None,
        help="--follow: exit after this many renders (default: until "
        "interrupted)",
    )

    export = sub.add_parser(
        "export", help="convert a bundle to an exchange format"
    )
    export.add_argument("bundle", help="bundle JSON path")
    export.add_argument(
        "--format", dest="fmt", required=True, choices=EXPORT_FORMATS,
        help="prom (Prometheus text), jsonl (event log), or chrome "
        "(Perfetto-loadable span trace)",
    )
    export.add_argument(
        "-o", "--out", metavar="FILE", default=None,
        help="output path (default: stdout)",
    )

    dash = sub.add_parser(
        "dash",
        help="live terminal dashboard over a JSONL telemetry stream",
    )
    dash.add_argument(
        "bundle", help="JSONL event-log path (repro-serve "
        "--telemetry-out run.jsonl, or export --format jsonl)",
    )
    dash.add_argument(
        "--poll-s", type=float, default=0.5,
        help="poll interval in seconds (default 0.5)",
    )
    dash.add_argument(
        "--max-renders", type=int, default=None,
        help="exit after this many frames (default: until interrupted)",
    )
    dash.add_argument(
        "--no-clear", action="store_true",
        help="do not clear the terminal between frames (append frames "
        "instead; useful for logs and tests)",
    )

    diff = sub.add_parser(
        "diff",
        help="compare two bundles; exit 2 on metric regressions",
    )
    diff.add_argument("before", help="baseline bundle JSON path")
    diff.add_argument("after", help="candidate bundle JSON path")
    diff.add_argument(
        "--relative", type=float, default=0.05,
        help="relative change needed to be significant (default 0.05)",
    )
    diff.add_argument(
        "--abs", dest="absolute", type=float, default=1e-9,
        help="absolute change floor (default 1e-9)",
    )
    diff.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the machine-readable report to FILE",
    )
    diff.add_argument(
        "--include-progress", action="store_true",
        help="also diff the wall-clock progress/ namespace (skipped "
        "by default: it is legitimately nondeterministic)",
    )

    profile = sub.add_parser(
        "profile",
        help="virtual-time span profile, critical path, folded stacks",
    )
    profile.add_argument("bundle", help="bundle JSON path")
    profile.add_argument(
        "--folded", metavar="FILE", default=None,
        help="write folded stacks (flamegraph.pl / speedscope input) "
        "to FILE instead of printing the profile",
    )
    profile.add_argument(
        "--top", type=int, default=20,
        help="rows of the self-time table to print (default 20)",
    )
    return parser


def follow_summary(
    path: str,
    poll_s: float = 0.5,
    max_renders: Optional[int] = None,
    out=None,
) -> int:
    """Tail a JSONL telemetry export, re-rendering the summary."""

    def frame(bundle, renders: int, count: int) -> str:
        header = f"--- render {renders} ({count} lines) ---"
        return f"{header}\n{render_summary(bundle)}\n"

    return follow_jsonl(path, frame, poll_s, max_renders, out)


def _load(path: str) -> dict:
    """Load a bundle from plain JSON or a JSONL event log.

    Every read-a-bundle subcommand accepts both shapes, so a
    ``--telemetry-out run.jsonl`` stream can go straight into
    ``summary``/``diff``/``profile`` without a conversion step.
    """
    with open(path) as handle:
        text = handle.read()
    try:
        bundle = json.loads(text)
    except json.JSONDecodeError:
        lines = [line for line in text.splitlines() if line.strip()]
        if lines:
            try:
                first = json.loads(lines[0])
            except json.JSONDecodeError:
                raise
            if isinstance(first, dict) and "type" in first:
                return bundle_from_jsonl_lines(lines)
        raise
    if not isinstance(bundle, dict) or "metrics" not in bundle:
        raise TelemetryError(
            f"{path}: not a telemetry bundle (missing 'metrics')"
        )
    return bundle


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)
        print(f"written to {out}")


def _profile_costs(bundle):
    """Rebuild the run's cost model from bundle meta, best effort.

    The attribution falls back to span attributes (and then raw
    durations) when the meta does not name a model/host/placement the
    engine can instantiate, so failing here is never fatal.
    """
    meta = bundle.get("meta", {})
    try:
        from repro.core.engine import OffloadEngine

        return OffloadEngine(
            model=meta["model"],
            host=meta["host"],
            placement=meta["placement"],
        ).cost_model()
    except Exception:
        return None


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "summary" and args.follow:
            return follow_summary(
                args.bundle,
                poll_s=args.poll_s,
                max_renders=args.max_renders,
            )
        if args.command == "dash":
            from repro.obs.dash import follow_dash

            return follow_dash(
                args.bundle,
                poll_s=args.poll_s,
                max_renders=args.max_renders,
                clear=not args.no_clear,
            )
        if args.command == "diff":
            from repro.obs.diff import (
                DiffThresholds,
                diff_bundles,
                render_diff,
            )

            report = diff_bundles(
                _load(args.before),
                _load(args.after),
                thresholds=DiffThresholds(
                    relative=args.relative, absolute=args.absolute
                ),
                ignore_namespaces=(
                    () if args.include_progress else ("progress",)
                ),
            )
            print(render_diff(report, args.before, args.after))
            if args.json:
                with open(args.json, "w") as handle:
                    json.dump(report.as_dict(), handle, indent=1)
                print(f"report written to {args.json}")
            return report.exit_code
        bundle = _load(args.bundle)
        if args.command == "profile":
            from repro.obs.profile import folded_stacks, render_profile

            spans = bundle.get("spans", [])
            if args.folded:
                with open(args.folded, "w") as handle:
                    for line in folded_stacks(spans):
                        handle.write(line + "\n")
                print(f"folded stacks written to {args.folded}")
                return 0
            print(
                render_profile(
                    spans, costs=_profile_costs(bundle), top=args.top
                )
            )
            return 0
        if args.command == "summary":
            meta = bundle.get("meta", {})
            if meta:
                source = ", ".join(
                    f"{key}={value}" for key, value in sorted(meta.items())
                )
                print(f"[{source}]")
            print(render_summary(bundle))
            return 0
        if args.fmt == "prom":
            _emit(to_prometheus_text(bundle), args.out)
        elif args.fmt == "jsonl":
            _emit(to_jsonl_text(bundle), args.out)
        else:
            _emit(
                json.dumps(to_chrome_trace(bundle)) + "\n", args.out
            )
        return 0
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as error:
        path = getattr(args, "bundle", None) or getattr(
            args, "before", "input"
        )
        print(f"error: {path}: not JSON ({error})", file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
