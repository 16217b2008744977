"""Command-line interface for the experiment harness.

::

    repro-experiments list
    repro-experiments run all
    repro-experiments run fig11_helm fig12_allcpu
    repro-experiments run all --json results.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from repro.experiments.registry import EXPERIMENTS, run_experiment


def _jsonable(value):
    """Best-effort conversion of experiment data to JSON types."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Improving the "
            "Performance of Out-of-Core LLM Inference Using "
            "Heterogeneous Host Memory' (IISWC 2025)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "names",
        nargs="+",
        help="experiment names, or 'all'",
    )
    run_parser.add_argument(
        "--json",
        metavar="FILE",
        help="also dump every experiment's structured data to FILE",
    )
    run_parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller sweeps for smoke tests (sets REPRO_QUICK=1)",
    )
    run_parser.add_argument(
        "--telemetry-out",
        metavar="FILE",
        help="capture metrics/spans across the run and write the "
        "telemetry bundle as JSON, readable by repro-telemetry",
    )
    figures_parser = sub.add_parser(
        "figures", help="render the paper's figures as SVG"
    )
    figures_parser.add_argument("out_dir", help="output directory")
    figures_parser.add_argument(
        "--only",
        nargs="+",
        metavar="FIG",
        help="figure families to render (default: all)",
    )
    sub.add_parser(
        "scorecard",
        help="grade every published claim against a fresh run",
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    if args.command == "figures":
        from repro.viz.figures import FIGURES, render_figure

        names = args.only if args.only else sorted(FIGURES)
        written = []
        for name in names:
            written.extend(render_figure(name, args.out_dir))
        for path in written:
            print(path)
        return 0

    if args.command == "scorecard":
        from repro.experiments.paper_values import (
            Grade,
            render_scorecard,
            scorecard,
        )

        results = scorecard()
        print(render_scorecard(results))
        divergent = sum(
            1 for result in results if result.grade is Grade.DIVERGENT
        )
        # Divergences are expected and documented; the exit code only
        # flags *undocumented* ones.
        undocumented = sum(
            1
            for result in results
            if result.grade is Grade.DIVERGENT and not result.claim.note
        )
        return 1 if undocumented else 0

    if getattr(args, "quick", False):
        import os

        os.environ["REPRO_QUICK"] = "1"
    names = sorted(EXPERIMENTS) if args.names == ["all"] else args.names
    telemetry = None
    if getattr(args, "telemetry_out", None):
        from repro.telemetry import Telemetry

        telemetry = Telemetry.create(
            tool="repro-experiments", experiments=",".join(names)
        )
    # Sweep-progress gauges.  progress/ is the one namespace where
    # wall-clock readings are allowed (repro-telemetry diff skips it
    # by default), so a long `run all` is watchable live with
    # `repro-telemetry dash sweep.jsonl`.
    progress = telemetry.scoped("progress") if telemetry else None
    live_jsonl = (
        args.telemetry_out
        if telemetry is not None and args.telemetry_out.endswith(".jsonl")
        else None
    )
    if live_jsonl:
        # Truncate: the log is append-only *within* a sweep.
        open(live_jsonl, "w").close()
    sweep_started = time.time()
    failures = 0
    dump: Dict[str, object] = {}
    for index, name in enumerate(names):
        if progress is not None:
            progress.gauge("experiments_total").set(len(names))
            progress.gauge("experiments_completed").set(index)
            progress.gauge("experiments_failed").set(failures)
            progress.gauge("running", labels={"experiment": name}).set(1)
        started = time.time()
        try:
            result = _run_one(name, telemetry)
        except Exception as error:  # surface, keep going
            failures += 1
            print(f"### {name}: FAILED: {error}", file=sys.stderr)
            result = None
        if progress is not None:
            elapsed = time.time() - sweep_started
            progress.gauge("running", labels={"experiment": name}).set(0)
            progress.gauge("experiments_completed").set(index + 1)
            progress.gauge("experiments_failed").set(failures)
            progress.gauge("elapsed_s").set(elapsed)
            progress.gauge("experiments_per_s").set(
                (index + 1) / elapsed if elapsed > 0 else 0.0
            )
        if live_jsonl:
            from repro.telemetry.export import append_jsonl_snapshot

            append_jsonl_snapshot(telemetry.bundle(), live_jsonl)
        if result is None:
            continue
        print(result.render())
        print(f"[{name} finished in {time.time() - started:.1f}s]\n")
        dump[name] = {
            "description": result.description,
            "data": _jsonable(result.data),
        }
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(dump, handle, indent=1)
        print(f"[structured data written to {args.json}]")
    if telemetry is not None:
        if live_jsonl:
            print(
                f"[telemetry JSONL written to {live_jsonl} "
                "(tail with: repro-telemetry dash)]"
            )
        else:
            telemetry.save(args.telemetry_out)
            print(
                f"[telemetry bundle written to {args.telemetry_out}]"
            )
    return 1 if failures else 0


def _run_one(name: str, telemetry):
    """Run one experiment, with ``telemetry`` ambient when given.

    Experiments call :func:`repro.serve.simulate_serving` and
    :meth:`repro.core.OffloadEngine.run_timing` internally; making the
    bundle ambient captures their metrics without threading a
    parameter through every experiment body.
    """
    if telemetry is None:
        return run_experiment(name)
    from repro.telemetry import use_telemetry

    with use_telemetry(telemetry):
        return run_experiment(name)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
