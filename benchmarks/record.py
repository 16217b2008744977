"""Write a benchmark's ``BENCH_*.json`` only when a result changed.

The files are tracked, and their timings (``elapsed_s`` and the like)
are wall-clock samples that differ on every run.  So a run rewrites its
file only when some other reported value differs from the file's, and
rerunning unchanged code leaves the tree clean.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Collection, Dict


def _results(
    report: Dict[str, object], timings: Collection[str]
) -> Dict[str, object]:
    return {
        key: value for key, value in report.items() if key not in timings
    }


def write_report(
    path: Path,
    report: Dict[str, object],
    timings: Collection[str] = ("elapsed_s",),
) -> bool:
    """Write ``report`` to ``path`` unless the file already holds the
    same values apart from the wall-clock-derived top-level keys in
    ``timings``; returns whether it wrote."""
    text = json.dumps(report, indent=1) + "\n"
    try:
        recorded = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        recorded = None
    if recorded is not None and _results(recorded, timings) == _results(
        json.loads(text), timings
    ):
        return False
    path.write_text(text)
    return True
