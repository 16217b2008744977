"""Write a benchmark's ``BENCH_*.json`` only when a result changed.

The files are tracked, and ``elapsed_s`` is one wall-clock sample that
differs on every run.  So a run rewrites its file only when some other
reported value differs from the file's, and rerunning unchanged code
leaves the tree clean.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict


def _results(report: Dict[str, object]) -> Dict[str, object]:
    return {key: value for key, value in report.items() if key != "elapsed_s"}


def write_report(path: Path, report: Dict[str, object]) -> bool:
    """Write ``report`` to ``path`` unless the file already holds the
    same values apart from ``elapsed_s``; returns whether it wrote."""
    text = json.dumps(report, indent=1) + "\n"
    try:
        recorded = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        recorded = None
    if recorded is not None and _results(recorded) == _results(
        json.loads(text)
    ):
        return False
    path.write_text(text)
    return True
