"""Helpers shared by ``run.py`` and ``probe.py``."""

import sys
import time
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Host times are reported as if the machine ran :func:`reference_loop`
#: in exactly this many seconds.  A shared machine changes speed by up
#: to 2x for seconds to minutes at a time, so raw wall times of the same
#: run differ by half again from one run to the next.  Each timing is
#: multiplied by ``(REFERENCE_NOMINAL_S / loop) ** REFERENCE_EXPONENT``,
#: with ``loop`` the reference loop's time measured around it.  The
#: simulator slows down less than the tight reference loop does; of the
#: exponents tried (0.6, 0.8, 1.0) 0.8 gave the smallest worst-case
#: run-to-run spread over the workloads, about 5% against 15-35% for
#: raw wall time on a 2-vCPU Xeon virtual machine.
REFERENCE_NOMINAL_S = 0.02
REFERENCE_EXPONENT = 0.8
REFERENCE_ITERATIONS = 60000


def add_program_to_path() -> None:
    """Put ``src/`` first on ``sys.path``; exit 2 when it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources at {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def scaled(seconds: float, loop_before: float, loop_after: float) -> float:
    """``seconds`` at the reference speed, given the loops around it."""
    loop = (loop_before + loop_after) / 2.0
    return seconds * (REFERENCE_NOMINAL_S / loop) ** REFERENCE_EXPONENT


def reference_loop() -> float:
    """Seconds for a fixed pure-Python job (dict updates, int->str)."""
    started = time.perf_counter()
    table: Dict[int, int] = {}
    digits = 0
    for i in range(REFERENCE_ITERATIONS):
        key = i % 997
        table[key] = table.get(key, 0) + i
        digits += len(str(i))
    return time.perf_counter() - started
