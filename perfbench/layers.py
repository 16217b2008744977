"""Per-layer host-time attribution of a profiled run.

The traced run wraps each call into the program in :mod:`cProfile`
and folds the resulting function table into the program's layers,
named after its packages.  A layer's *self time* is the time spent in
its own functions' bodies; time inside code outside the package
(builtins, numpy, the standard library) is charged to the layers that
called it, split by how much of it each caller caused.  The profiler
adds a fixed cost per call, so call-heavy layers read high in
absolute terms; compare a layer with itself across commits.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Dict, Optional, Tuple

import repro

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: (layer, path prefixes under ``repro/``); the first match wins.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("pricing", ("pricing/", "serve/costs.py", "fleet/costs.py")),
    ("kv", ("kv/",)),
    (
        "scheduler",
        (
            "serve/scheduler.py",
            "serve/state.py",
            "serve/request.py",
            "serve/resilience.py",
            "faults/",
        ),
    ),
    ("instrument", ("obs/", "telemetry/", "chaos/")),
    ("control", ("fleet/", "autoscale/", "plan/", "serve/")),
    # The rest of the package models the machine: engine, placement,
    # devices, memory tiers, interconnect, discrete-event timing.
    ("model", ("",)),
)
LAYER_NAMES = tuple(name for name, _ in LAYERS)
OUTSIDE = "outside"

Func = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or ``None`` outside ``repro``."""
    filename = os.path.abspath(filename)
    if not filename.startswith(PACKAGE_DIR):
        return None
    relative = filename[len(PACKAGE_DIR):].replace(os.sep, "/")
    for name, prefixes in LAYERS:
        if any(relative.startswith(prefix) for prefix in prefixes):
            return name
    return None


class LayerProfile:
    """Accumulates profiled calls; reduces them to per-layer totals."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()

    def call(self, fn, *args):
        self._profile.enable()
        try:
            return fn(*args)
        finally:
            self._profile.disable()

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s": seconds, "calls": count}}``."""
        stats = pstats.Stats(self._profile).stats
        result = {
            name: {"self_s": 0.0, "calls": 0.0}
            for name in LAYER_NAMES + (OUTSIDE,)
        }
        memo: Dict[Func, Dict[str, float]] = {}
        for func, (_, calls, self_s, _, _) in stats.items():
            own = layer_of(func[0])
            if own is not None:
                result[own]["calls"] += calls
            for name, share in _shares(func, stats, memo).items():
                result[name]["self_s"] += self_s * share
        return result


def _shares(func: Func, stats, memo, depth: int = 0) -> Dict[str, float]:
    """How ``func``'s self time splits over layers, via its callers."""
    own = layer_of(func[0])
    if own is not None:
        return {own: 1.0}
    if func in memo:
        return memo[func]
    # Provisional answer breaks caller cycles (recursion, callbacks).
    memo[func] = {OUTSIDE: 1.0}
    callers = stats[func][4] if func in stats else {}
    weights = {caller: entry[2] for caller, entry in callers.items()}
    total = sum(weights.values())
    if total <= 0.0:
        weights = {caller: entry[0] for caller, entry in callers.items()}
        total = sum(weights.values())
    if total <= 0.0 or depth > 16:
        return memo[func]
    split: Dict[str, float] = {}
    for caller, weight in weights.items():
        for name, share in _shares(caller, stats, memo, depth + 1).items():
            split[name] = split.get(name, 0.0) + share * weight / total
    memo[func] = split
    return split
