"""Shared helpers for experiment modules."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.engine import OffloadEngine
from repro.core.metrics import GenerationMetrics
from repro.core.policy import Policy

#: The paper's workload shape (Section III-B).
PROMPT_LEN = 128
GEN_LEN = 21

_CACHE: Dict[Tuple, Tuple[OffloadEngine, GenerationMetrics]] = {}


def run_engine(
    model: str,
    host: str,
    placement: str = "baseline",
    batch_size: int = 1,
    compress: bool = False,
    policy: Optional[Policy] = None,
) -> Tuple[OffloadEngine, GenerationMetrics]:
    """Build and run one timing configuration, memoized per process."""
    key = (model, host, placement, batch_size, compress, policy)
    if key not in _CACHE:
        engine = OffloadEngine(
            model=model,
            host=host,
            placement=placement,
            policy=policy,
            compress_weights=compress,
            batch_size=batch_size,
            prompt_len=PROMPT_LEN,
            gen_len=GEN_LEN,
        )
        _CACHE[key] = (engine, engine.run_timing())
    return _CACHE[key]


def clear_cache() -> None:
    _CACHE.clear()
