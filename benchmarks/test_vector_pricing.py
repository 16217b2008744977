"""Benchmark: the vectorized grid vs scalar pricing of the same cells.

Prices one (batch x context-bucket) grid for an OPT-30B HeLM
deployment twice — cell by cell through the scalar reference walk
(``LayerCostModel.iteration_layer_times``, one walk per cell; the
analytic backend itself now prices through the grid, so it is no
baseline), and in one vectorized :class:`~repro.pricing.LayerCostGrid`
pass — asserting the grid is at least 5x faster while remaining
float-for-float equal on sampled cells.  The measured times land in ``BENCH_vector.json`` at the repo
root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.engine import OffloadEngine
from repro.core.metrics import Stage
from repro.pricing import AnalyticBackend, IterationParts, LayerCostGrid

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_vector.json"

#: The grid must beat cell-by-cell scalar pricing by at least this.
MIN_SPEEDUP = 5.0

BATCHES = tuple(range(1, 17))
BUCKETS = tuple(range(64, 64 + 32 * 32, 32))


def _spec():
    engine = OffloadEngine(
        model="opt-30b",
        host="NVDRAM",
        placement="helm",
        compress_weights=True,
        batch_size=1,
    )
    return engine.run_spec(include_faults=False)


def test_grid_speedup_over_scalar(benchmark):
    spec = _spec()

    def scalar_parts_of(backend, shaped, bucket):
        model = backend.layer_model(shaped)
        transfers, computes = model.iteration_layer_times(
            Stage.DECODE, bucket
        )
        return IterationParts(
            transfers=tuple(transfers),
            computes=tuple(computes),
            overlap=shaped.overlap,
        )

    # Warm imports / allocator outside the timed sections.
    LayerCostGrid(spec).evaluate(Stage.DECODE, (1,), (64,))
    scalar_parts_of(AnalyticBackend(), spec, 64)

    def scalar_job():
        backend = AnalyticBackend()
        return [
            scalar_parts_of(
                backend, spec.with_shape(batch_size=batch), bucket
            )
            for batch in BATCHES
            for bucket in BUCKETS
        ]

    def grid_job():
        return LayerCostGrid(spec).evaluate(Stage.DECODE, BATCHES, BUCKETS)

    started = time.perf_counter()
    scalar_parts = scalar_job()
    scalar_s = time.perf_counter() - started

    grid = benchmark.pedantic(grid_job, rounds=1, iterations=1)
    started = time.perf_counter()
    grid_job()
    grid_s = time.perf_counter() - started

    # Same prices, to the last bit, on a sample of cells.
    cells = len(BATCHES) * len(BUCKETS)
    for index in range(0, cells, 37):
        i, j = divmod(index, len(BUCKETS))
        assert grid.parts_at(i, j) == scalar_parts[index]

    speedup = scalar_s / grid_s
    BENCH_PATH.write_text(
        json.dumps(
            {
                "config": "opt-30b / NVDRAM / helm, decode",
                "cells": cells,
                "scalar_s": round(scalar_s, 4),
                "grid_s": round(grid_s, 4),
                "speedup": round(speedup, 1),
                "min_speedup": MIN_SPEEDUP,
            },
            indent=1,
        )
        + "\n"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"grid priced {cells} cells in {grid_s:.3f}s vs scalar "
        f"{scalar_s:.3f}s — only {speedup:.1f}x (need {MIN_SPEEDUP}x)"
    )
