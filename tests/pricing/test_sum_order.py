"""Float totals are added strictly left to right on every Python.

Builtin ``sum`` compensates rounding since Python 3.12, so a total
reduced with it would depend on the interpreter, and the grid's
``np.add.accumulate`` totals (sequential by construction) would stop
equalling :meth:`IterationParts.total_s`.  The inputs here are ones
where the sequential and the compensated (``math.fsum``) orders
disagree, so each assertion tells the two apart.
"""

import math

import numpy as np

from repro.core.metrics import Stage
from repro.pricing import CostGrid, IterationParts
from repro.pricing.parts import sum_in_order
from repro.serve.request import (
    STANDARD,
    RequestRecord,
    RequestSpec,
    ServeRequest,
)

#: Ten 0.1 s layers: 0.9999999999999999 in order, 1.0 compensated.
LAYERS = (0.1,) * 10


def _in_order(values):
    total = 0.0
    for value in values:
        total += value
    return total


def test_inputs_tell_the_orders_apart():
    assert _in_order(LAYERS) != math.fsum(LAYERS)
    assert sum_in_order(LAYERS) == _in_order(LAYERS)


def test_iteration_totals_add_in_order():
    idle = (0.0,) * len(LAYERS)
    overlapped = IterationParts(LAYERS, idle, overlap=True)
    serial = IterationParts(idle, LAYERS, overlap=False)
    assert overlapped.total_s() == serial.total_s() == _in_order(LAYERS)
    assert overlapped.transfer_s == serial.compute_s == _in_order(LAYERS)
    scaled = [layer * 3.0 for layer in LAYERS]
    assert _in_order(scaled) != math.fsum(scaled)
    assert overlapped.total_s(3.0) == _in_order(scaled)


def test_grid_totals_add_in_order():
    layers = np.asarray(LAYERS).reshape(1, 1, len(LAYERS))
    grid = CostGrid(
        stage=Stage.DECODE,
        batch_sizes=(1,),
        context_lens=(32,),
        transfers=layers,
        computes=np.zeros_like(layers),
        overlap=True,
    )
    assert grid.totals()[0, 0] == _in_order(LAYERS)
    assert grid.parts_at(0, 0).total_s() == _in_order(LAYERS)


def test_time_between_tokens_adds_in_order():
    times = [0.0, 0.001, 0.101, 0.201, 0.901]
    gaps = [later - earlier for earlier, later in zip(times, times[1:])]
    assert _in_order(gaps) / 4 != math.fsum(gaps) / 4
    request = ServeRequest(
        spec=RequestSpec(
            request_id=0,
            arrival_s=0.0,
            prompt_len=32,
            gen_len=len(times),
            qos_class=STANDARD.name,
        ),
        qos=STANDARD,
        admitted_s=0.0,
        token_times=times,
    )
    record = RequestRecord.from_request(request)
    assert record.tbt_s == _in_order(gaps) / 4
