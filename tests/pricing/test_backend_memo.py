"""The backends' per-spec memos are observable through ``cache_info``.

``AnalyticBackend`` memoizes one cost model per spec and one grid per
spec family; ``EventBackend`` one executor per spec.  Both report the
memo size as ``entries``, which the serving report and the
``pricing/backend/entries`` gauge surface.
"""

import pytest

from repro.core.engine import OffloadEngine
from repro.pricing import AnalyticBackend


@pytest.fixture(scope="module")
def specs():
    engine = OffloadEngine(
        model="opt-1.3b", host="DRAM", placement="helm", batch_size=1
    )
    base = engine.run_spec(include_faults=False)
    return [base.with_shape(batch_size=batch) for batch in (1, 2, 3, 4)]


def test_unbounded_by_default(specs):
    backend = AnalyticBackend()
    for spec in specs:
        backend.layer_model(spec)
    assert backend.cache_info == {"entries": len(specs)}
