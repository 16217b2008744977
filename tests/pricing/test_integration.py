"""Pricing through the engine façade and the serving cost model."""

from repro.core.engine import OffloadEngine
from repro.core.metrics import Stage
from repro.pricing import EventBackend, build_executor
from repro.serve.costs import IterationCostModel


def _engine(**kwargs):
    defaults = dict(
        model="opt-30b", host="NVDRAM", placement="helm",
        compress_weights=True,
    )
    defaults.update(kwargs)
    return OffloadEngine(**defaults)


def test_build_executor_forwards_spec():
    engine = _engine(batch_size=3)
    executor = build_executor(engine.run_spec(overlap=False))
    assert executor.host is engine.host
    assert executor.placement is engine.placement_result
    assert executor.batch_size == 3
    assert not executor.overlap


def test_cost_model_backends_agree_exactly():
    """The serving cost model's grid prices equal the event oracle's."""
    engine = _engine()
    costs = IterationCostModel(engine)
    event = EventBackend()

    def spec(batch, prompt):
        return engine.run_spec(
            batch_size=batch, prompt_len=prompt, include_faults=False
        )

    # Context 149 decodes in the 160-token bucket.
    for batch in (1, 4):
        assert costs.prefill_parts(batch, 128) == event.iteration_parts(
            spec(batch, 128), Stage.PREFILL, 128
        )
        assert costs.decode_parts(batch, 149) == event.iteration_parts(
            spec(batch, engine.prompt_len), Stage.DECODE, 160
        )
    prefill = event.iteration_parts(spec(1, 128), Stage.PREFILL, 128)
    decode = event.iteration_parts(
        spec(4, engine.prompt_len), Stage.DECODE, 160
    )
    assert costs.reference_service_time(128, 21, 4) == (
        prefill.total_s() + 20 * decode.total_s()
    )


def test_run_timing_unchanged_by_refactor():
    """The façade still prices whole generations via the event path."""
    engine = _engine()
    metrics = engine.run_timing()
    assert metrics.ttft_s > 0
    assert engine.last_trace is not None
