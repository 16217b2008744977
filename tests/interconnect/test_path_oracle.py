"""The solver's one-pass prices equal the call-by-call composition.

:mod:`tests.interconnect.reference_path` re-derives every fixed
constant on every call, as the solver once did.  These tests drive the
runtime solver and the reference side by side over every host
configuration, every time and bandwidth method, every region, PCIe
links of several shapes, and a sequence of state changes between
calls: the per-solver footprint override set, cleared and reassigned
(as :class:`~repro.pricing.vector.VectorPricer` does), the stored
working set moved through ``set_host_working_set``, and region scale
factors divided (as a degraded configuration does).  Buffer sizes
include every breakpoint of every curve in the configuration, one ulp
either side of it, sizes below the first and above the last.  Every
answer must be ``==``, and a call that raises on one side must raise
the same type of error on the other.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.interconnect.path import TransferKind, TransferPathSolver
from repro.interconnect.pcie import PcieLink
from repro.memory.hierarchy import HOST_CONFIG_LABELS, host_config
from repro.memory.memory_mode import MemoryModeTechnology
from repro.memory.technology import BandwidthCurve
from repro.units import GB
from tests.interconnect.reference_path import ReferenceSolver, curve_at

#: Methods taking ``(nbytes, region)``.
REGION_METHODS = (
    "host_to_gpu_time",
    "gpu_to_host_time",
    "host_to_gpu_bandwidth",
    "gpu_to_host_bandwidth",
)
#: Methods taking ``(nbytes)``.
SIZE_METHODS = (
    "disk_to_gpu_time",
    "gpu_to_disk_time",
    "disk_to_host_time",
    "host_to_disk_time",
    "host_to_host_time",
)
#: Methods taking ``(nbytes, kind, region)``.
KIND_METHODS = ("transfer_time", "measured_bandwidth")


def _curves(config):
    for region in config.regions.values():
        technology = region.technology
        yield technology.read_curve
        yield technology.write_curve
        if isinstance(technology, MemoryModeTechnology):
            for inner in (technology.dram, technology.optane):
                yield inner.read_curve
                yield inner.write_curve


def _edge_sizes(config):
    """Every breakpoint, one ulp either side, and beyond both ends."""
    sizes = set()
    for curve in _curves(config):
        for size, _ in curve.points:
            sizes.update(
                (
                    size,
                    math.nextafter(size, 0.0),
                    math.nextafter(size, math.inf),
                )
            )
        sizes.update((curve.points[0][0] / 3.0, curve.points[-1][0] * 3.0))
    return sorted(sizes)


def _answer(fn, *args):
    """A call's value, or the type of the error it raised."""
    try:
        return fn(*args)
    except Exception as error:  # noqa: BLE001 - compared, not swallowed
        return type(error)


_LINKS = (
    None,
    PcieLink(),
    PcieLink(generation=3, lanes=16),
    PcieLink(generation=5, lanes=8, h2d_efficiency=0.9, d2h_efficiency=0.7),
)

_working_sets = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=2048 * 2**30),
    st.sampled_from([0, 16 * GB, 300 * GB, 256 * 2**30, 324 * 2**30]),
)

_steps = st.lists(
    st.tuples(
        st.sampled_from(("override", "stored", "degrade", "price")),
        _working_sets,
        st.integers(min_value=0, max_value=10**6),  # which size
        st.integers(min_value=0, max_value=10**6),  # which region
        st.integers(min_value=0, max_value=10**6),  # which method
        st.floats(min_value=1.0, max_value=4.0),  # degradation factor
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(
    label=st.sampled_from(HOST_CONFIG_LABELS),
    link=st.sampled_from(_LINKS),
    initial=_working_sets,
    free_size=st.floats(min_value=1.0, max_value=1e13),
    steps=_steps,
)
def test_solver_equals_call_by_call_composition(
    label, link, initial, free_size, steps
):
    config = host_config(label)
    solver = TransferPathSolver(
        config=config, pcie=link, host_working_set_bytes=initial
    )
    reference = ReferenceSolver(
        config,
        pcie=solver.pcie,
        upi=solver.upi,
        host_working_set_bytes=initial,
    )
    sizes = _edge_sizes(config) + [free_size, 0.0, -1.0]
    regions = (None,) + tuple(
        config.regions[name] for name in sorted(config.regions)
    )
    calls = (
        [(name, None) for name in REGION_METHODS + SIZE_METHODS]
        + [(name, kind) for name in KIND_METHODS for kind in TransferKind]
    )
    for action, working_set, size_pick, region_pick, call_pick, factor in steps:
        region = regions[region_pick % len(regions)]
        if action == "override":
            solver.host_working_set_bytes = working_set
            reference.host_working_set_bytes = working_set
        elif action == "stored":
            config.set_host_working_set(working_set or 0)
        elif action == "degrade":
            region = region or config.host_region
            region.read_scale /= factor
            region.write_scale /= factor
        else:
            nbytes = sizes[size_pick % len(sizes)]
            name, kind = calls[call_pick % len(calls)]
            if name in SIZE_METHODS:
                args = (nbytes,)
            elif name in KIND_METHODS:
                args = (nbytes, kind, region)
            else:
                args = (nbytes, region)
            assert _answer(getattr(solver, name), *args) == _answer(
                getattr(reference, name), *args
            ), (label, name, args)


@pytest.mark.parametrize("label", HOST_CONFIG_LABELS)
def test_every_method_at_every_edge_size(label):
    """The exhaustive sweep: all methods, regions and edge sizes,
    with and without a footprint override."""
    for working_set in (None, 40 * GB, 320 * GB):
        config = host_config(label)
        config.set_host_working_set(int(200 * GB))
        solver = TransferPathSolver(
            config=config, host_working_set_bytes=working_set
        )
        reference = ReferenceSolver(
            config, host_working_set_bytes=working_set
        )
        regions = (None,) + tuple(config.regions.values())
        for nbytes in _edge_sizes(config):
            for region in regions:
                for name in REGION_METHODS:
                    assert getattr(solver, name)(nbytes, region) == getattr(
                        reference, name
                    )(nbytes, region)
                for kind in TransferKind:
                    assert _answer(
                        solver.transfer_time, nbytes, kind, region
                    ) == _answer(reference.transfer_time, nbytes, kind, region)
            for name in SIZE_METHODS:
                assert _answer(getattr(solver, name), nbytes) == _answer(
                    getattr(reference, name), nbytes
                )


@settings(max_examples=300, deadline=None)
@given(
    points=st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=1e13),
            st.floats(min_value=1e6, max_value=1e12),
        ),
        min_size=1,
        max_size=6,
        unique_by=lambda point: point[0],
    ),
    query=st.floats(min_value=1e-3, max_value=1e14),
)
def test_curve_at_equals_breakpoint_walk(points, query):
    curve = BandwidthCurve.from_points(sorted(points))
    for size in [query] + [size for size, _ in curve.points]:
        for nbytes in (
            size,
            math.nextafter(size, 0.0),
            math.nextafter(size, math.inf),
        ):
            assert curve.at(nbytes) == curve_at(curve, nbytes)


class TestNanSizes:
    """A NaN byte count fails with a located error, not an assertion
    deep inside the curve walk."""

    def test_curve_names_the_value(self):
        curve = BandwidthCurve.from_points([(1e9, 10e9), (4e9, 20e9)])
        with pytest.raises(ValueError, match="nan"):
            curve.at(float("nan"))

    @pytest.mark.parametrize("label", HOST_CONFIG_LABELS)
    @pytest.mark.parametrize("name", REGION_METHODS[:2] + SIZE_METHODS)
    def test_solver_names_the_value(self, label, name):
        solver = TransferPathSolver(config=host_config(label))
        with pytest.raises(ValueError, match="nan"):
            getattr(solver, name)(float("nan"))

    def test_bandwidth_queries_name_the_value(self):
        solver = TransferPathSolver(config=host_config("NVDRAM"))
        with pytest.raises(ValueError, match="nan"):
            solver.host_to_gpu_bandwidth(float("nan"))
