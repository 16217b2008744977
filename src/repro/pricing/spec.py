"""The frozen, hashable description of one priceable run.

Every consumer of iteration costs — the engine façade, the serving
cost model, the CXL projections, the overlap ablation — used to
hand-construct a :class:`~repro.core.timing.TimingExecutor` with its
own copy of the same kwargs.  :class:`RunSpec` is that bundle as a
value: host memory + placement + policy + batch/lengths + GPU (+
optional PCIe override, spill log, and fault injection), usable both
as the argument to :func:`repro.pricing.build_executor` and as the
key of the shared :class:`~repro.pricing.cache.PriceCache`.

Hashing/equality treat the platform objects (host config, placement
result, PCIe link, injector) by *identity*: two specs are the same
cache key only when they price the same live objects.  That is
exactly the invalidation story re-planning needs — a degraded engine
carries new host/placement objects, so its prices can never collide
with stale nominal entries — and it keeps hashing O(1) even though a
placement holds per-layer byte maps.  A spec stored in a cache key
keeps strong references to those objects, so ids cannot be recycled
under it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.devices.gpu import A100_SPEC, GpuSpec
from repro.errors import ConfigurationError
from repro.interconnect.pcie import PcieLink

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.placement.base import PlacementResult
    from repro.core.policy import Policy
    from repro.faults.injector import FaultInjector
    from repro.faults.retry import RetryPolicy
    from repro.memory.hierarchy import HostMemoryConfig


@dataclass(frozen=True, eq=False)
class RunSpec:
    """One run configuration, ready to be priced or executed."""

    host: "HostMemoryConfig"
    placement: "PlacementResult"
    policy: "Policy"
    batch_size: int
    prompt_len: int = 128
    gen_len: int = 21
    gpu_spec: GpuSpec = A100_SPEC
    #: Listing 1's compute/transfer overlap (False = serial steps).
    overlap: bool = True
    #: Optional PCIe override (e.g. the widened link of the CXL
    #: projections); ``None`` means the platform default.
    pcie: Optional[PcieLink] = None
    #: Spill decisions echoed into the run's metrics.
    spill_log: Tuple[str, ...] = ()
    #: Optional fault injection, threaded into the event executor.
    injector: Optional["FaultInjector"] = None
    retry: Optional["RetryPolicy"] = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError("batch size must be positive")
        if self.prompt_len < 1:
            raise ConfigurationError("prompt_len must be >= 1")
        if self.gen_len < 1:
            raise ConfigurationError("gen_len must be >= 1")
        # Every field is frozen, so the key and its hash are computed
        # once here instead of on every cache lookup.
        key = (
            id(self.host),
            id(self.placement),
            self.policy,
            self.batch_size,
            self.prompt_len,
            self.gen_len,
            self.gpu_spec,
            self.overlap,
            id(self.pcie) if self.pcie is not None else None,
            id(self.injector) if self.injector is not None else None,
        )
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    @property
    def fault_free(self) -> bool:
        return self.injector is None

    def cache_key(self) -> Tuple:
        """The value this spec hashes/compares by."""
        return self._key

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunSpec):
            return NotImplemented
        return self._key == other._key

    def with_shape(
        self,
        batch_size: Optional[int] = None,
        prompt_len: Optional[int] = None,
        gen_len: Optional[int] = None,
    ) -> "RunSpec":
        """A sibling spec with a different batch/length shape."""
        return dataclasses.replace(
            self,
            batch_size=(
                self.batch_size if batch_size is None else batch_size
            ),
            prompt_len=(
                self.prompt_len if prompt_len is None else prompt_len
            ),
            gen_len=self.gen_len if gen_len is None else gen_len,
        )

    def fault_free_spec(self) -> "RunSpec":
        """This spec with fault injection stripped (nominal pricing)."""
        if self.fault_free and self.retry is None:
            return self
        return dataclasses.replace(self, injector=None, retry=None)
