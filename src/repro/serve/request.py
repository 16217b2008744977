"""Online serving requests and multi-tenant QoS classes.

A :class:`RequestSpec` is one request of an open arrival stream; a
:class:`QosClass` names a tenant tier, its scheduling priority, and
its service-level objective (a :class:`~repro.core.qos.QosTarget`,
optionally extended with an end-to-end bound).  The scheduler tracks
live state in :class:`ServeRequest` and emits an immutable
:class:`RequestRecord` when a request finishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.qos import QosTarget
from repro.errors import ConfigurationError, WorkloadError
from repro.pricing.parts import sum_in_order


@dataclass(frozen=True)
class QosClass:
    """One tenant tier: a priority and per-request SLO bounds.

    ``priority`` orders admission (lower is more urgent).  The SLO
    reuses :class:`QosTarget`'s latency bounds per request;
    ``min_throughput_tps`` is a deployment-level bound and is ignored
    at request granularity.  ``max_e2e_s`` optionally bounds the full
    arrival-to-completion latency (queueing included).
    """

    name: str
    priority: int
    target: QosTarget
    max_e2e_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a QoS class needs a name")
        if self.max_e2e_s is not None and self.max_e2e_s <= 0:
            raise ConfigurationError("max_e2e_s must be positive")

    def slo_met(self, ttft_s: float, tbt_s: float, e2e_s: float) -> bool:
        """Whether one finished request met this class's SLO."""
        if (
            self.target.max_ttft_s is not None
            and ttft_s > self.target.max_ttft_s
        ):
            return False
        if self.target.max_tbt_s is not None and tbt_s > self.target.max_tbt_s:
            return False
        if self.max_e2e_s is not None and e2e_s > self.max_e2e_s:
            return False
        return True


#: Latency-sensitive tenants: tight first-token and per-token bounds.
INTERACTIVE = QosClass(
    name="interactive",
    priority=0,
    target=QosTarget(max_ttft_s=60.0, max_tbt_s=10.0),
)

#: Throughput tenants: only an end-to-end deadline, generous bounds.
BATCH = QosClass(
    name="batch",
    priority=1,
    target=QosTarget(max_tbt_s=60.0),
    max_e2e_s=3600.0,
)

#: Single-tenant default when no mix is configured.
STANDARD = QosClass(
    name="standard",
    priority=0,
    target=QosTarget(max_ttft_s=120.0, max_tbt_s=15.0),
)

DEFAULT_CLASSES: Tuple[QosClass, ...] = (INTERACTIVE, BATCH, STANDARD)


def class_index(classes: Sequence[QosClass]) -> Dict[str, QosClass]:
    """Name -> class mapping, rejecting duplicates."""
    index: Dict[str, QosClass] = {}
    for qos in classes:
        if qos.name in index:
            raise ConfigurationError(f"duplicate QoS class {qos.name!r}")
        index[qos.name] = qos
    return index


@dataclass(frozen=True)
class RequestSpec:
    """One request of the open arrival stream.

    ``prefix_group`` optionally names a shared-prompt tenant (a system
    prompt, a few-shot template): requests in the same group share
    their first ``prefix_len`` prompt tokens.  The fields are inert
    unless a prefix cache is attached to the scheduler — the default
    ``None``/``0`` leaves every existing code path byte-identical.
    """

    request_id: int
    arrival_s: float
    prompt_len: int
    gen_len: int
    qos_class: str = STANDARD.name
    prefix_group: Optional[str] = None
    prefix_len: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival_s):
            raise WorkloadError(
                f"arrival_s must be finite, got {self.arrival_s!r}"
            )
        if self.arrival_s < 0:
            raise WorkloadError("arrival time cannot be negative")
        if self.prompt_len < 1 or self.gen_len < 1:
            raise WorkloadError("prompt and generation lengths must be >= 1")
        if self.prefix_len < 0:
            raise WorkloadError("prefix length cannot be negative")
        if self.prefix_group is not None and not (
            0 < self.prefix_len < self.prompt_len
        ):
            raise WorkloadError(
                "a grouped request needs 0 < prefix_len < prompt_len"
            )
        if self.prefix_group is None and self.prefix_len:
            raise WorkloadError("prefix_len requires a prefix_group")


@dataclass
class ServeRequest:
    """Live scheduler state for one in-flight request."""

    spec: RequestSpec
    qos: QosClass
    #: Iteration boundary at which the scheduler admitted the request.
    admitted_s: Optional[float] = None
    #: Completion time of each generated token (first = prefill end).
    token_times: List[float] = field(default_factory=list)

    @property
    def tokens_done(self) -> int:
        return len(self.token_times)

    @property
    def done(self) -> bool:
        return self.tokens_done >= self.spec.gen_len

    @property
    def context_len(self) -> int:
        """KV entries attended over at the *next* decode step."""
        return self.spec.prompt_len + self.tokens_done


@dataclass(frozen=True)
class ShedRecord:
    """A request the scheduler rejected under degraded operation.

    Shed requests never ran: they count against their class's SLO
    attainment but produce no latency samples.
    """

    request_id: int
    qos_class: str
    arrival_s: float
    #: Virtual time of the rejection decision.
    shed_s: float
    #: Why it was shed: ``"degraded"`` (load shedding while a tier is
    #: slow), ``"outage"`` (tier down past the stall budget),
    #: ``"kv_capacity"`` (the window can never fit), ``"timeout"``
    #: (queueing deadline exceeded), ``"kv_lost"`` (KV on a lost tier,
    #: no rescue), ``"rescue_failed"`` (emergency migration found no
    #: surviving home or exhausted retries), or ``"kv_shrink"``
    #: (spilled off a shrunken tier with nowhere to go).
    reason: str


@dataclass(frozen=True)
class RequestRecord:
    """Immutable per-request result."""

    request_id: int
    qos_class: str
    arrival_s: float
    admitted_s: float
    finished_s: float
    prompt_len: int
    gen_len: int
    ttft_s: float
    tbt_s: float
    e2e_s: float
    wait_s: float
    slo_met: bool

    @classmethod
    def from_request(cls, request: ServeRequest) -> "RequestRecord":
        if not request.done or request.admitted_s is None:
            raise ConfigurationError(
                f"request {request.spec.request_id} has not finished"
            )
        spec = request.spec
        times = request.token_times
        ttft = times[0] - spec.arrival_s
        gaps = [times[i] - times[i - 1] for i in range(1, len(times))]
        tbt = sum_in_order(gaps) / len(gaps) if gaps else 0.0
        e2e = times[-1] - spec.arrival_s
        return cls(
            request_id=spec.request_id,
            qos_class=spec.qos_class,
            arrival_s=spec.arrival_s,
            admitted_s=request.admitted_s,
            finished_s=times[-1],
            prompt_len=spec.prompt_len,
            gen_len=spec.gen_len,
            ttft_s=ttft,
            tbt_s=tbt,
            e2e_s=e2e,
            wait_s=request.admitted_s - spec.arrival_s,
            slo_met=request.qos.slo_met(ttft, tbt, e2e),
        )
