"""``repro.faults`` — fault injection for out-of-core inference.

Production host tiers are not the constants the calibration tables
make them look like: Optane wears, SSDs pause for garbage collection,
CXL links flap.  This package models those failure processes as
deterministic, seeded functions of virtual time and prices them into
the same virtual-time timing the rest of the library uses, so a
"chaos" run is exactly as reproducible as a clean one.

Entry points:

* :class:`FaultSchedule` — a seed + fault models; JSON round-trip for
  scripted scenarios (``repro-serve --faults schedule.json``).
* :class:`FaultInjector` — prices transfers under a schedule, with
  retries governed by a :class:`RetryPolicy`.
* :func:`degraded_host_config` — the degraded bandwidth map a
  re-plan runs against.
"""

from repro.faults.degrade import degraded_host_config
from repro.faults.injector import (
    FaultInjector,
    FaultStats,
    TierHealth,
    TransferOutcome,
    make_injector,
)
from repro.faults.models import (
    DISK_TARGET,
    HOST_TARGET,
    PCIE_TARGET,
    WILDCARD,
    ZERO_SCHEDULE,
    CapacityShrink,
    CorrelatedOutage,
    DegradationWindow,
    FaultModel,
    FaultSchedule,
    LinkOutage,
    TierLoss,
    TransientFaults,
    WearDerate,
)
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.faults.seeds import seed_stream

__all__ = [
    "FaultModel",
    "TransientFaults",
    "DegradationWindow",
    "WearDerate",
    "LinkOutage",
    "TierLoss",
    "CapacityShrink",
    "CorrelatedOutage",
    "FaultSchedule",
    "ZERO_SCHEDULE",
    "HOST_TARGET",
    "DISK_TARGET",
    "PCIE_TARGET",
    "WILDCARD",
    "FaultInjector",
    "FaultStats",
    "TierHealth",
    "TransferOutcome",
    "make_injector",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "degraded_host_config",
    "seed_stream",
]
