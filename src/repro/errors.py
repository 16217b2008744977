"""Exception taxonomy for the reproduction library.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations

import numbers
from typing import Callable, Mapping, Type


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A system, model, or policy configuration is invalid."""


class CapacityError(ReproError):
    """An allocation request exceeds the capacity of a device.

    ``occupancy`` optionally carries a per-tier ``name -> (used,
    capacity)`` snapshot taken at the moment of the failed placement,
    so a chaos-run rejection is debuggable from the log line alone.
    """

    def __init__(
        self,
        device: str,
        requested: int,
        available: int,
        occupancy=None,
    ) -> None:
        self.device = device
        self.requested = int(requested)
        self.available = int(available)
        self.occupancy = dict(occupancy) if occupancy else None
        message = (
            f"device {device!r}: requested {requested} bytes "
            f"but only {available} bytes are available"
        )
        if self.occupancy:
            tiers = ", ".join(
                f"{name}: {used}/{capacity} B"
                for name, (used, capacity) in self.occupancy.items()
            )
            message += f" | tier occupancy: {tiers}"
        super().__init__(message)


class AllocationError(ReproError):
    """A tensor allocation or release was used incorrectly."""


class RoutingError(ReproError):
    """No transfer path exists between two devices."""


class SimulationError(ReproError):
    """The discrete-event simulation was driven into an invalid state."""


class PlacementError(ReproError):
    """A weight placement policy produced an invalid assignment."""


class QuantizationError(ReproError):
    """Quantization parameters or payloads are invalid."""


class WorkloadError(ReproError):
    """A workload/request specification is invalid."""


class TransferError(ReproError):
    """A data transfer failed under fault injection.

    Carries enough context for an operator (or a test) to reconstruct
    what happened: which device/link failed, how many attempts were
    made, and how much virtual time the attempts consumed.
    """

    def __init__(
        self,
        device: str,
        attempts: int,
        elapsed_s: float,
        message: str = "",
    ) -> None:
        self.device = device
        self.attempts = int(attempts)
        self.elapsed_s = float(elapsed_s)
        detail = message or (
            f"transfer on {device!r} failed after {attempts} attempt(s) "
            f"({elapsed_s:.3f} s of virtual time)"
        )
        super().__init__(detail)


class RetryExhaustedError(TransferError):
    """Every retry attempt of a transfer failed within the policy."""

    def __init__(self, device: str, attempts: int, elapsed_s: float) -> None:
        super().__init__(
            device,
            attempts,
            elapsed_s,
            f"retries exhausted on {device!r}: {attempts} attempt(s) "
            f"failed over {elapsed_s:.3f} s of virtual time",
        )


class DegradedTierError(TransferError):
    """A memory/storage tier stayed unusable past the retry budget."""

    def __init__(self, device: str, attempts: int, elapsed_s: float) -> None:
        super().__init__(
            device,
            attempts,
            elapsed_s,
            f"tier {device!r} unavailable: still down after "
            f"{attempts} attempt(s) spanning {elapsed_s:.3f} s "
            "of virtual time",
        )


class SanitizerError(ReproError):
    """A cross-layer invariant check failed during a sanitized run.

    Carries the checker's name and the iteration boundary it fired
    at, so a violation can be replayed deterministically.
    """

    def __init__(self, check: str, boundary: int, detail: str) -> None:
        self.check = check
        self.boundary = int(boundary)
        self.detail = detail
        super().__init__(
            f"sanitizer check {check!r} failed at iteration boundary "
            f"{boundary}: {detail}"
        )


class CheckpointError(ReproError):
    """A scheduler checkpoint could not be taken or restored."""


def read_field(payload: Mapping, path: str, cast: Callable = dict):
    """The checkpoint entry ``path`` (dotted; its last part is the key
    in ``payload``) read through ``cast``.  A missing or ill-typed
    entry fails with a :class:`CheckpointError` naming ``path``."""
    key = path.rpartition(".")[2]
    if key not in payload:
        raise CheckpointError(f"checkpoint has no {path!r}")
    try:
        return cast(payload[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is malformed: {exc!r}"
        ) from None


class SimulatedCrash(ReproError):
    """An injected crash stopped a scheduler run mid-stream.

    ``checkpoint`` holds the most recent deterministic state snapshot
    (possibly from an earlier boundary than the crash itself);
    recovery resumes from it and replays the gap bit for bit.
    """

    def __init__(self, boundary: int, checkpoint) -> None:
        self.boundary = int(boundary)
        self.checkpoint = checkpoint
        super().__init__(
            f"simulated crash at iteration boundary {boundary} "
            f"(checkpoint from boundary "
            f"{checkpoint.get('boundary', '?') if checkpoint else '?'})"
        )


class ExperimentError(ReproError):
    """An experiment was requested with unsupported parameters."""


class TelemetryError(ReproError):
    """Telemetry instruments or exports were used incorrectly."""


def require_int(name: str, value, error: Type[Exception]) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an integer
    (``bool`` and integral floats are rejected too)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
