"""The per-(request, layer-range) KV tier map.

Each live request's KV cache is tracked as a set of
:class:`KvExtent` s — contiguous decoder-block ranges resident in one
tier — with explicit per-tier byte accounting.  The map itself is
policy-free mechanism: it places, moves, and releases extents and
answers occupancy queries; *which* extents move where (and what that
costs) is the :mod:`repro.kv.policy` / :mod:`repro.kv.manager` layer.

With ``enforce=True`` a placement that would oversubscribe a tier
raises :class:`~repro.errors.CapacityError`; with ``enforce=False``
the map is accounting-only (the static split, which mirrors today's
cost-model percentages without ever rejecting work).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import (
    AllocationError,
    CapacityError,
    ConfigurationError,
    read_field,
)
from repro.kv.tiers import KvTierTopology, TierBudget


@dataclass(frozen=True)
class LayerRange:
    """A half-open ``[start, stop)`` range of decoder blocks."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ConfigurationError(
                f"invalid layer range [{self.start}, {self.stop})"
            )

    @property
    def count(self) -> int:
        return self.stop - self.start

    def __str__(self) -> str:
        return f"[{self.start},{self.stop})"


@dataclass(frozen=True)
class KvExtent:
    """One request's KV for a block range, resident in one tier.

    ``shadow`` marks an inclusive-hierarchy copy: a slow-tier replica
    kept alongside the authoritative fast-tier extent so a later
    demotion is free (the fast copy is simply dropped).  Shadows
    occupy capacity but are never read from while a faster copy
    exists.
    """

    request_id: int
    layers: LayerRange
    tier_name: str
    nbytes: int
    shadow: bool = False

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ConfigurationError("an extent must hold bytes")


@dataclass(frozen=True)
class MigrationRecord:
    """One KV migration, priced and accounted."""

    request_id: int
    layers: LayerRange
    src: str
    dst: str
    nbytes: int
    start_s: float
    duration_s: float
    reason: str  # "demote" | "promote" | "degraded" | "rescue" | "shrink"


class KvTierMap:
    """Per-tier KV occupancy over one :class:`KvTierTopology`."""

    def __init__(
        self, topology: KvTierTopology, enforce: bool = True
    ) -> None:
        self.topology = topology
        self.enforce = enforce
        self._used: Dict[str, int] = {
            budget.name: 0 for budget in topology.budgets
        }
        self._extents: Dict[int, List[KvExtent]] = {}
        #: Structural-fault capacity scaling per tier (1.0 = nominal,
        #: 0.0 = lost).  Applied on top of the topology budgets so a
        #: runtime tier loss shrinks the map without rebuilding it.
        self._capacity_factor: Dict[str, float] = {
            budget.name: 1.0 for budget in topology.budgets
        }
        #: Each tier's effective capacity under its factor, kept in
        #: step with ``_capacity_factor``.
        self._capacity: Dict[str, int] = {}
        self._scale_capacity()
        #: Bumped by every change to the used bytes, so a reader can
        #: tell the occupancy is unchanged without comparing it.
        self.version = 0

    # -- queries -------------------------------------------------------

    def used_bytes(self, tier_name: str) -> int:
        try:
            return self._used[tier_name]
        except KeyError:
            raise ConfigurationError(
                f"no KV tier named {tier_name!r}"
            ) from None

    def capacity_factor(self, tier_name: str) -> float:
        try:
            return self._capacity_factor[tier_name]
        except KeyError:
            raise ConfigurationError(
                f"no KV tier named {tier_name!r}"
            ) from None

    def set_capacity_factor(self, tier_name: str, fraction: float) -> None:
        """Scale one tier's effective capacity (structural faults).

        ``0.0`` marks the tier lost; the map keeps accounting its
        extents (they are stranded, not freed) so rescue/shed logic
        can enumerate exactly what was resident.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(
                f"capacity factor must be in [0, 1], got {fraction}"
            )
        if tier_name not in self._capacity_factor:
            raise ConfigurationError(f"no KV tier named {tier_name!r}")
        self._capacity_factor[tier_name] = fraction
        self._scale_capacity()

    def _scale_capacity(self) -> None:
        """Recompute every tier's effective capacity from its factor."""
        self._capacity = {
            budget.name: int(
                budget.capacity_bytes * self._capacity_factor[budget.name]
            )
            for budget in self.topology.budgets
        }

    def capacity_bytes(self, tier_name: str) -> int:
        """The tier's effective capacity under structural faults."""
        try:
            return self._capacity[tier_name]
        except KeyError:
            raise ConfigurationError(
                f"no KV tier named {tier_name!r}"
            ) from None

    def free_bytes(self, tier_name: str) -> int:
        try:
            return self._capacity[tier_name] - self._used[tier_name]
        except KeyError:
            raise ConfigurationError(
                f"no KV tier named {tier_name!r}"
            ) from None

    def occupancy_snapshot(self) -> Dict[str, Tuple[int, int]]:
        """``name -> (used, effective capacity)`` for error messages."""
        return {
            budget.name: (
                self._used[budget.name],
                self.capacity_bytes(budget.name),
            )
            for budget in self.topology.budgets
        }

    @property
    def total_free_bytes(self) -> int:
        return sum(
            self.free_bytes(budget.name)
            for budget in self.topology.budgets
        )

    def occupancy(self) -> Dict[str, int]:
        """Used bytes per tier, in topology (fast-to-slow) order."""
        return dict(self._used)

    def extents_of(self, request_id: int) -> Tuple[KvExtent, ...]:
        return tuple(self._extents.get(request_id, ()))

    @property
    def extents_by_request(self) -> Mapping[int, List[KvExtent]]:
        """Request id -> its resident extents: the live map, to read
        without copying and never to change."""
        return self._extents

    def request_ids(self) -> Tuple[int, ...]:
        """Requests holding KV, in ascending id order."""
        return tuple(sorted(self._extents))

    # -- mutation ------------------------------------------------------

    def place(
        self,
        request_id: int,
        layers: LayerRange,
        budget: TierBudget,
        nbytes: int,
        shadow: bool = False,
    ) -> KvExtent:
        """Account a new extent in ``budget``'s tier.

        Raises :class:`~repro.errors.CapacityError` when enforcing and
        the tier cannot hold it.
        """
        if self.enforce and nbytes > self.free_bytes(budget.name):
            raise CapacityError(
                budget.name,
                nbytes,
                max(0, self.free_bytes(budget.name)),
                occupancy=self.occupancy_snapshot(),
            )
        extent = KvExtent(
            request_id=request_id,
            layers=layers,
            tier_name=budget.name,
            nbytes=int(nbytes),
            shadow=shadow,
        )
        self._used[budget.name] += extent.nbytes
        self._extents.setdefault(request_id, []).append(extent)
        self.version += 1
        return extent

    def remove(self, extent: KvExtent) -> None:
        """Drop one extent (freeing its tier bytes)."""
        extents = self._extents.get(extent.request_id, [])
        try:
            extents.remove(extent)
        except ValueError:
            raise AllocationError(
                f"extent {extent} is not resident in the tier map"
            ) from None
        self._used[extent.tier_name] -= extent.nbytes
        self.version += 1
        if not extents:
            self._extents.pop(extent.request_id, None)

    def move(
        self, extent: KvExtent, dst: TierBudget
    ) -> KvExtent:
        """Re-home one extent into ``dst`` (capacity-checked)."""
        if dst.name == extent.tier_name:
            return extent
        if self.enforce and extent.nbytes > self.free_bytes(dst.name):
            raise CapacityError(
                dst.name,
                extent.nbytes,
                max(0, self.free_bytes(dst.name)),
                occupancy=self.occupancy_snapshot(),
            )
        self.remove(extent)
        return self.place(
            extent.request_id,
            extent.layers,
            dst,
            extent.nbytes,
            shadow=extent.shadow,
        )

    def release_request(self, request_id: int) -> Tuple[KvExtent, ...]:
        """Free everything a request holds; returns the freed extents.

        Unknown ids are a no-op (requests that finished during their
        prefill iteration were never placed twice).
        """
        extents = tuple(self._extents.pop(request_id, ()))
        for extent in extents:
            self._used[extent.tier_name] -= extent.nbytes
        if extents:
            self.version += 1
        return extents

    # -- checkpointing -------------------------------------------------

    def state_snapshot(self) -> Dict[str, object]:
        """Extents and capacity factors as a deterministic dict."""
        return {
            "capacity_factor": dict(self._capacity_factor),
            "extents": [
                {
                    "request_id": extent.request_id,
                    "start": extent.layers.start,
                    "stop": extent.layers.stop,
                    "tier": extent.tier_name,
                    "nbytes": extent.nbytes,
                    "shadow": extent.shadow,
                }
                for request_id in sorted(self._extents)
                for extent in self._extents[request_id]
            ],
        }

    def restore_state(
        self, snapshot: Dict[str, object], path: str = "tiermap"
    ) -> None:
        """Rebuild occupancy from :meth:`state_snapshot` output, found
        at ``path`` in a checkpoint.

        Restoration bypasses enforcement: the snapshot was consistent
        when taken, and replaying it through capacity checks could
        reject a legal (post-shrink, over-budget-by-design) layout.
        A missing or ill-typed entry fails with a
        :class:`~repro.errors.CheckpointError` naming it, before
        anything changes.
        """

        def read_extent(entry) -> KvExtent:
            return KvExtent(
                request_id=int(entry["request_id"]),
                layers=LayerRange(int(entry["start"]), int(entry["stop"])),
                tier_name=str(entry["tier"]),
                nbytes=int(entry["nbytes"]),
                shadow=bool(entry["shadow"]),
            )

        capacity_factor = read_field(
            snapshot, f"{path}.capacity_factor", dict
        )
        extents = read_field(
            snapshot,
            f"{path}.extents",
            lambda rows: [read_extent(entry) for entry in rows],
        )
        self._extents.clear()
        self._used = {
            budget.name: 0 for budget in self.topology.budgets
        }
        self._capacity_factor = capacity_factor
        self._scale_capacity()
        for extent in extents:
            self._used[extent.tier_name] += extent.nbytes
            self._extents.setdefault(extent.request_id, []).append(extent)
        self.version += 1
