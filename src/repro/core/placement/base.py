"""Placement machinery shared by all algorithms.

A placement algorithm maps every :class:`~repro.models.weights.WeightSpec`
of every layer to a tier (GPU / CPU / DISK).  The result object
answers the questions the rest of the system asks: per-layer bytes by
tier (transfer sizes), achieved overall percentages (Fig. 7), and
per-layer-kind distributions (Figs. 7b/7c/10).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.devices.device import DeviceKind
from repro.errors import PlacementError
from repro.models.config import OptConfig
from repro.models.weights import LayerKind, LayerSpec, WeightSpec, model_layers


def get_choice(
    cur_percent: float,
    percents: Sequence[float],
    choices: Sequence[DeviceKind],
) -> DeviceKind:
    """FlexGen's ``get_choice`` (Listing 2, lines 1-6).

    Walks the cumulative percentage ladder and returns the first tier
    whose cumulative share exceeds ``cur_percent``.
    """
    if len(percents) != len(choices) or not choices:
        raise PlacementError("percents and choices must align and be non-empty")
    cumulative = 0.0
    for percent, choice in zip(percents, choices):
        cumulative += percent
        if cur_percent < cumulative:
            return choice
    return choices[-1]


@dataclass
class PlacementResult:
    """A complete weight-to-tier assignment for one model."""

    algorithm: str
    config: OptConfig
    layers: Tuple[LayerSpec, ...]
    #: ``assignments[layer_index][weight_name] -> DeviceKind``
    assignments: Dict[int, Dict[str, DeviceKind]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Memoized tier sums, cleared by :meth:`set_tier`.  Plain
        # attributes, not fields: they stay out of ``eq``, ``repr``,
        # ``asdict`` and ``replace``.
        self._layer_bytes: Dict[int, Dict[DeviceKind, int]] = {}
        self._tier_totals: Dict[DeviceKind, int] = {}

    def tier_of(self, layer_index: int, weight_name: str) -> DeviceKind:
        try:
            return self.assignments[layer_index][weight_name]
        except KeyError:
            raise PlacementError(
                f"no assignment for layer {layer_index} weight "
                f"{weight_name!r}"
            ) from None

    def set_tier(
        self, layer_index: int, weight_name: str, tier: DeviceKind
    ) -> None:
        self.assignments.setdefault(layer_index, {})[weight_name] = tier
        self._layer_bytes.clear()
        self._tier_totals.clear()

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------

    def layer_tier_bytes(self, layer_index: int, tier: DeviceKind) -> int:
        """fp16 bytes of one layer's weights on ``tier``."""
        by_tier = self._layer_bytes.get(layer_index)
        if by_tier is None:
            by_tier = dict.fromkeys(DeviceKind, 0)
            for spec in self.layers[layer_index].weights:
                by_tier[self.tier_of(layer_index, spec.name)] += spec.size
            self._layer_bytes[layer_index] = by_tier
        return by_tier[tier]

    def layer_streamed_bytes(self, layer_index: int) -> int:
        """fp16 bytes that must be moved to the GPU for one layer."""
        return self.layer_tier_bytes(
            layer_index, DeviceKind.CPU
        ) + self.layer_tier_bytes(layer_index, DeviceKind.DISK)

    def tier_total_bytes(self, tier: DeviceKind) -> int:
        total = self._tier_totals.get(tier)
        if total is None:
            total = self._tier_totals[tier] = sum(
                self.layer_tier_bytes(layer.index, tier)
                for layer in self.layers
            )
        return total

    @property
    def total_bytes(self) -> int:
        return sum(layer.total_bytes for layer in self.layers)

    def achieved_percentages(self) -> Tuple[float, float, float]:
        """Achieved ``(disk, cpu, gpu)`` split, in percent (Section V-A)."""
        total = self.total_bytes
        return tuple(
            100.0 * self.tier_total_bytes(tier) / total
            for tier in (DeviceKind.DISK, DeviceKind.CPU, DeviceKind.GPU)
        )

    def kind_distribution(
        self, kind: LayerKind
    ) -> Dict[DeviceKind, float]:
        """Tier shares (fractions) of all weights of one layer kind —
        the data behind Figs. 7b/7c/10."""
        layers = [layer for layer in self.layers if layer.kind is kind]
        total = sum(layer.total_bytes for layer in layers)
        if total == 0:
            raise PlacementError(f"model has no {kind.value} layers")
        shares: Dict[DeviceKind, float] = {}
        for tier in DeviceKind:
            tier_bytes = sum(
                self.layer_tier_bytes(layer.index, tier) for layer in layers
            )
            shares[tier] = tier_bytes / total
        return shares

    def demote_group(self, kind: LayerKind, weight_name: str) -> int:
        """Move one weight class (e.g. every FFN ``w_fc1``) GPU -> CPU.

        Returns the number of bytes demoted.  This is the capacity
        spill mechanism: when the GPU cannot hold a placement at the
        requested batch size, whole weight classes are demoted largest
        first (see :func:`spill_to_fit`).
        """
        demoted = 0
        for layer in self.layers:
            if layer.kind is not kind:
                continue
            for spec in layer.weights:
                if (
                    spec.name == weight_name
                    and self.tier_of(layer.index, spec.name) is DeviceKind.GPU
                ):
                    self.set_tier(layer.index, spec.name, DeviceKind.CPU)
                    demoted += spec.size
        return demoted

    def gpu_weight_groups(self) -> List[Tuple[LayerKind, str, int]]:
        """GPU-resident weight classes with their total fp16 bytes."""
        totals: Dict[Tuple[LayerKind, str], int] = {}
        for layer in self.layers:
            for spec in layer.weights:
                if self.tier_of(layer.index, spec.name) is DeviceKind.GPU:
                    key = (layer.kind, spec.name)
                    totals[key] = totals.get(key, 0) + spec.size
        return [
            (kind, name, size) for (kind, name), size in totals.items()
        ]


class PlacementAlgorithm(abc.ABC):
    """Maps weights to tiers for a whole model."""

    name: str = "abstract"

    @abc.abstractmethod
    def assign_layer(
        self, layer: LayerSpec, policy: "Policy"
    ) -> Dict[str, DeviceKind]:
        """Tier for each weight of one layer."""

    def place_model(
        self, config: OptConfig, policy: "Policy"
    ) -> PlacementResult:
        """Run :meth:`assign_layer` over the model's full layer list.

        :meth:`assign_layer` depends only on a layer's kind, its
        weights and the policy, so layers sharing a kind and a weights
        tuple (every MHA, every FFN layer of :func:`model_layers`)
        share one call.  Each layer gets its own copy of the answer,
        so a later :meth:`PlacementResult.set_tier` moves one layer
        only.  An algorithm that needs the layer index overrides this
        method.
        """
        layers = model_layers(config)
        result = PlacementResult(
            algorithm=self.name, config=config, layers=layers
        )
        # Keyed by the weights tuple's identity: ``layers`` keeps every
        # tuple alive, and hashing the specs would cost more than the
        # assignment it saves.
        assigned: Dict[Tuple[LayerKind, int], Dict[str, DeviceKind]] = {}
        for layer in layers:
            key = (layer.kind, id(layer.weights))
            assignment = assigned.get(key)
            if assignment is None:
                assignment = assigned[key] = self.assign_layer(layer, policy)
                missing = {spec.name for spec in layer.weights} - set(
                    assignment
                )
                if missing:
                    raise PlacementError(
                        f"{self.name}: layer {layer.index} left weights "
                        f"unassigned: {sorted(missing)}"
                    )
            result.assignments[layer.index] = dict(assignment)
        return result


def spill_to_fit(result: PlacementResult, gpu_weight_budget: int) -> List[str]:
    """Demote GPU weight classes (largest first) until the placement's
    GPU-resident weights fit in ``gpu_weight_budget`` fp16-equivalent
    bytes.

    Mirrors what the paper's experiments do in practice: when a
    placement cannot coexist with the requested batch's KV cache, the
    GPU share is given up class by class (Table IV's HeLM rows at
    batch 8 show exactly the all-host pattern this produces).

    Returns a log of demoted classes.
    """
    log: List[str] = []
    while result.tier_total_bytes(DeviceKind.GPU) > gpu_weight_budget:
        groups = result.gpu_weight_groups()
        if not groups:
            raise PlacementError(
                "placement cannot fit: GPU budget is below zero even "
                "with no resident weights"
            )
        kind, name, size = max(groups, key=lambda item: item[2])
        result.demote_group(kind, name)
        log.append(f"demoted {kind.value}/{name} ({size} bytes) to CPU")
    return log
