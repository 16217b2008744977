"""Fleet routing policies: which replica serves the next arrival.

A :class:`FleetRouter` sees each request once, at its arrival instant.
Every replica owes a run to that virtual time and catches up when
read, so ``queue_depth`` readings are exact, not stale; a router that
reads no depth leaves the replicas it does not pick to run on across
the arrival.  Routing is the *only*
thing the policies differ in; replicas are configured identically, so
an A/B of two routers over one trace isolates the routing effect.

* :class:`RoundRobinRouter` — arrival order modulo fleet size; the
  baseline that ignores both load and locality.
* :class:`LeastLoadedRouter` — fewest queued-plus-running requests,
  ties to the lowest index.
* :class:`PrefixAffinityRouter` — requests of one ``prefix_group``
  stick to the replica that first served the group (chosen
  least-loaded), so its :class:`~repro.fleet.prefix.PrefixCache` stays
  hot; ungrouped requests fall back to least-loaded.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.errors import ConfigurationError
from repro.serve.request import RequestSpec

ROUTER_NAMES = ("round-robin", "least-loaded", "prefix-affinity")


class FleetRouter:
    """Base router: pick a replica index for one arriving request."""

    name = "base"

    def route(self, spec: RequestSpec, replicas: Sequence) -> int:
        raise NotImplementedError


class RoundRobinRouter(FleetRouter):
    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def route(self, spec: RequestSpec, replicas: Sequence) -> int:
        index = self._next % len(replicas)
        self._next += 1
        return index


def _least_loaded(replicas: Sequence) -> int:
    depths = [replica.queue_depth for replica in replicas]
    return min(range(len(replicas)), key=lambda i: (depths[i], i))


class LeastLoadedRouter(FleetRouter):
    name = "least-loaded"

    def route(self, spec: RequestSpec, replicas: Sequence) -> int:
        return _least_loaded(replicas)


class PrefixAffinityRouter(FleetRouter):
    name = "prefix-affinity"

    def __init__(self) -> None:
        #: prefix group -> sticky replica index.
        self.affinity: Dict[str, int] = {}

    def route(self, spec: RequestSpec, replicas: Sequence) -> int:
        if spec.prefix_group is None:
            return _least_loaded(replicas)
        home = self.affinity.get(spec.prefix_group)
        if home is None or home >= len(replicas):
            # First touch: spread groups, not just instantaneous load —
            # ties on empty queues would otherwise pile every group
            # onto replica 0 and defeat the stickiness.
            sticky = [0] * len(replicas)
            for index in self.affinity.values():
                if index < len(replicas):
                    sticky[index] += 1
            home = min(
                range(len(replicas)),
                key=lambda i: (sticky[i], replicas[i].queue_depth, i),
            )
            self.affinity[spec.prefix_group] = home
        return home


def make_router(name: str) -> FleetRouter:
    """Build a router by name (one instance per fleet run — routers
    carry per-run state)."""
    if name == "round-robin":
        return RoundRobinRouter()
    if name == "least-loaded":
        return LeastLoadedRouter()
    if name == "prefix-affinity":
        return PrefixAffinityRouter()
    raise ConfigurationError(
        f"unknown router {name!r}; expected one of {', '.join(ROUTER_NAMES)}"
    )
