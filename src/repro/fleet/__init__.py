"""Fleet serving: replicated (and sharded) serve stacks behind a router.

The single-engine serve stack (:mod:`repro.serve`) becomes the unit of
replication here: :class:`ReplicaPlan` builds one configuration's
engine and analytic backend once, :func:`build_replica`
wires scheduler + KV + faults + telemetry over a plan into a
:class:`Replica`, :class:`FleetSimulator` interleaves
N replicas in one virtual timeline behind a :class:`FleetRouter`, and
:func:`simulate_fleet` is the one-call entry point mirroring
:func:`repro.serve.simulate_serving`.  Shard degrees > 1 price each
replica through :class:`ShardedCostModel` over the per-shard engines
of a :class:`~repro.core.placement.ShardedPlacement`.

A fleet of ``replicas=1`` at shard degree 1 is bit-identical to
``simulate_serving`` — summary, records, and telemetry snapshot.
"""

from repro.fleet.costs import ShardedCostModel, shard_engines
from repro.fleet.prefix import PrefixCache
from repro.fleet.replica import (
    Replica,
    ReplicaConfig,
    ReplicaPlan,
    build_replica,
)
from repro.fleet.router import (
    ROUTER_NAMES,
    FleetRouter,
    LeastLoadedRouter,
    PrefixAffinityRouter,
    RoundRobinRouter,
    make_router,
)
from repro.fleet.simulator import (
    FleetResult,
    FleetSimulator,
    ReplicaResult,
    simulate_fleet,
)

__all__ = [
    "FleetResult",
    "FleetRouter",
    "FleetSimulator",
    "LeastLoadedRouter",
    "PrefixAffinityRouter",
    "PrefixCache",
    "ROUTER_NAMES",
    "Replica",
    "ReplicaConfig",
    "ReplicaPlan",
    "ReplicaResult",
    "RoundRobinRouter",
    "ShardedCostModel",
    "build_replica",
    "make_router",
    "shard_engines",
    "simulate_fleet",
]
