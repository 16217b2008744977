"""The KV-cache manager: policy-driven tier placement for serving.

One :class:`KvCacheManager` tracks every live request's KV footprint
as per-(request, block-range) extents over the engine configuration's
:class:`~repro.kv.tiers.KvTierTopology`, and answers the serving
scheduler's three questions at iteration boundaries:

* ``try_admit`` — can this request's (pre-allocated, FlexGen-style)
  KV window fit, and what does placing it cost?  Dynamic policies
  demote the coldest requests' fast-tier KV to give the newcomer HBM
  locality, pricing the migration into the prefill surcharge.
* ``on_decode`` — what does this iteration's tier-resident KV traffic
  cost?  Reads of slow-tier KV shares are priced per tier through the
  :class:`~repro.kv.pricing.KvPricer`; afterwards, recently-decoding
  requests' slow extents are passively promoted back to HBM while
  room lasts.
* ``on_degraded`` — the resilience hook: demote KV off a degraded
  host tier to storage (when the configuration has one), with the
  migration time charged to the next iteration.

The manager is keyed by the engine's
:class:`~repro.pricing.RunSpec` — the same identity every pricing
surface uses — and all its arithmetic goes through the spec's
:class:`~repro.core.layercosts.LayerCostModel` solver.  Everything is
deterministic: no RNG, ties broken by request id, and the fault
injector is only consulted through its RNG-free ``health`` query.

The default :class:`~repro.kv.policy.StaticKvPolicy` never migrates,
never rejects, and adds a surcharge of exactly ``0.0`` — serving
metrics with it attached are bit-identical to runs without any
manager (pinned by ``tests/kv/test_static_golden.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, TransferError, read_field
from repro.faults.models import DISK_TARGET, HOST_TARGET
from repro.kv.policy import KvPolicy, kv_policy
from repro.kv.pricing import KvPricer
from repro.kv.tiermap import (
    KvExtent,
    KvTierMap,
    LayerRange,
    MigrationRecord,
)
from repro.kv.tiers import KvTierTopology, TierBudget
from repro.models.kv_cache import kv_bytes_per_token_per_block
from repro.telemetry import Gauge, resolve_telemetry


@dataclass(frozen=True)
class RescueOutcome:
    """What one emergency tier rescue moved, cost, and lost."""

    tier: str
    moved_extents: int = 0
    moved_bytes: int = 0
    #: Distinct requests whose KV survived the loss via rescue.
    moved_requests: int = 0
    #: Priced migration time, charged to the next iteration.
    rescue_s: float = 0.0
    #: Requests whose KV could not be rescued (no surviving capacity
    #: or retries exhausted); every extent they held is released.
    failed: Tuple[int, ...] = ()


class KvCacheManager:
    """Tier placement and migration for one serving session."""

    def __init__(
        self,
        engine,
        policy: KvPolicy = None,
        telemetry=None,
        topology: Optional[KvTierTopology] = None,
        backend=None,
    ) -> None:
        """``backend`` supplies the spec's layer cost model (default:
        a private :class:`~repro.pricing.AnalyticBackend`); serving
        passes the cost model's own, so one configuration builds
        that model once."""
        from repro.pricing import AnalyticBackend

        self.engine = engine
        self.policy = kv_policy(policy if policy is not None else "static")
        #: The run's identity: the same spec every pricing surface
        #: keys on (fault-free — live faults are priced separately).
        self.spec = engine.run_spec(include_faults=False)
        self.topology = (
            topology
            if topology is not None
            else KvTierTopology.from_engine(engine)
        )
        #: Static split: accounting only (mirrors today's cost-model
        #: percentages, never rejects).  Dynamic: enforced capacity.
        self.tiermap = KvTierMap(
            self.topology, enforce=self.policy.dynamic
        )
        if backend is None:
            backend = AnalyticBackend()
        model = backend.layer_model(self.spec)
        self.pricer = KvPricer(
            model=model,
            topology=self.topology,
            injector=engine.injector,
        )
        self._num_blocks = engine.config.num_decoder_blocks
        self._block_token_bytes = kv_bytes_per_token_per_block(
            engine.config, engine.policy.kv_dtype_bytes
        )
        self._gpu_fraction = engine.policy.kv_gpu_percent / 100.0
        #: Names of the tiers a decode reads KV from over a link.
        self._slow_tiers = frozenset(
            budget.name
            for budget in self.topology.budgets
            if budget.kind != "gpu"
        )
        #: request id -> virtual time of its last admit/decode touch.
        self._last_touch: Dict[int, float] = {}
        #: Migration time accrued outside an iteration (degradation
        #: demotions), drained into the next decode surcharge.
        self._pending_s = 0.0
        self.migrations: List[MigrationRecord] = []
        self.migration_bytes = 0
        #: Tiers currently structurally lost (see ``sync_structure``).
        self.lost_tiers: set = set()
        #: The GPU plan's batch cap, resolved once: the binary search
        #: over memory plans is far too slow for a per-iteration call.
        self._plan_max_batch = (
            engine.max_batch_size() if self.policy.dynamic else None
        )
        self._admission_limit = self._compute_admission_limit()
        telemetry = resolve_telemetry(telemetry)
        self._metrics = telemetry.scoped("kv")
        self._tracer = telemetry.tracer
        #: Whether migration spans are recorded (the bound tracer is
        #: on).
        self._traces = self._tracer.enabled
        self._run_span = None
        #: ``(tier, occupancy gauge)`` pairs, bound on the first
        #: publish, and the tier-map version they last showed.  A
        #: disabled registry keeps no write, so nothing is published
        #: and migrations count nothing.
        self._publishes = telemetry.registry.enabled
        self._occupancy_gauges: Optional[
            Tuple[Tuple[str, Gauge], ...]
        ] = None
        self._published_version = -1

    # -- wiring --------------------------------------------------------

    def bind_run(self, tracer, run_span) -> None:
        """Parent migration spans under the scheduler's run span."""
        self._tracer = tracer
        self._traces = tracer.enabled
        self._run_span = run_span

    # -- sizing --------------------------------------------------------

    def _block_bytes(self, tokens: int) -> int:
        """One decoder block's pre-allocated KV for one request."""
        return int(tokens) * self._block_token_bytes

    def request_bytes(self, prompt_len: int, gen_len: int) -> int:
        """A request's full pre-allocated KV window, all blocks."""
        return self._num_blocks * self._block_bytes(prompt_len + gen_len)

    def admission_limit(self) -> Optional[int]:
        """How many reference-shaped requests the tiers can hold.

        ``None`` for the static policy — admission stays governed by
        the batch cap alone, exactly as before ``repro.kv``.
        Constant for a run (capacity model + GPU plan), so it is
        computed once at construction.
        """
        return self._admission_limit

    def _compute_admission_limit(self) -> Optional[int]:
        if not self.policy.dynamic:
            return None
        block = self._block_bytes(
            self.engine.prompt_len + self.engine.gen_len
        )
        # Effective capacity: structural losses/shrinks scale each
        # tier down (all factors are 1.0 until a fault fires, so this
        # is the nominal budget for a healthy run).
        fit_blocks = sum(
            self.tiermap.capacity_bytes(budget.name) // block
            for budget in self.topology.budgets
        )
        by_capacity = max(1, fit_blocks // self._num_blocks)
        by_overcommit = max(
            1,
            int(self._plan_max_batch * self.policy.overcommit),
        )
        return min(by_capacity, by_overcommit)

    # -- queries -------------------------------------------------------

    def occupancy(self) -> Dict[str, int]:
        return self.tiermap.occupancy()

    def snapshot(self) -> Dict[str, object]:
        """Operator-facing state summary (for run reports)."""
        return {
            "policy": self.policy.name,
            "occupancy_bytes": self.occupancy(),
            "migrations": len(self.migrations),
            "migration_bytes": self.migration_bytes,
            "admission_limit": self.admission_limit(),
        }

    # -- scheduler hooks ----------------------------------------------

    def try_admit(self, spec, now: float) -> Tuple[bool, float]:
        """Place one request's KV window; (admitted, surcharge_s).

        Static: split per the engine policy's ``kv_gpu_percent``
        between HBM and the host tier (both extents span every block,
        mirroring the cost model's per-block byte shares), accounting
        only, surcharge exactly ``0.0``.

        Dynamic: whole-block placement fast tier first.  When the
        policy evicts, the coldest requests' fast extents are demoted
        to slower tiers to give the (hot) newcomer HBM locality, and
        the migration time is returned as a prefill surcharge.
        Admission fails when the tiers cannot hold the window at
        block granularity.  A failure found only after demoting keeps
        the demotions: they are recorded, and their time is charged
        to the next decode iteration like any pending migration.
        """
        tokens = spec.prompt_len + spec.gen_len
        request_id = spec.request_id
        if not self.policy.dynamic:
            self._place_static(request_id, tokens)
            self._last_touch[request_id] = now
            self._publish_occupancy()
            return True, 0.0
        block = self._block_bytes(tokens)
        fit_blocks = sum(
            self.tiermap.free_bytes(budget.name) // block
            for budget in self.topology.budgets
        )
        if fit_blocks < self._num_blocks:
            return False, 0.0
        surcharge = 0.0
        if self.policy.evict_cold:
            surcharge += self._make_room_fast(
                self._num_blocks * block, now, protect=request_id
            )
        start = 0
        for budget in self.topology.budgets:
            if start >= self._num_blocks:
                break
            fit = min(
                self._num_blocks - start,
                self.tiermap.free_bytes(budget.name) // block,
            )
            if fit > 0:
                self.tiermap.place(
                    request_id,
                    LayerRange(start, start + fit),
                    budget,
                    fit * block,
                )
                start += fit
        if start < self._num_blocks:
            # Block-granularity fragmentation after demotion: undo
            # the placement; the demotions stand and are charged.
            self.tiermap.release_request(request_id)
            self._pending_s += surcharge
            return False, 0.0
        self._last_touch[request_id] = now
        self._publish_occupancy()
        return True, surcharge

    def on_decode(self, running, now: float) -> float:
        """Price this decode iteration's tier-resident KV traffic.

        Reads of each request's slow-tier KV share (its attended
        context, block-proportional) are accumulated per tier and
        priced through the solver; any pending degradation-demotion
        time is drained into the result; then decoding requests' slow
        extents are passively promoted back to the fast tier while
        room lasts (priced as well — promotion is not free).

        This is the first iteration of a decode run; the run's later
        iterations promote nothing and pay only :meth:`read_time` over
        the :meth:`decode_reads` taken after it.
        """
        if not self.policy.dynamic:
            return 0.0
        surcharge = self._pending_s
        self._pending_s = 0.0
        surcharge = self.read_time(self.decode_reads(running), 0, surcharge)
        if self.policy.promote_on_read:
            surcharge += self._promote(running, now)
        self.touch(running, now)
        self._publish_occupancy()
        return surcharge

    def decode_reads(self, running) -> Tuple[Tuple[TierBudget, int, int], ...]:
        """What a decode over ``running`` reads from each slow tier,
        in topology order: ``(budget, base, slope)``, the sums of
        ``context × layers`` and of ``layers`` over the batch's
        non-shadow extents there.  ``step`` decodes later every context
        is ``step`` tokens longer, so the tier serves
        ``(base + step × slope) × block_token_bytes`` bytes."""
        extents = self.tiermap.extents_by_request
        tiers = self._slow_tiers
        sums: Dict[str, List[int]] = {}
        for request in running:
            context = request.context_len
            for extent in extents.get(request.spec.request_id, ()):
                if extent.shadow or extent.tier_name not in tiers:
                    continue
                layers = extent.layers.count
                tier_sums = sums.setdefault(extent.tier_name, [0, 0])
                tier_sums[0] += context * layers
                tier_sums[1] += layers
        return tuple(
            (budget, *sums[budget.name])
            for budget in self.topology.budgets
            if budget.name in sums
        )

    def read_time(
        self,
        reads: Tuple[Tuple[TierBudget, int, int], ...],
        step: int,
        surcharge: float = 0.0,
    ) -> float:
        """``surcharge`` plus the time a decode ``step`` iterations
        after ``reads`` were taken spends on them, tier by tier in
        topology order."""
        block = self._block_token_bytes
        for budget, base, slope in reads:
            surcharge += self.pricer.read_time(
                budget, (base + step * slope) * block
            )
        return surcharge

    def touch(self, running, now: float) -> None:
        """Mark every request in ``running`` as decoded at ``now``."""
        last_touch = self._last_touch
        for request in running:
            last_touch[request.spec.request_id] = now

    def on_degraded(self, now: float, severity: float = 1.0) -> None:
        """Resilience hook: demote KV off the degraded host tier.

        Moves host-tier extents to the storage tier (when the
        configuration has one, as far as capacity allows); the
        migration time is charged to the next iteration's surcharge.
        A topology without a storage tier has nowhere to demote to —
        no-op.
        """
        if not self.policy.dynamic:
            return
        disk = next(
            (
                budget
                for budget in self.topology.budgets
                if budget.kind == "disk"
            ),
            None,
        )
        if disk is None:
            return
        hosts = [
            budget
            for budget in self.topology.budgets
            if budget.kind == "host"
        ]
        for budget in hosts:
            for request_id in self.tiermap.request_ids():
                for extent in self.tiermap.extents_of(request_id):
                    if extent.shadow or extent.tier_name != budget.name:
                        continue
                    if extent.nbytes > self.tiermap.free_bytes(disk.name):
                        continue
                    duration = self.pricer.migration_time(
                        budget, disk, extent.nbytes, now
                    )
                    self.tiermap.move(extent, disk)
                    self._record_migration(
                        extent, budget, disk, now, duration, "degraded"
                    )
                    self._pending_s += duration
        self._publish_occupancy()

    def release(self, request_id: int, now: float = 0.0) -> None:
        """Free a finished/shed request's KV (unknown ids: no-op)."""
        freed = self.tiermap.release_request(request_id)
        self._last_touch.pop(request_id, None)
        if freed:
            self._publish_occupancy()

    # -- structural faults --------------------------------------------

    def _structural_targets(self, budget: TierBudget) -> Tuple[str, ...]:
        """Fault-target names a structural fault may address this
        tier by (its kind's conventional name plus its own)."""
        if budget.kind == "host":
            return (HOST_TARGET, budget.name)
        if budget.kind == "disk":
            return (DISK_TARGET, budget.name)
        return (budget.name,)

    def sync_structure(self, injector, now: float) -> List[Tuple[str, str]]:
        """Poll the injector's structural faults at one boundary.

        Updates per-tier capacity factors (a lost tier drops to 0.0),
        recomputes the admission limit, and returns the transitions
        that occurred since the last call as ``(event, tier_name)``
        pairs — ``"lost"``, ``"restored"``, ``"shrunk"``, or
        ``"regrown"`` — in topology (fast-to-slow) order.  RNG-free:
        attaching a schedule with no structural faults never changes
        a run.
        """
        if not self.policy.dynamic or injector is None:
            return []
        events: List[Tuple[str, str]] = []
        changed = False
        for budget in self.topology.budgets:
            targets = self._structural_targets(budget)
            lost = injector.tier_lost(targets, now)
            fraction = (
                0.0 if lost else injector.capacity_fraction(targets, now)
            )
            previous = self.tiermap.capacity_factor(budget.name)
            was_lost = budget.name in self.lost_tiers
            if lost and not was_lost:
                self.lost_tiers.add(budget.name)
                events.append(("lost", budget.name))
            elif not lost and was_lost:
                self.lost_tiers.discard(budget.name)
                events.append(("restored", budget.name))
            elif fraction < previous:
                events.append(("shrunk", budget.name))
            elif fraction > previous:
                events.append(("regrown", budget.name))
            if fraction != previous:
                self.tiermap.set_capacity_factor(budget.name, fraction)
                changed = True
        if changed:
            self._admission_limit = self._compute_admission_limit()
            self._publish_occupancy()
        return events

    def rescue_tier(
        self,
        tier_name: str,
        now: float,
        injector=None,
        retry=None,
    ) -> RescueOutcome:
        """Emergency-migrate every extent off a lost tier.

        Shadows resident on the lost tier are dropped for free (the
        authoritative copy survives elsewhere); authoritative extents
        are re-materialized into the fastest surviving tier with
        room, priced through the solver and — when an ``injector``
        and ``retry`` policy are given — through
        ``injector.price_transfer`` against the *destination* tier's
        fault targets, so a flaky destination can exhaust retries.
        A request whose extent finds no surviving home, or whose
        rescue transfer exhausts its retries, fails: **all** of its
        extents are released (no stranded bytes) and its id is
        reported in ``failed`` for the scheduler to shed.
        """
        moved = 0
        moved_bytes = 0
        moved_requests = 0
        rescue_s = 0.0
        failed: List[int] = []
        src = self.topology.budget(tier_name)
        for request_id in self.tiermap.request_ids():
            doomed = False
            touched = False
            for extent in list(self.tiermap.extents_of(request_id)):
                if extent.tier_name != tier_name:
                    continue
                if extent.shadow:
                    self.tiermap.remove(extent)
                    continue
                dst = self._rescue_home(extent.nbytes, tier_name)
                if dst is None:
                    doomed = True
                    break
                duration = self.pricer.migration_time(
                    src, dst, extent.nbytes, now
                )
                if injector is not None and duration > 0.0:
                    targets = self._structural_targets(dst)
                    try:
                        outcome = (
                            injector.price_transfer(
                                targets, duration, now, retry
                            )
                            if retry is not None
                            else injector.price_transfer(
                                targets, duration, now
                            )
                        )
                    except TransferError:
                        doomed = True
                        break
                    duration = outcome.duration_s
                self.tiermap.move(extent, dst)
                self._record_migration(
                    extent, src, dst, now, duration, "rescue"
                )
                rescue_s += duration
                moved += 1
                moved_bytes += extent.nbytes
                touched = True
            if doomed:
                failed.append(request_id)
                self.release(request_id, now)
            elif touched:
                moved_requests += 1
        self._pending_s += rescue_s
        self._publish_occupancy()
        return RescueOutcome(
            tier=tier_name,
            moved_extents=moved,
            moved_bytes=moved_bytes,
            moved_requests=moved_requests,
            rescue_s=rescue_s,
            failed=tuple(failed),
        )

    def _rescue_home(
        self, nbytes: int, exclude: str
    ) -> Optional[TierBudget]:
        """The fastest surviving tier with room for ``nbytes``."""
        for budget in self.topology.budgets:
            if budget.name == exclude or budget.name in self.lost_tiers:
                continue
            if self.tiermap.free_bytes(budget.name) >= nbytes:
                return budget
        return None

    def fail_tier(self, tier_name: str, now: float) -> Tuple[int, ...]:
        """Shed-only response to a lost tier: its KV is simply gone.

        Requests holding authoritative extents there are reported for
        shedding (the scheduler's shed path releases every extent
        they hold); surviving requests' shadows on the tier are
        dropped.  The do-nothing baseline the rescue path is measured
        against.
        """
        failed: List[int] = []
        for request_id in self.tiermap.request_ids():
            stranded = False
            for extent in list(self.tiermap.extents_of(request_id)):
                if extent.tier_name != tier_name:
                    continue
                if extent.shadow:
                    self.tiermap.remove(extent)
                else:
                    stranded = True
            if stranded:
                failed.append(request_id)
        self._publish_occupancy()
        return tuple(failed)

    def spill_overflow(self, tier_name: str, now: float) -> Tuple[int, ...]:
        """Demote extents off a shrunken tier until it fits again.

        Victims are chosen coldest-first (ties: lowest id) and moved
        to the fastest *slower* tier with room; the priced migration
        time accrues to the next iteration's surcharge.  Requests
        whose extents have nowhere to go are reported for shedding.
        """
        src = self.topology.budget(tier_name)
        failed: List[int] = []
        order = sorted(
            self.tiermap.request_ids(),
            key=lambda rid: (self._last_touch.get(rid, 0.0), rid),
        )
        for request_id in order:
            if self.tiermap.free_bytes(tier_name) >= 0:
                break
            for extent in list(self.tiermap.extents_of(request_id)):
                if self.tiermap.free_bytes(tier_name) >= 0:
                    break
                if extent.tier_name != tier_name:
                    continue
                if extent.shadow:
                    self.tiermap.remove(extent)
                    continue
                dst = self._slower_home(extent.nbytes, src)
                if dst is None or dst.name in self.lost_tiers:
                    failed.append(request_id)
                    self.release(request_id, now)
                    break
                duration = self.pricer.migration_time(
                    src, dst, extent.nbytes, now
                )
                self.tiermap.move(extent, dst)
                self._record_migration(
                    extent, src, dst, now, duration, "shrink"
                )
                self._pending_s += duration
        self._publish_occupancy()
        return tuple(failed)

    # -- checkpointing -------------------------------------------------

    def state_snapshot(self) -> Dict[str, object]:
        """The manager's mutable state as a deterministic dict."""
        return {
            "tiermap": self.tiermap.state_snapshot(),
            "last_touch": [
                [request_id, self._last_touch[request_id]]
                for request_id in sorted(self._last_touch)
            ],
            "pending_s": self._pending_s,
            "migration_bytes": self.migration_bytes,
            "migrations": [
                {
                    "request_id": record.request_id,
                    "start": record.layers.start,
                    "stop": record.layers.stop,
                    "src": record.src,
                    "dst": record.dst,
                    "nbytes": record.nbytes,
                    "start_s": record.start_s,
                    "duration_s": record.duration_s,
                    "reason": record.reason,
                }
                for record in self.migrations
            ],
            "lost_tiers": sorted(self.lost_tiers),
            "admission_limit": self._admission_limit,
        }

    def restore_state(self, snapshot: Dict[str, object]) -> None:
        """Rebuild the manager from :meth:`state_snapshot` output (a
        checkpoint's ``kv`` section).  A missing or ill-typed entry
        fails with a :class:`~repro.errors.CheckpointError` naming it."""

        def read(key: str, cast: Callable):
            return read_field(snapshot, f"kv.{key}", cast)

        def migration(entry) -> MigrationRecord:
            return MigrationRecord(
                request_id=int(entry["request_id"]),
                layers=LayerRange(int(entry["start"]), int(entry["stop"])),
                src=str(entry["src"]),
                dst=str(entry["dst"]),
                nbytes=int(entry["nbytes"]),
                start_s=float(entry["start_s"]),
                duration_s=float(entry["duration_s"]),
                reason=str(entry["reason"]),
            )

        self.tiermap.restore_state(read("tiermap", dict), path="kv.tiermap")
        self._last_touch = read(
            "last_touch",
            lambda pairs: {int(i): float(touched) for i, touched in pairs},
        )
        self._pending_s = read("pending_s", float)
        self.migration_bytes = read("migration_bytes", int)
        self.migrations = read(
            "migrations", lambda entries: [migration(e) for e in entries]
        )
        self.lost_tiers = read("lost_tiers", set)
        self._admission_limit = read(
            "admission_limit",
            lambda limit: None if limit is None else int(limit),
        )

    # -- internals -----------------------------------------------------

    def _place_static(self, request_id: int, tokens: int) -> None:
        """Today's percentage split, as accounting-only extents."""
        total = self._num_blocks * self._block_bytes(tokens)
        gpu_bytes = int(total * self._gpu_fraction)
        host_bytes = total - gpu_bytes
        span = LayerRange(0, self._num_blocks)
        if gpu_bytes > 0:
            self.tiermap.place(
                request_id, span, self.topology.fastest, gpu_bytes
            )
        if host_bytes > 0:
            host = next(
                (
                    budget
                    for budget in self.topology.budgets
                    if budget.kind == "host"
                ),
                None,
            )
            if host is None:
                raise ConfigurationError(
                    "static KV split needs a host tier"
                )
            self.tiermap.place(request_id, span, host, host_bytes)

    def _demotion_candidates(self, protect: int) -> List[int]:
        """Victim requests, coldest first (ties: lowest id)."""
        fast = self.topology.fastest.name
        candidates = [
            request_id
            for request_id in self.tiermap.request_ids()
            if request_id != protect
            and any(
                not extent.shadow and extent.tier_name == fast
                for extent in self.tiermap.extents_of(request_id)
            )
        ]
        candidates.sort(
            key=lambda rid: (self._last_touch.get(rid, 0.0), rid)
        )
        return candidates

    def _slower_home(self, nbytes: int, below: TierBudget):
        """The fastest tier slower than ``below`` with room."""
        for budget in self.topology.budgets:
            if budget.tier.order <= below.tier.order:
                continue
            if self.tiermap.free_bytes(budget.name) >= nbytes:
                return budget
        return None

    def _make_room_fast(
        self, need_bytes: int, now: float, protect: int
    ) -> float:
        """LRU-demote cold fast-tier extents until ``need_bytes`` fit.

        Inclusive hierarchies drop the fast copy for free when a
        slow-tier shadow already holds the blocks; exclusive ones pay
        the migration.  Returns the priced demotion time.
        """
        fast = self.topology.fastest
        target = min(need_bytes, fast.capacity_bytes)
        surcharge = 0.0
        progress = True
        while (
            self.tiermap.free_bytes(fast.name) < target and progress
        ):
            progress = False
            for request_id in self._demotion_candidates(protect):
                extents = [
                    extent
                    for extent in self.tiermap.extents_of(request_id)
                    if not extent.shadow
                    and extent.tier_name == fast.name
                ]
                if not extents:
                    continue
                extent = extents[0]
                shadow = self._shadow_for(extent)
                if shadow is not None:
                    # Inclusive: the slow tier already holds these
                    # blocks — drop the fast copy, promote the shadow
                    # to authoritative, pay nothing.
                    dst = self.topology.budget(shadow.tier_name)
                    self.tiermap.remove(extent)
                    self.tiermap.remove(shadow)
                    self.tiermap.place(
                        request_id, shadow.layers, dst, shadow.nbytes
                    )
                    self._record_migration(
                        extent, fast, dst, now, 0.0, "demote"
                    )
                    progress = True
                    break
                dst = self._slower_home(extent.nbytes, fast)
                if dst is None:
                    continue
                duration = self.pricer.migration_time(
                    fast, dst, extent.nbytes, now
                )
                self.tiermap.move(extent, dst)
                self._record_migration(
                    extent, fast, dst, now, duration, "demote"
                )
                surcharge += duration
                progress = True
                break
        return surcharge

    def _shadow_for(self, extent: KvExtent) -> Optional[KvExtent]:
        """An inclusive shadow covering ``extent``'s blocks, if any."""
        if not self.policy.inclusive:
            return None
        for candidate in self.tiermap.extents_of(extent.request_id):
            if (
                candidate.shadow
                and candidate.layers == extent.layers
                and candidate.nbytes == extent.nbytes
            ):
                return candidate
        return None

    def _promote(self, running, now: float) -> float:
        """Passively promote decoding requests' slow KV to HBM."""
        fast = self.topology.fastest
        surcharge = 0.0
        for request in running:
            request_id = request.spec.request_id
            for extent in list(self.tiermap.extents_of(request_id)):
                if extent.shadow or extent.tier_name == fast.name:
                    continue
                if extent.nbytes > self.tiermap.free_bytes(fast.name):
                    continue
                src = self.topology.budget(extent.tier_name)
                duration = self.pricer.migration_time(
                    src, fast, extent.nbytes, now
                )
                if self.policy.inclusive:
                    # Keep a shadow resident in the slow tier so a
                    # later demotion is a free copy-drop.
                    self.tiermap.remove(extent)
                    self.tiermap.place(
                        request_id,
                        extent.layers,
                        src,
                        extent.nbytes,
                        shadow=True,
                    )
                    self.tiermap.place(
                        request_id, extent.layers, fast, extent.nbytes
                    )
                else:
                    self.tiermap.move(extent, fast)
                self._record_migration(
                    extent, src, fast, now, duration, "promote"
                )
                surcharge += duration
        return surcharge

    def _record_migration(
        self,
        extent: KvExtent,
        src: TierBudget,
        dst: TierBudget,
        now: float,
        duration: float,
        reason: str,
    ) -> None:
        record = MigrationRecord(
            request_id=extent.request_id,
            layers=extent.layers,
            src=src.name,
            dst=dst.name,
            nbytes=extent.nbytes,
            start_s=now,
            duration_s=duration,
            reason=reason,
        )
        self.migrations.append(record)
        self.migration_bytes += extent.nbytes
        if self._publishes:
            self._metrics.counter(
                "migration_bytes", labels={"src": src.name, "dst": dst.name}
            ).inc(extent.nbytes)
            self._metrics.counter(
                "migrations", labels={"reason": reason}
            ).inc()
        if self._traces:
            self._tracer.span(
                f"kv {reason} req {extent.request_id} {extent.layers}",
                now,
                now + duration,
                parent=self._run_span,
                category="kv_migration",
                request_id=extent.request_id,
                src=src.name,
                dst=dst.name,
                nbytes=extent.nbytes,
                reason=reason,
            )

    def _publish_occupancy(self) -> None:
        tiermap = self.tiermap
        if not self._publishes or tiermap.version == self._published_version:
            return
        gauges = self._occupancy_gauges
        if gauges is None:
            gauges = self._occupancy_gauges = tuple(
                (
                    budget.name,
                    self._metrics.gauge(
                        "occupancy_bytes", labels={"tier": budget.name}
                    ),
                )
                for budget in self.topology.budgets
            )
        for name, gauge in gauges:
            gauge.set(float(tiermap.used_bytes(name)))
        self._published_version = tiermap.version
