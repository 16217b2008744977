"""Cross-layer invariant sanitizer for serving runs.

``SanitizerHarness`` is a set of cheap, RNG-free checkers the
scheduler invokes at every iteration boundary (and once at the end of
the run) when attached via ``--sanitize`` / ``sanitize=True``:

* **clock** — virtual time never moves backwards across boundaries,
  and the iteration timeline is non-decreasing.
* **conservation** — every absorbed arrival is in exactly one place:
  ``finished + shed + waiting + running == absorbed``.
* **kv-accounting** — each tier's used-byte counter equals the sum of
  its resident extents, and no enforced tier is over its effective
  capacity.
* **lost-tiers** — a structurally lost tier holds zero bytes once the
  boundary's rescue/shed response has run (no stranded, leaked KV).
* **cache-stats** — the price memo's hit and miss counters are not
  negative, its hit rate lies in ``[0, 1]``, and every miss added one
  entry (``misses == size``, summed over a sharded model's shards).
* **price-agreement** — on sampled boundaries, the production grid
  pricer (``AnalyticBackend``, one ``LayerCostGrid`` cell per price)
  and the discrete-event oracle (``EventBackend``) agree (within
  tolerance) on the cost of this configuration's decode iteration.
  The harness owns private backend instances, so the run's price-memo
  counters — and every priced result — are untouched by sanitizing.

:meth:`SanitizerHarness.observe` takes a run of boundaries: one
boundary the loop opened, or the inner boundaries of a committed
decode run, between which nothing ran but each one's timeline append
(every KV read of a run is priced before it commits).  The clock and
price-agreement checks run at each boundary of the run.  The state
checks (conservation, KV accounting, lost tiers, cache stats) read
state that cannot change inside a run, so they run once, at its first
boundary, and every later boundary counts them.  If one fails there,
they all run again at every later boundary of the run, so each
boundary records the violations under its own number.  The
``checks`` counts, the violations and the strict-mode raise are those
of checking each boundary afresh.

The harness never mutates scheduler, KV, injector, or clock state
and never consumes randomness: a run with the sanitizer attached is
bit-identical to one without (pinned by ``tests/chaos``).  In strict
mode (the default) the first violation raises
:class:`~repro.errors.SanitizerError`; otherwise violations are
collected and surfaced via :meth:`SanitizerHarness.report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import SanitizerError

#: Relative disagreement tolerated between the grid pricer and the
#: event oracle.  They agree exactly only for fault-free,
#: overlap-consistent specs; the check guards against
#: order-of-magnitude drift, not ULPs.
DEFAULT_PRICING_TOLERANCE = 0.2


@dataclass(frozen=True)
class SanitizerViolation:
    """One failed invariant check."""

    check: str
    boundary: int
    detail: str


class SanitizerHarness:
    """Boundary-by-boundary invariant checking for one serving run."""

    #: Checker names, for the report's per-check counters.
    CHECKS = (
        "clock",
        "conservation",
        "kv_accounting",
        "lost_tiers",
        "cache_stats",
        "price_agreement",
    )

    def __init__(
        self,
        strict: bool = True,
        pricing_check_every: int = 64,
        pricing_tolerance: float = DEFAULT_PRICING_TOLERANCE,
    ) -> None:
        self.strict = bool(strict)
        #: Boundary sampling period for the (comparatively expensive)
        #: grid-vs-event agreement check; ``0`` disables it.
        self.pricing_check_every = max(0, int(pricing_check_every))
        self.pricing_tolerance = float(pricing_tolerance)
        self.violations: List[SanitizerViolation] = []
        self.boundaries = 0
        self.checks: Dict[str, int] = {name: 0 for name in self.CHECKS}
        self._last_now: Optional[float] = None
        self._last_timeline_s: Optional[float] = None
        #: Private (grid pricer, event oracle) pair — lazily built,
        #: never the run's own backend or cache.
        self._backends = None
        #: spec ids already price-checked (the spec is constant per
        #: run; re-pricing it would only re-hit the private memo).
        self._priced_specs: set = set()

    # -- plumbing ------------------------------------------------------

    def _fail(self, check: str, boundary: int, detail: str) -> None:
        violation = SanitizerViolation(
            check=check, boundary=boundary, detail=detail
        )
        self.violations.append(violation)
        if self.strict:
            raise SanitizerError(check, boundary, detail)

    def report(self) -> Dict[str, object]:
        """Machine-readable summary of what was checked and found."""
        return {
            "strict": self.strict,
            "boundaries": self.boundaries,
            "checks": dict(self.checks),
            "violations": [
                {
                    "check": violation.check,
                    "boundary": violation.boundary,
                    "detail": violation.detail,
                }
                for violation in self.violations
            ],
        }

    # -- scheduler hooks ----------------------------------------------

    def observe(
        self, boundary: int, nows: Sequence[float], state, scheduler
    ) -> None:
        """Run every checker at the boundaries ``boundary, boundary +
        1, ...``, opened at the virtual times ``nows``.

        The ``i``-th of ``n`` sees ``state.timeline[i - n]`` as its
        last sample: each inner boundary of a run appended one, and a
        boundary the loop opened is a run of one.  While the state
        checks pass they run at the first boundary only and are
        counted at the rest; once one fails they run at every
        boundary, which reports the failure there.
        """
        kv = scheduler.kv
        every = self.pricing_check_every
        count = len(nows)
        failed = True
        for offset, now in enumerate(nows):
            self.boundaries += 1
            current = boundary + offset
            self._check_clock(current, now, state, offset - count)
            if failed:
                found = len(self.violations)
                ran = self._check_state(current, state, kv, scheduler)
                failed = len(self.violations) > found
            else:
                checks = self.checks
                for name in ran:
                    checks[name] += 1
            if kv is not None and every and self.boundaries % every == 1:
                self._check_price_agreement(current, kv)

    def _check_state(self, boundary: int, state, kv, scheduler) -> List[str]:
        """The state checks at one boundary; returns the names of
        those that ran."""
        self._check_conservation(boundary, state)
        ran = ["conservation"]
        if kv is not None:
            self._check_kv_accounting(boundary, kv)
            self._check_lost_tiers(boundary, kv)
            ran += ("kv_accounting", "lost_tiers")
        if self._check_cache_stats(boundary, scheduler):
            ran.append("cache_stats")
        return ran

    def finish(self, state, scheduler) -> None:
        """End-of-run checks: everything accounted for and released."""
        boundary = state.boundary
        outstanding = len(state.pending) - (
            len(state.records) + len(state.shed_records)
        )
        if outstanding > 0:
            self.checks["conservation"] += 1
            self._fail(
                "conservation",
                boundary,
                f"run ended with {outstanding} request(s) neither "
                "finished nor shed",
            )
        kv = scheduler.kv
        if kv is not None:
            self.checks["kv_accounting"] += 1
            leaked = {
                tier: used
                for tier, used in kv.occupancy().items()
                if used != 0
            }
            if leaked:
                self._fail(
                    "kv_accounting",
                    boundary,
                    "KV bytes leaked past the end of the run "
                    f"(every request is finished or shed): {leaked}",
                )

    # -- checkers ------------------------------------------------------

    def _check_clock(self, boundary, now, state, sample: int = -1) -> None:
        self.checks["clock"] += 1
        if self._last_now is not None and now < self._last_now:
            self._fail(
                "clock",
                boundary,
                f"virtual time moved backwards: {self._last_now} -> "
                f"{now}",
            )
        self._last_now = now
        if state.timeline:
            sample_s = state.timeline[sample].time_s
            if (
                self._last_timeline_s is not None
                and sample_s < self._last_timeline_s
            ):
                self._fail(
                    "clock",
                    boundary,
                    "iteration timeline is not monotonic: "
                    f"{self._last_timeline_s} -> {sample_s}",
                )
            self._last_timeline_s = sample_s

    def _check_conservation(self, boundary, state) -> None:
        self.checks["conservation"] += 1
        accounted = (
            len(state.records)
            + len(state.shed_records)
            + len(state.waiting)
            + len(state.running)
        )
        if accounted != state.next_arrival:
            self._fail(
                "conservation",
                boundary,
                f"absorbed {state.next_arrival} request(s) but "
                f"finished+shed+waiting+running == {accounted}",
            )
        if not (state.waiting and state.running):
            return
        waiting_ids = {entry[-1].spec.request_id for entry in state.waiting}
        running_ids = {
            request.spec.request_id for request in state.running
        }
        overlap = waiting_ids & running_ids
        if overlap:
            self._fail(
                "conservation",
                boundary,
                f"request(s) {sorted(overlap)} are both waiting and "
                "running",
            )

    def _check_kv_accounting(self, boundary, kv) -> None:
        self.checks["kv_accounting"] += 1
        tiermap = kv.tiermap
        recomputed: Dict[str, int] = {
            budget.name: 0 for budget in kv.topology.budgets
        }
        for extents in tiermap.extents_by_request.values():
            for extent in extents:
                recomputed[extent.tier_name] += extent.nbytes
        for budget in kv.topology.budgets:
            used = tiermap.used_bytes(budget.name)
            if used != recomputed[budget.name]:
                self._fail(
                    "kv_accounting",
                    boundary,
                    f"tier {budget.name!r} counter says {used} B but "
                    f"its extents sum to {recomputed[budget.name]} B",
                )
            if used < 0:
                self._fail(
                    "kv_accounting",
                    boundary,
                    f"tier {budget.name!r} has negative occupancy "
                    f"({used} B)",
                )
            if (
                tiermap.enforce
                and budget.name not in kv.lost_tiers
                and used > tiermap.capacity_bytes(budget.name)
            ):
                self._fail(
                    "kv_accounting",
                    boundary,
                    f"tier {budget.name!r} holds {used} B over its "
                    f"effective capacity "
                    f"{tiermap.capacity_bytes(budget.name)} B",
                )

    def _check_lost_tiers(self, boundary, kv) -> None:
        self.checks["lost_tiers"] += 1
        for tier in sorted(kv.lost_tiers):
            used = kv.tiermap.used_bytes(tier)
            if used != 0:
                self._fail(
                    "lost_tiers",
                    boundary,
                    f"lost tier {tier!r} still holds {used} B after "
                    "the rescue/shed response (stranded KV)",
                )

    def _check_cache_stats(self, boundary, scheduler) -> bool:
        """Check the cost model's price-memo summary, if it keeps one;
        returns whether it does."""
        stats = getattr(scheduler.costs, "cache_stats", None)
        if stats is None:
            return False
        self.checks["cache_stats"] += 1
        hits, misses = stats["hits"], stats["misses"]
        if hits < 0 or misses < 0:
            self._fail(
                "cache_stats",
                boundary,
                f"price cache counters went negative: hits={hits} "
                f"misses={misses}",
            )
        rate = stats["hit_rate"]
        if not 0.0 <= rate <= 1.0:
            self._fail(
                "cache_stats",
                boundary,
                f"price cache hit rate {rate} outside [0, 1]",
            )
        if misses != stats["size"]:
            self._fail(
                "cache_stats",
                boundary,
                f"price cache misses={misses} but size={stats['size']}: "
                "a miss added no entry, or an entry no miss",
            )
        return True

    def _check_price_agreement(self, boundary, kv) -> None:
        spec = kv.spec
        if id(spec) in self._priced_specs:
            return
        self.checks["price_agreement"] += 1
        self._priced_specs.add(id(spec))
        from repro.core.metrics import Stage
        from repro.pricing import AnalyticBackend, EventBackend

        if self._backends is None:
            self._backends = (AnalyticBackend(), EventBackend())
        grid, event = self._backends
        context = spec.prompt_len + spec.gen_len
        grid_s = grid.iteration_parts(spec, Stage.DECODE, context).total_s()
        event_s = event.iteration_parts(
            spec, Stage.DECODE, context
        ).total_s()
        ceiling = max(grid_s, event_s)
        if ceiling <= 0.0:
            if grid_s != event_s:
                self._fail(
                    "price_agreement",
                    boundary,
                    f"degenerate decode prices: grid={grid_s} "
                    f"event={event_s}",
                )
            return
        gap = abs(grid_s - event_s) / ceiling
        if gap > self.pricing_tolerance:
            self._fail(
                "price_agreement",
                boundary,
                "grid pricer and event oracle disagree on one decode "
                f"iteration: {grid_s:.6f}s vs {event_s:.6f}s "
                f"({gap:.1%} > {self.pricing_tolerance:.1%})",
            )
