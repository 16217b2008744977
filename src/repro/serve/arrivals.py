"""Arrival processes for the open-loop serving simulator.

Five workload shapes:

* :class:`PoissonProcess` — memoryless arrivals at a constant rate,
  the standard open-loop load model.
* :class:`MmppProcess` — a two-state Markov-modulated Poisson process
  alternating between a base rate and a burst rate; reproduces the
  bursty traffic tiered-memory serving studies (ITME) evaluate under.
* :class:`DiurnalProcess` — a non-homogeneous Poisson process whose
  rate swings sinusoidally between a trough and a peak (the diurnal
  day/night cycle an autoscaler must ride), sampled by thinning.
* :class:`FlashCrowdProcess` — steady base traffic plus one
  ramp-hold-decay surge (a flash crowd / retweet spike), also by
  thinning.
* :class:`TraceReplay` — replays a recorded request trace verbatim,
  for production traces or regression workloads.

:func:`generate_requests` samples a full request stream (arrival
times, per-request prompt/gen lengths, tenant classes)
deterministically from one seed; :func:`save_trace` /
:func:`load_trace` round-trip streams through JSONL files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.errors import WorkloadError, require_int
from repro.serve.request import STANDARD, QosClass, RequestSpec
from repro.workloads.lengths import LengthDistribution

#: Default mix: one tenant, the paper's shape.
DEFAULT_MIX: Tuple[Tuple[QosClass, float], ...] = ((STANDARD, 1.0),)


def _check_params(
    process,
    positive: Tuple[str, ...] = (),
    non_negative: Tuple[str, ...] = (),
    finite: Tuple[str, ...] = (),
) -> None:
    """Reject a non-finite or out-of-range process parameter by name.

    NaN slips through every ``<= 0`` comparison, and an infinite rate
    or sojourn collapses the stream onto one instant, so finiteness
    is checked first.
    """
    owner = type(process).__name__
    for name in positive + non_negative + finite:
        value = getattr(process, name)
        if not math.isfinite(value):
            raise WorkloadError(f"{owner}.{name} must be finite, got {value!r}")
        if name in positive and value <= 0:
            raise WorkloadError(f"{owner}.{name} must be positive, got {value!r}")
        if name in non_negative and value < 0:
            raise WorkloadError(f"{owner}.{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class PoissonProcess:
    """Constant-rate memoryless arrivals."""

    rate_rps: float

    def __post_init__(self) -> None:
        _check_params(self, positive=("rate_rps",))

    def arrival_times(
        self, num_requests: int, rng: np.random.Generator
    ) -> np.ndarray:
        gaps = rng.exponential(1.0 / self.rate_rps, size=num_requests)
        return np.cumsum(gaps)


@dataclass(frozen=True)
class MmppProcess:
    """Two-state Markov-modulated Poisson process (bursty arrivals).

    The process alternates between a *base* state and a *burst* state;
    sojourn times in each state are exponential with the given means,
    and arrivals within a state are Poisson at that state's rate.
    """

    base_rate_rps: float
    burst_rate_rps: float
    mean_base_s: float
    mean_burst_s: float

    def __post_init__(self) -> None:
        _check_params(
            self,
            positive=(
                "base_rate_rps",
                "burst_rate_rps",
                "mean_base_s",
                "mean_burst_s",
            ),
        )
        if self.burst_rate_rps <= self.base_rate_rps:
            raise WorkloadError("burst rate must exceed the base rate")

    @property
    def mean_rate_rps(self) -> float:
        """Time-averaged arrival rate across both states."""
        total = self.mean_base_s + self.mean_burst_s
        return (
            self.base_rate_rps * self.mean_base_s
            + self.burst_rate_rps * self.mean_burst_s
        ) / total

    def arrival_times(
        self, num_requests: int, rng: np.random.Generator
    ) -> np.ndarray:
        times: List[float] = []
        now = 0.0
        burst = False
        while len(times) < num_requests:
            rate = self.burst_rate_rps if burst else self.base_rate_rps
            mean = self.mean_burst_s if burst else self.mean_base_s
            state_end = now + rng.exponential(mean)
            clock = now
            while len(times) < num_requests:
                clock += rng.exponential(1.0 / rate)
                if clock >= state_end:
                    break
                times.append(clock)
            now = state_end
            burst = not burst
        return np.asarray(times[:num_requests])


def _thin_arrivals(
    num_requests: int,
    rng: np.random.Generator,
    envelope_rps: float,
    rate_at,
) -> np.ndarray:
    """Sample a non-homogeneous Poisson process by thinning.

    Candidate arrivals are drawn from a homogeneous process at the
    envelope rate (an upper bound on ``rate_at``); each candidate at
    time ``t`` is kept with probability ``rate_at(t) / envelope``.
    Exactly two RNG draws per candidate, so the stream is a
    deterministic function of the seed.
    """
    times: List[float] = []
    now = 0.0
    while len(times) < num_requests:
        now += rng.exponential(1.0 / envelope_rps)
        if rng.random() * envelope_rps <= rate_at(now):
            times.append(now)
    return np.asarray(times)


@dataclass(frozen=True)
class DiurnalProcess:
    """Sinusoidal day/night arrival cycle (non-homogeneous Poisson).

    The instantaneous rate swings between ``base_rate_rps`` (the
    trough) and ``peak_rate_rps`` over one ``period_s`` cycle:
    ``rate(t) = base + (peak - base) x (1 - cos(2 pi (t - phase) /
    period)) / 2`` — the cycle *starts at the trough*, so a run
    warms up under light load before the first peak hits.
    """

    base_rate_rps: float
    peak_rate_rps: float
    period_s: float
    phase_s: float = 0.0

    def __post_init__(self) -> None:
        _check_params(
            self,
            positive=("base_rate_rps", "peak_rate_rps", "period_s"),
            finite=("phase_s",),
        )
        if self.peak_rate_rps <= self.base_rate_rps:
            raise WorkloadError("diurnal peak rate must exceed the base rate")

    def rate_at(self, time_s: float) -> float:
        """Instantaneous arrival rate at virtual ``time_s``."""
        swing = self.peak_rate_rps - self.base_rate_rps
        phase = 2.0 * np.pi * (time_s - self.phase_s) / self.period_s
        return self.base_rate_rps + swing * (1.0 - float(np.cos(phase))) / 2.0

    @property
    def mean_rate_rps(self) -> float:
        """Time-averaged rate over one full cycle."""
        return (self.base_rate_rps + self.peak_rate_rps) / 2.0

    def arrival_times(
        self, num_requests: int, rng: np.random.Generator
    ) -> np.ndarray:
        return _thin_arrivals(
            num_requests, rng, self.peak_rate_rps, self.rate_at
        )


@dataclass(frozen=True)
class FlashCrowdProcess:
    """Steady base traffic plus one ramp-hold-decay surge.

    The rate is ``base_rate_rps`` until ``start_s``, ramps linearly
    to ``peak_rate_rps`` over ``ramp_s``, holds the peak for
    ``hold_s``, then decays linearly back over ``decay_s`` — the
    flash-crowd shape (a viral link, a failover of a sibling region)
    that static capacity either over-provisions for or sheds.
    """

    base_rate_rps: float
    peak_rate_rps: float
    start_s: float
    ramp_s: float
    hold_s: float
    decay_s: float

    def __post_init__(self) -> None:
        _check_params(
            self,
            positive=("base_rate_rps", "peak_rate_rps"),
            non_negative=("start_s", "ramp_s", "hold_s", "decay_s"),
        )
        if self.peak_rate_rps <= self.base_rate_rps:
            raise WorkloadError(
                "flash-crowd peak rate must exceed the base rate"
            )

    def rate_at(self, time_s: float) -> float:
        """Instantaneous arrival rate at virtual ``time_s``."""
        swing = self.peak_rate_rps - self.base_rate_rps
        t = time_s - self.start_s
        if t < 0:
            return self.base_rate_rps
        if t < self.ramp_s:
            return self.base_rate_rps + swing * t / self.ramp_s
        t -= self.ramp_s
        if t < self.hold_s:
            return self.peak_rate_rps
        t -= self.hold_s
        if self.decay_s > 0 and t < self.decay_s:
            return self.peak_rate_rps - swing * t / self.decay_s
        return self.base_rate_rps

    def arrival_times(
        self, num_requests: int, rng: np.random.Generator
    ) -> np.ndarray:
        return _thin_arrivals(
            num_requests, rng, self.peak_rate_rps, self.rate_at
        )


@dataclass(frozen=True)
class TraceReplay:
    """A pre-recorded request stream, replayed verbatim."""

    specs: Tuple[RequestSpec, ...]

    def __post_init__(self) -> None:
        if not self.specs:
            raise WorkloadError("a trace replay needs at least one request")
        seen = set()
        for spec in self.specs:
            if spec.request_id in seen:
                raise WorkloadError(
                    f"trace replay repeats request_id {spec.request_id}"
                )
            seen.add(spec.request_id)


ArrivalProcess = Union[
    PoissonProcess, MmppProcess, DiurnalProcess, FlashCrowdProcess
]


def generate_requests(
    process: Union[ArrivalProcess, TraceReplay],
    num_requests: int,
    prompt_lengths: LengthDistribution = LengthDistribution.fixed(128),
    gen_lengths: LengthDistribution = LengthDistribution.fixed(21),
    class_mix: Sequence[Tuple[QosClass, float]] = DEFAULT_MIX,
    seed: int = 0,
) -> Tuple[RequestSpec, ...]:
    """Sample one deterministic request stream.

    A :class:`TraceReplay` process short-circuits sampling and returns
    its recorded stream (truncated to ``num_requests`` when shorter).
    """
    require_int("num_requests", num_requests, WorkloadError)
    if isinstance(process, TraceReplay):
        if num_requests < 0:
            raise WorkloadError(
                "num_requests must be >= 0 (0 replays the whole trace), "
                f"got {num_requests}"
            )
        specs = process.specs[:num_requests] if num_requests else process.specs
        return tuple(sorted(specs, key=lambda s: (s.arrival_s, s.request_id)))
    if num_requests < 1:
        raise WorkloadError(f"num_requests must be >= 1, got {num_requests}")
    if not class_mix:
        raise WorkloadError("class mix cannot be empty")
    weights = np.asarray([weight for _, weight in class_mix], dtype=float)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise WorkloadError("class weights must be non-negative, sum > 0")

    rng = np.random.default_rng(seed)
    times = process.arrival_times(num_requests, rng)
    prompts = prompt_lengths.sample(rng, num_requests)
    gens = gen_lengths.sample(rng, num_requests)
    names = [qos.name for qos, _ in class_mix]
    picks = rng.choice(len(names), size=num_requests, p=weights / weights.sum())
    return tuple(
        RequestSpec(
            request_id=index,
            arrival_s=float(times[index]),
            prompt_len=int(prompts[index]),
            gen_len=int(gens[index]),
            qos_class=names[picks[index]],
        )
        for index in range(num_requests)
    )


def assign_prefix_groups(
    specs: Sequence[RequestSpec],
    num_groups: int = 4,
    prefix_len: int = 64,
    skew: float = 1.5,
    seed: int = 0,
) -> Tuple[RequestSpec, ...]:
    """Tag a request stream with skewed shared-prefix tenant groups.

    Group popularity follows a Zipf-like law with exponent ``skew``
    (group 0 is the hot tenant), modelling the multi-tenant
    shared-system-prompt traffic a prefix-affinity router exploits.
    Each tagged request shares its first ``prefix_len`` prompt tokens
    with its group, clamped to ``prompt_len - 1``; one-token prompts
    stay untagged.  Deterministic in ``seed`` and independent of the
    stream's own sampling.
    """
    if num_groups < 1:
        raise WorkloadError("need at least one prefix group")
    if prefix_len < 1:
        raise WorkloadError("prefix length must be >= 1")
    weights = np.asarray(
        [1.0 / (rank + 1.0) ** skew for rank in range(num_groups)]
    )
    rng = np.random.default_rng(seed)
    picks = rng.choice(num_groups, size=len(specs), p=weights / weights.sum())
    tagged: List[RequestSpec] = []
    for spec, pick in zip(specs, picks):
        share = min(prefix_len, spec.prompt_len - 1)
        if share < 1:
            tagged.append(spec)
            continue
        tagged.append(
            replace(
                spec,
                prefix_group=f"tenant-{int(pick)}",
                prefix_len=int(share),
            )
        )
    return tuple(tagged)


# ----------------------------------------------------------------------
# Trace files (JSONL, one request per line)
# ----------------------------------------------------------------------

_TRACE_FIELDS = ("request_id", "arrival_s", "prompt_len", "gen_len", "qos_class")


def save_trace(specs: Sequence[RequestSpec], path: str) -> None:
    """Write a request stream as a JSONL trace file.

    Prefix-sharing fields are emitted only when set, so traces written
    from untagged streams remain byte-identical to earlier releases.
    """
    with open(path, "w") as handle:
        for spec in specs:
            payload = {name: getattr(spec, name) for name in _TRACE_FIELDS}
            if spec.prefix_group is not None:
                payload["prefix_group"] = spec.prefix_group
                payload["prefix_len"] = spec.prefix_len
            handle.write(json.dumps(payload) + "\n")


def load_trace(path: str) -> Tuple[RequestSpec, ...]:
    """Read a JSONL trace file back into a request stream.

    Every record is bounds-checked as it is decoded (by
    :class:`RequestSpec` itself, plus ``request_id >= 0``); a bad line
    fails with its ``path:line_no`` location rather than corrupting a
    run.  A repeated ``request_id`` is rejected as in
    :class:`TraceReplay`.
    """
    specs: List[RequestSpec] = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                group = payload.get("prefix_group")
                spec = RequestSpec(
                    request_id=int(payload["request_id"]),
                    arrival_s=float(payload["arrival_s"]),
                    prompt_len=int(payload["prompt_len"]),
                    gen_len=int(payload["gen_len"]),
                    qos_class=str(payload.get("qos_class", STANDARD.name)),
                    prefix_group=None if group is None else str(group),
                    prefix_len=int(payload.get("prefix_len", 0)),
                )
                if spec.request_id < 0:
                    raise ValueError(
                        f"request_id {spec.request_id} must be >= 0"
                    )
                specs.append(spec)
            except (
                KeyError,
                ValueError,
                WorkloadError,
                json.JSONDecodeError,
            ) as error:
                raise WorkloadError(
                    f"{path}:{line_no}: bad trace record: {error}"
                ) from None
    if not specs:
        raise WorkloadError(f"{path}: empty trace")
    try:
        return TraceReplay(tuple(specs)).specs
    except WorkloadError as error:
        raise WorkloadError(f"{path}: {error}") from None
