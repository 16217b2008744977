"""``repro-serve`` — open-loop online serving simulation from the shell.

Examples::

    repro-serve --placement helm --arrival poisson --rate 2.0
    repro-serve --placement allcpu --arrival bursty --rate 0.1 \
        --requests 300 --classes interactive:0.7,batch:0.3
    repro-serve --placement helm --rate 0.005 --vary-lengths \
        --save-trace stream.jsonl --chrome-trace run.json
    repro-serve --replay stream.jsonl --placement allcpu --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.fleet.router import ROUTER_NAMES
from repro.kv import KV_POLICY_NAMES
from repro.memory.hierarchy import HOST_CONFIG_LABELS
from repro.serve.arrivals import TraceReplay, load_trace, save_trace
from repro.serve.request import DEFAULT_CLASSES, STANDARD, QosClass
from repro.serve.resilience import NO_RESILIENCE
from repro.serve.simulator import simulate_serving
from repro.telemetry import Telemetry
from repro.telemetry.summary import cache_stats_line
from repro.workloads.lengths import LengthDistribution


def parse_class_mix(spec: str) -> Tuple[Tuple[QosClass, float], ...]:
    """Parse ``name:weight,name:weight`` over the predefined classes."""
    known = {qos.name: qos for qos in DEFAULT_CLASSES}
    mix: List[Tuple[QosClass, float]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight_text = part.partition(":")
        if name not in known:
            raise ConfigurationError(
                f"unknown QoS class {name!r}; available: "
                f"{', '.join(sorted(known))}"
            )
        try:
            weight = float(weight_text) if weight_text else 1.0
        except ValueError:
            raise ConfigurationError(
                f"bad class weight in {part!r}"
            ) from None
        mix.append((known[name], weight))
    if not mix:
        raise ConfigurationError(f"empty class mix {spec!r}")
    return tuple(mix)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Simulate an open-loop online serving deployment (continuous "
            "batching, multi-tenant QoS) of out-of-core LLM inference on "
            "heterogeneous host memory."
        ),
    )
    parser.add_argument("--model", default="opt-175b")
    parser.add_argument(
        "--host", default="NVDRAM",
        help=f"one of {', '.join(HOST_CONFIG_LABELS)}",
    )
    parser.add_argument(
        "--placement", default="helm", help="baseline | helm | allcpu"
    )
    parser.add_argument(
        "--compress", action=argparse.BooleanOptionalAction, default=True,
        help="4-bit group-wise weight quantization (default: on)",
    )
    parser.add_argument(
        "--arrival", default="poisson",
        choices=("poisson", "bursty", "diurnal", "flash"),
        help="arrival process (ignored with --replay): poisson, "
        "bursty (MMPP), diurnal (sinusoidal trough-to-peak swing), "
        "flash (linear flash-crowd ramp/hold/decay)",
    )
    parser.add_argument(
        "--rate", type=float, default=0.01,
        help="mean arrival rate, requests/s (diurnal/flash: the "
        "trough/base rate)",
    )
    parser.add_argument(
        "--burst-rate", type=float, default=None,
        help="bursty arrivals: burst-state rate (default 5x --rate)",
    )
    parser.add_argument(
        "--peak-rate", type=float, default=None,
        help="diurnal/flash arrivals: peak rate (default 10x --rate)",
    )
    parser.add_argument(
        "--period", type=float, default=None,
        help="diurnal arrivals: full trough-peak-trough period, "
        "seconds (default 200 base interarrivals)",
    )
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--prompt-len", default="128",
        help="prompt length distribution: N | fixed:N | uniform:LO:HI | "
        "lognormal:MEDIAN[:SIGMA]",
    )
    parser.add_argument(
        "--gen-len", default="21",
        help="generation length distribution (same formats)",
    )
    parser.add_argument(
        "--vary-lengths", action="store_true",
        help="shortcut: lognormal lengths around --prompt-len/--gen-len",
    )
    parser.add_argument(
        "--classes", default=STANDARD.name,
        help="tenant mix, e.g. 'interactive:0.7,batch:0.3' "
        f"(classes: {', '.join(sorted(q.name for q in DEFAULT_CLASSES))})",
    )
    parser.add_argument(
        "--max-batch", type=int, default=None,
        help="override the KV-cache admission limit",
    )
    parser.add_argument(
        "--kv-policy", default=None, choices=KV_POLICY_NAMES,
        help="attach the tiered KV-cache manager: static (today's "
        "split, accounting only), hotness (LRU demotion + passive "
        "promotion against real tier capacity), or hotness-inclusive "
        "(shadow copies make demotions free)",
    )
    parser.add_argument(
        "--iteration-fault-pricing", action="store_true",
        help="with --faults: price every layer's transfers through "
        "the injector individually instead of one lump sum per "
        "iteration",
    )
    parser.add_argument(
        "--faults", metavar="FILE", default=None,
        help="fault schedule JSON: inject transfer faults (degradation "
        "windows, transient failures, outages) into the run",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="override the schedule's RNG seed for the fault process",
    )
    parser.add_argument(
        "--resilience", action=argparse.BooleanOptionalAction, default=True,
        help="graceful degradation (shed/shrink/re-plan) under --faults "
        "(default: on; --no-resilience prices faults but never reacts)",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run the cross-layer invariant sanitizer at every "
        "scheduler boundary (clock, request conservation, KV "
        "accounting, lost tiers, cache stats, pricing agreement); "
        "never changes a priced metric, aborts on the first "
        "violation (also: REPRO_SANITIZE=1)",
    )
    parser.add_argument(
        "--replicas", type=int, default=1,
        help="fleet size: run N identically configured replicas behind "
        "a router (default 1 = the single-engine stack, bit-identical "
        "to previous releases)",
    )
    parser.add_argument(
        "--autoscale", action="store_true",
        help="planner-in-the-loop autoscaling: a deterministic "
        "controller re-plans capacity every interval from streaming "
        "arrival/TTFT telemetry and adds or drains replicas "
        "(--replicas sets the initial size; see docs/fleet.md)",
    )
    parser.add_argument(
        "--autoscale-min", type=int, default=1, metavar="N",
        help="autoscale floor (default 1)",
    )
    parser.add_argument(
        "--autoscale-max", type=int, default=4, metavar="N",
        help="autoscale ceiling (default 4)",
    )
    parser.add_argument(
        "--autoscale-interval", type=float, default=60.0, metavar="S",
        help="control interval, virtual seconds (default 60)",
    )
    parser.add_argument(
        "--autoscale-cooldown", type=float, default=120.0, metavar="S",
        help="minimum virtual seconds between applied scaling "
        "changes (default 120)",
    )
    parser.add_argument(
        "--shards", default="1",
        help="shard each replica's placement: TP or TPxPP "
        "(e.g. 2 or 2x2; default 1 = unsharded)",
    )
    parser.add_argument(
        "--router", default="round-robin", choices=ROUTER_NAMES,
        help="fleet routing policy (only meaningful with --replicas > 1)",
    )
    parser.add_argument(
        "--prefix-groups", type=int, default=0,
        help="tag the sampled stream with N skewed shared-prefix "
        "tenant groups (multi-tenant prefix locality)",
    )
    parser.add_argument(
        "--prefix-cache", type=int, default=0, metavar="GROUPS",
        help="per-replica prefix cache capacity in resident groups "
        "(0 = off); hits prefill only the prompt suffix",
    )
    parser.add_argument(
        "--slo", metavar="FILE", nargs="?", const="default", default=None,
        help="streaming SLO monitoring (repro.obs): FILE is an SloSpec "
        "JSON (see docs/observability.md); bare --slo derives one "
        "objective per configured QoS class from the class's own "
        "latency bounds.  Burn-rate alerts stream as slo_alert span "
        "events, windowed gauges land under obs/ and slo/, and the "
        "report is printed below the run summary",
    )
    parser.add_argument(
        "--replay", metavar="FILE",
        help="replay a JSONL request trace instead of sampling arrivals",
    )
    parser.add_argument(
        "--save-trace", metavar="FILE",
        help="write the (sampled or replayed) request stream as JSONL",
    )
    parser.add_argument(
        "--chrome-trace", metavar="FILE",
        help="write the virtual-time run as chrome://tracing JSON "
        "(request spans overlaid on the engine's compute/transfer "
        "tracks)",
    )
    parser.add_argument(
        "--json", metavar="FILE", help="write the summary as JSON"
    )
    parser.add_argument(
        "--telemetry-out", metavar="FILE",
        help="write the run's telemetry bundle (metrics + spans) as "
        "JSON — or JSONL when FILE ends in .jsonl, tailable with "
        "'repro-telemetry summary --follow'",
    )
    return parser


def _length_dist(spec: str, vary: bool) -> LengthDistribution:
    dist = LengthDistribution.parse(spec)
    if vary and dist.kind == "fixed":
        return LengthDistribution.lognormal(median=float(dist.low))
    return dist


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _print_report(result, telemetry: Optional[Telemetry] = None) -> None:
    metrics = result.metrics
    setup = result.setup
    print(
        f"{setup['model']} on {setup['host']}, {setup['placement']} "
        f"(max batch {setup['max_batch']}), {setup['arrival']} arrivals "
        f"@ {setup['rate_rps']} req/s, {metrics.num_requests} requests:"
    )
    rows = [
        ("requests completed", f"{metrics.num_requests}"),
        ("simulated span", f"{metrics.duration_s:.1f} s"),
        ("throughput", f"{metrics.throughput_rps:.4f} req/s "
         f"({metrics.token_throughput_tps:.3f} tok/s)"),
        ("goodput (SLO met)", f"{metrics.goodput_rps:.4f} req/s "
         f"({metrics.slo_attainment:.1%} attainment)"),
        ("GPU utilization", f"{metrics.utilization:.1%}"),
        ("mean/peak queue depth",
         f"{metrics.mean_queue_depth:.1f} / {metrics.peak_queue_depth}"),
        ("mean decode batch", f"{metrics.mean_batch:.1f}"),
        ("saturated", str(metrics.saturated)),
    ]
    if telemetry is not None:
        cache_line = cache_stats_line(telemetry.registry)
        if cache_line is not None:
            rows.append(("pricing", cache_line))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"  {name:<{width}} : {value}")
    print("  latency (p50 / p95 / p99, seconds):")
    for label, stats in (
        ("TTFT", metrics.ttft), ("TBT", metrics.tbt), ("E2E", metrics.e2e),
    ):
        print(
            f"    {label:<4} : {_fmt(stats.p50_s)} / {_fmt(stats.p95_s)} / "
            f"{_fmt(stats.p99_s)}"
        )
    if len(metrics.per_class) > 1:
        print("  per QoS class:")
        for name, report in sorted(metrics.per_class.items()):
            shed = f", {report.shed} shed" if report.shed else ""
            print(
                f"    {name:<12} : {report.completed} done{shed}, "
                f"SLO {report.slo_attainment:.1%}, "
                f"TTFT p95 {_fmt(report.ttft.p95_s)} s, "
                f"TBT p95 {_fmt(report.tbt.p95_s)} s"
            )
    kv_info = setup.get("kv")
    if kv_info:
        occupancy = ", ".join(
            f"{tier} {used / 2**30:.2f} GiB"
            for tier, used in kv_info["occupancy_bytes"].items()
        )
        print(
            f"  kv ({kv_info['policy']}): {kv_info['migrations']} "
            f"migration(s), {kv_info['migration_bytes'] / 2**30:.2f} GiB "
            f"moved; final occupancy: {occupancy}"
        )
    faults = metrics.faults
    if "fault_stats" in setup:
        print("  faults:")
        print(
            f"    degradation events {faults.degradation_events} "
            f"(re-plans {faults.replans}), degraded iterations "
            f"{faults.degraded_iterations}, retried iterations "
            f"{faults.retried_iterations} "
            f"({faults.retry_overhead_s:.3f} s overhead)"
        )
        print(
            f"    stalls {faults.stalls} ({faults.stall_s:.1f} s), "
            f"shed {faults.shed_requests} request(s), "
            f"aborted {faults.aborted}"
        )
        if faults.tier_losses or faults.timeouts or faults.client_retries:
            print(
                f"    tier losses {faults.tier_losses}, rescued "
                f"{faults.rescued_requests} request(s), timeouts "
                f"{faults.timeouts}, client retries "
                f"{faults.client_retries}"
            )
    sanitize = setup.get("sanitize")
    if sanitize:
        checked = sum(sanitize["checks"].values())
        print(
            f"  sanitizer: {checked} check(s) over "
            f"{sanitize['boundaries']} boundaries, "
            f"{len(sanitize['violations'])} violation(s)"
        )
    if setup.get("slo"):
        _print_slo_report(setup["slo"])


def _print_slo_report(report) -> None:
    alerts = report.get("alerts", ())
    fired = [a for a in alerts if a.get("firing")]
    first = report.get("first_alert_s")
    print("  slo:")
    for objective in report.get("objectives", ()):
        status = "MET" if objective["met"] else "MISSED"
        firing = ", burn-rate alert FIRING" if objective["firing"] else ""
        print(
            f"    {objective['name']:<16} : {status} "
            f"({objective['attainment']:.2%} vs target "
            f"{objective['target']:.0%}, "
            f"{int(objective['good'])} good / "
            f"{int(objective['bad'])} bad){firing}"
        )
    if fired:
        print(
            f"    alerts: {len(fired)} raised "
            f"(first at t={first:.1f} s virtual)"
        )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        class_mix = parse_class_mix(args.classes)
        if args.replay:
            specs = load_trace(args.replay)
            arrival = TraceReplay(specs=specs)
            # Replayed requests keep their recorded classes; make sure
            # every class named by the trace is configured.
            named = {spec.qos_class for spec in specs}
            known = {qos.name for qos, _ in class_mix}
            missing = named - known
            if missing:
                class_mix = class_mix + tuple(
                    (qos, 0.0)
                    for qos in DEFAULT_CLASSES
                    if qos.name in missing
                )
            num_requests = args.requests if args.requests else 0
        else:
            arrival = args.arrival
            if args.peak_rate is not None or args.period is not None:
                from repro.serve.simulator import make_arrival_process

                arrival = make_arrival_process(
                    args.arrival,
                    args.rate,
                    burst_rate_rps=args.burst_rate,
                    peak_rate_rps=args.peak_rate,
                    period_s=args.period,
                )
            num_requests = args.requests

        tp_text, _, pp_text = args.shards.partition("x")
        tensor_parallel = int(tp_text)
        pipeline_parallel = int(pp_text) if pp_text else 1
        fleet_mode = (
            args.replicas > 1
            or tensor_parallel > 1
            or pipeline_parallel > 1
            or args.prefix_groups > 0
            or args.prefix_cache > 0
            or args.autoscale
        )
        autoscale_policy = None
        if args.autoscale:
            from repro.autoscale import AutoscalePolicy

            autoscale_policy = AutoscalePolicy(
                interval_s=args.autoscale_interval,
                cooldown_s=args.autoscale_cooldown,
                min_replicas=args.autoscale_min,
                max_replicas=args.autoscale_max,
            )

        telemetry = Telemetry.create(
            tool="repro-serve",
            model=args.model,
            host=args.host,
            placement=args.placement,
            seed=args.seed,
        )
        slo_arg = True if args.slo == "default" else args.slo
        if fleet_mode:
            from repro.fleet import simulate_fleet

            fleet_result = simulate_fleet(
                model=args.model,
                host=args.host,
                placement=args.placement,
                compress_weights=args.compress,
                arrival=arrival,
                rate_rps=args.rate,
                burst_rate_rps=args.burst_rate,
                num_requests=num_requests,
                prompt_lengths=_length_dist(
                    args.prompt_len, args.vary_lengths
                ),
                gen_lengths=_length_dist(args.gen_len, args.vary_lengths),
                class_mix=class_mix,
                seed=args.seed,
                max_batch=args.max_batch,
                faults=args.faults,
                fault_seed=args.fault_seed,
                resilience=(
                    None if args.resilience else NO_RESILIENCE
                ) if args.faults else None,
                telemetry=telemetry,
                kv_policy=args.kv_policy,
                iteration_fault_pricing=args.iteration_fault_pricing,
                sanitize=True if args.sanitize else None,
                replicas=args.replicas,
                tensor_parallel=tensor_parallel,
                pipeline_parallel=pipeline_parallel,
                router=args.router,
                prefix_groups=args.prefix_groups,
                prefix_cache_size=args.prefix_cache,
                slo=slo_arg,
                autoscale=autoscale_policy,
            )
            _print_fleet_report(fleet_result)
            if args.save_trace:
                save_trace(_specs_of(fleet_result), args.save_trace)
                print(f"request trace written to {args.save_trace}")
            if args.chrome_trace:
                from repro.telemetry.export import (
                    save_extended_chrome_trace,
                )

                save_extended_chrome_trace(
                    telemetry.bundle(),
                    args.chrome_trace,
                    trace=fleet_result.replicas[0].result.trace,
                )
                print(f"chrome trace written to {args.chrome_trace}")
            if args.json:
                with open(args.json, "w") as handle:
                    json.dump(fleet_result.summary(), handle, indent=1)
                print(f"summary written to {args.json}")
            if args.telemetry_out:
                _write_telemetry(telemetry, args.telemetry_out)
            return 0
        result = simulate_serving(
            model=args.model,
            host=args.host,
            placement=args.placement,
            compress_weights=args.compress,
            arrival=arrival,
            rate_rps=args.rate,
            burst_rate_rps=args.burst_rate,
            num_requests=num_requests,
            prompt_lengths=_length_dist(args.prompt_len, args.vary_lengths),
            gen_lengths=_length_dist(args.gen_len, args.vary_lengths),
            class_mix=class_mix,
            seed=args.seed,
            max_batch=args.max_batch,
            faults=args.faults,
            fault_seed=args.fault_seed,
            resilience=(
                None if args.resilience else NO_RESILIENCE
            ) if args.faults else None,
            telemetry=telemetry,
            kv_policy=args.kv_policy,
            iteration_fault_pricing=args.iteration_fault_pricing,
            sanitize=True if args.sanitize else None,
            slo=slo_arg,
        )
        _print_report(result, telemetry=telemetry)

        if args.save_trace:
            save_trace(_specs_of(result), args.save_trace)
            print(f"request trace written to {args.save_trace}")
        if args.chrome_trace:
            from repro.telemetry.export import save_extended_chrome_trace

            save_extended_chrome_trace(
                telemetry.bundle(), args.chrome_trace, trace=result.trace
            )
            print(f"chrome trace written to {args.chrome_trace}")
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(result.summary(), handle, indent=1)
            print(f"summary written to {args.json}")
        if args.telemetry_out:
            _write_telemetry(telemetry, args.telemetry_out)
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _write_telemetry(telemetry: Telemetry, path: str) -> None:
    if path.endswith(".jsonl"):
        from repro.telemetry.export import to_jsonl_text

        with open(path, "w") as handle:
            handle.write(to_jsonl_text(telemetry.bundle()))
        print(
            f"telemetry JSONL written to {path} "
            "(tail with: repro-telemetry summary --follow)"
        )
    else:
        telemetry.save(path)
        print(f"telemetry bundle written to {path}")


def _print_autoscale_report(info) -> None:
    print(
        f"  autoscale: {info['initial_replicas']} -> "
        f"{info['final_replicas']} replica(s) "
        f"(peak {info['peak_replicas']}), "
        f"{len(info['scaling_events'])} change(s) over "
        f"{len(info['decisions'])} decision(s)"
    )
    print(
        f"    replica-seconds provisioned : "
        f"{info['replica_seconds']:.1f} "
        f"({info['gpu_seconds_per_token']:.4f} gpu-s/token)"
    )
    for event in info["scaling_events"]:
        print(
            f"    t={event['at_s']:.1f} s: {event['action']} "
            f"replica {event['replica']}"
        )


def _print_fleet_report(result) -> None:
    setup = result.setup
    summary = result.summary()
    print(
        f"{setup['model']} on {setup['host']}, {setup['placement']}: "
        f"{setup['replicas']} replica(s), {setup['router']} router, "
        f"{setup['num_requests']} requests:"
    )
    rows = [
        ("requests completed", f"{summary['completed']}"
         + (f" ({summary['shed_requests']} shed)"
            if summary["shed_requests"] else "")),
        ("simulated span", f"{summary['span_s']:.1f} s"),
        ("fleet throughput", f"{summary['throughput_rps']:.4f} req/s"),
        ("goodput (SLO met)", f"{summary['goodput_rps']:.4f} req/s "
         f"({summary['slo_attainment']:.1%} attainment)"),
        ("per-replica routed",
         " / ".join(str(n) for n in summary["per_replica_routed"])),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"  {name:<{width}} : {value}")
    print("  latency (p50 / p95 / p99, seconds):")
    for label in ("ttft", "e2e"):
        print(
            f"    {label.upper():<4} : "
            f"{summary[f'{label}_p50_s']:.3f} / "
            f"{summary[f'{label}_p95_s']:.3f} / "
            f"{summary[f'{label}_p99_s']:.3f}"
        )
    if result.metrics.get("slo"):
        _print_slo_report(result.metrics["slo"])
    if result.metrics.get("autoscale"):
        _print_autoscale_report(result.metrics["autoscale"])
    for entry in result.replicas:
        cache = entry.result.setup.get("prefix_cache")
        if cache:
            total = cache["hits"] + cache["misses"]
            rate = cache["hits"] / total if total else 0.0
            print(
                f"  replica {entry.index} prefix cache: "
                f"{cache['hits']}/{total} hits ({rate:.0%}), "
                f"{cache['evictions']} eviction(s)"
            )


def _specs_of(result) -> Sequence:
    from repro.serve.request import RequestSpec

    return [
        RequestSpec(
            request_id=record.request_id,
            arrival_s=record.arrival_s,
            prompt_len=record.prompt_len,
            gen_len=record.gen_len,
            qos_class=record.qos_class,
        )
        for record in result.records
    ]


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
