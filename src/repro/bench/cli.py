"""Command-line experiment runner: ``python -m repro.bench``.

Runs quick versions of the headline experiments without pytest, printing
the same tables the benchmark drivers emit.  Useful for a fast sanity
pass after installation::

    python -m repro.bench                 # everything, small sizes
    python -m repro.bench throughput      # one experiment group
    python -m repro.bench --list
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict

from ..core import WindowSpec
from ..dspe import FaultConfig, RecoveryConfig
from ..obs import ObsConfig, Observer, reconcile_spans
from ..joins import (
    ChainIndexJoin,
    HashEquiJoin,
    NestedLoopJoin,
    build_spo_local_topology,
    make_spo_join,
    run_topology,
)
from ..workloads import (
    as_stream_tuples,
    datacenter_streams,
    equi_q,
    equi_stream,
    interleave,
    q1,
    q3,
    q3_stream,
)
from .components import build_immutable_list, build_mutable_window
from .harness import ResultTable, drive_local, time_probes
from .report import (
    events_table,
    summarize_run,
    telemetry_table,
    waterfall_table,
)

__all__ = ["main"]


def _throughput(args) -> None:
    """Component throughput: bit vs hash mutable, PO vs CSS immutable."""
    query = q3()
    data = as_stream_tuples(q3_stream(4_200, seed=1))
    stored, probes = data[:4_000], data[4_000:]
    table = ResultTable(
        "Component throughput, Q3 (tuples/sec)", ["component", "tuples/sec"]
    )
    mut_bit = build_mutable_window(query, stored[:400], evaluator="bit")
    mut_hash = build_mutable_window(query, stored[:400], evaluator="hash")
    table.add_row(
        "mutable bit", time_probes(lambda t: mut_bit.evaluate(t, True), probes)[0]
    )
    table.add_row(
        "mutable hash", time_probes(lambda t: mut_hash.evaluate(t, True), probes)[0]
    )
    po = build_immutable_list(query, stored, 8, "po")
    css = build_immutable_list(query, stored, 8, "css_bit")
    table.add_row(
        "immutable PO-Join", time_probes(lambda t: po.probe_all(t, True), probes)[0]
    )
    table.add_row(
        "immutable CSS", time_probes(lambda t: css.probe_all(t, True), probes)[0]
    )
    table.show()


def _designs(args) -> None:
    """Full designs side by side on the Q3 stream."""
    query = q3()
    window = WindowSpec.count(1_000, 200)
    tuples = as_stream_tuples(q3_stream(2_500, seed=2))
    table = ResultTable(
        "Design comparison, Q3 self join", ["design", "tuples/sec", "matches"]
    )
    for name, algo in [
        ("SPO-Join", make_spo_join(query, window)),
        ("chain index", ChainIndexJoin(query, window)),
        ("nested loop", NestedLoopJoin(query, window)),
    ]:
        stats = drive_local(algo, tuples)
        table.add_row(name, stats.throughput, stats.matches)
    table.show()


def _crossjoin(args) -> None:
    """Q1 cross join on the data-center streams."""
    query = q1()
    window = WindowSpec.count(1_000, 200)
    tuples = as_stream_tuples(datacenter_streams(1_500, seed=3))
    stats = drive_local(make_spo_join(query, window), tuples)
    table = ResultTable("Q1 cross join (BLOND twin)", ["metric", "value"])
    table.add_row("tuples/sec", stats.throughput)
    table.add_row("join results", stats.matches)
    table.add_row("p95 latency (ms)", stats.latency_percentile(95) * 1e3)
    table.show()


def _equijoin(args) -> None:
    """The negative result: hash join vs SPO on equality predicates."""
    query = equi_q()
    window = WindowSpec.count(1_000, 200)
    tuples = as_stream_tuples(
        interleave(
            equi_stream(2_000, "R", seed=4), equi_stream(2_000, "S", seed=5)
        )
    )
    spo = drive_local(make_spo_join(query, window), tuples)
    hashj = drive_local(HashEquiJoin(query, window), tuples)
    table = ResultTable(
        "Equi join: SPO vs native hash join", ["design", "tuples/sec"]
    )
    table.add_row("SPO-Join", spo.throughput)
    table.add_row("hash join", hashj.throughput)
    table.show()


def _trace(args) -> None:
    """Tuple tracing: per-stage latency waterfall with reconciliation."""
    query = q3()
    window = WindowSpec.count(200, 40)
    raws = q3_stream(800, seed=8)
    obs = Observer(ObsConfig(trace_sample_every=1, tick_interval=0.01))
    source = ((raw.event_time, raw) for raw in raws)
    # batch_size=1 keeps the router -> joiner chain linear, so per-stage
    # slices telescope exactly into the end-to-end latency (see
    # repro.obs.trace); branching topologies would over-count.
    result = run_topology(
        build_spo_local_topology(source, query, window, batch_size=1),
        obs=obs,
    )
    waterfall_table(obs.tracer.spans).show()
    rec = reconcile_spans(obs.tracer.spans)
    table = ResultTable("Trace reconciliation", ["metric", "value"])
    table.add_row("spans", int(rec["spans"]))
    table.add_row("stage-sum latency (s)", rec["stage_total_s"])
    table.add_row("end-to-end latency (s)", rec["end_to_end_s"])
    table.add_row("relative error", rec["relative_error"])
    table.show()
    if args.trace_out:
        lines = obs.export_jsonl(
            args.trace_out,
            meta={"experiment": "trace", "query": "q3_self_join"},
        )
        print(f"wrote {lines} JSONL lines to {args.trace_out}")
    _write_json(
        args,
        "trace",
        {
            "experiment": "trace",
            "query": "q3_self_join",
            "window": {"size": 200, "slide": 40, "kind": "count"},
            "stream_tuples": len(raws),
            "result_records": len(result.records),
            "reconciliation": rec,
            "telemetry": obs.summary(),
        },
    )
    if rec["relative_error"] > 0.01:
        raise SystemExit(
            f"trace reconciliation error {rec['relative_error']:.3%} "
            f"exceeds the 1% budget"
        )


def _report(args) -> None:
    """Instrumented run report: utilization, telemetry, event counts."""
    query = q3()
    window = WindowSpec.count(200, 40)
    raws = q3_stream(800, seed=9)
    batch_size = 8
    obs = Observer(ObsConfig(tick_interval=0.02))
    source = ((raw.event_time, raw) for raw in raws)
    result = run_topology(
        build_spo_local_topology(source, query, window, batch_size=batch_size),
        obs=obs,
    )
    summarize_run(result).show()
    telemetry_table(obs.telemetry).show()
    events_table(obs.events).show()
    if args.trace_out:
        lines = obs.export_jsonl(
            args.trace_out,
            meta={"experiment": "report", "query": "q3_self_join"},
        )
        print(f"wrote {lines} JSONL lines to {args.trace_out}")
    _write_json(
        args,
        "report",
        {
            "experiment": "report",
            "query": "q3_self_join",
            "window": {"size": 200, "slide": 40, "kind": "count"},
            "stream_tuples": len(raws),
            "batch_size": batch_size,
            "result_records": len(result.records),
            "telemetry": obs.summary(),
        },
    )


def _recovery(args) -> None:
    """Chaos run: crash the SPO joiner PE, sweep checkpoint intervals."""
    query = q3()
    window = WindowSpec.count(100, 20)
    raws = q3_stream(600, seed=7)
    horizon = raws[-1].event_time * 0.8

    def build():
        source = ((raw.event_time, raw) for raw in raws)
        return build_spo_local_topology(source, query, window, batch_size=8)

    baseline = run_topology(build())
    base_fp = baseline.result_fingerprint()

    intervals = [0.02, 0.08]
    if args.checkpoint_interval and args.checkpoint_interval not in intervals:
        intervals.append(args.checkpoint_interval)

    table = ResultTable(
        "Recovery vs checkpoint interval (Q3, SPO joiner)",
        [
            "ckpt interval (s)",
            "crashes",
            "recovery mean (ms)",
            "replayed",
            "dup ratio",
            "ckpts",
            "identical",
        ],
    )
    rows = []
    for interval in sorted(intervals):
        obs = Observer(ObsConfig(tick_interval=0.02))
        res = run_topology(
            build(),
            faults=FaultConfig(crash_rate=args.crash_rate, horizon=horizon),
            recovery=RecoveryConfig(checkpoint_interval=interval),
            fault_seed=args.fault_seed,
            obs=obs,
        )
        rec = res.recovery
        identical = res.result_fingerprint() == base_fp
        latency = rec.recovery_latency_summary()
        table.add_row(
            interval,
            rec.crashes,
            latency.mean * 1e3,
            rec.replayed_tuples,
            rec.duplicate_ratio(),
            rec.checkpoints,
            identical,
        )
        rows.append(
            {
                "checkpoint_interval_s": interval,
                "result_identical": identical,
                **rec.to_dict(),
                "event_counts": obs.events.counts(),
                "cost_categories_s": obs.telemetry.summary()[
                    "cost_categories_s"
                ],
            }
        )
        # Export the trace before the divergence check so a failing chaos
        # run still leaves its JSONL behind for the CI artifact upload.
        if args.trace_out:
            lines = obs.export_jsonl(
                args.trace_out,
                meta={
                    "experiment": "recovery",
                    "checkpoint_interval_s": interval,
                    "result_identical": identical,
                },
            )
            print(f"wrote {lines} JSONL lines to {args.trace_out}")
        if not identical or rec.divergent_records:
            raise SystemExit(
                f"chaos run diverged at checkpoint_interval={interval}: "
                f"identical={identical}, "
                f"divergent_records={rec.divergent_records}"
            )
    table.show()
    _write_json(
        args,
        "recovery",
        {
            "experiment": "recovery",
            "query": "q3_self_join",
            "window": {"size": 100, "slide": 20, "kind": "count"},
            "stream_tuples": len(raws),
            "crash_rate": args.crash_rate,
            "fault_seed": args.fault_seed,
            "fault_horizon_s": horizon,
            "baseline_fingerprint": base_fp,
            "results": rows,
        },
    )


def _overload(args) -> None:
    """Overload protection: block vs shed vs degrade at 0.6x/1x/2x rates."""
    from ..dspe import FlowConfig

    query = q3()
    window = WindowSpec.count(300, 60)
    n = args.tuples or 900
    raws = q3_stream(n, seed=11)
    capacity = args.queue_capacity

    def build(degrade=False):
        # Source timestamps are reassigned per offered rate below; the
        # raw tuples' own event_time only rides along in result records.
        return build_spo_local_topology(
            (pair for pair in source),
            query,
            window,
            batch_size=1,
            degrade_under_pressure=degrade,
        )

    # Calibrate the joiner's service rate from an uncontended run: all
    # offered rates are expressed as multiples of what the joiner can
    # actually sustain on this machine, so the 2x point is 2x overload
    # regardless of host speed.
    source = [(i * 1e-9, raw) for i, raw in enumerate(raws)]
    calib = run_topology(build())
    joiner = calib.pes_of("joiner")[0]
    mu = joiner.processed / joiner.busy_time if joiner.busy_time > 0 else 1e6
    base_fp = calib.result_fingerprint()

    factors = [0.6, 1.0, 2.0]
    if args.source_rate and args.source_rate not in factors:
        factors.append(args.source_rate)
    policies = [args.policy] if args.policy else ["block", "shed", "degrade"]

    table = ResultTable(
        f"Overload sweep, Q3 (joiner rate {mu:.0f} tps, capacity {capacity})",
        [
            "policy",
            "offered (x)",
            "results",
            "shed",
            "p99 wait (ms)",
            "throughput (tps)",
            "blocked (s)",
            "hwm",
        ],
    )
    rows = []
    p99_at_2x: Dict[str, float] = {}
    for policy in policies:
        for factor in sorted(factors):
            rate = factor * mu
            source = [(i / rate, raw) for i, raw in enumerate(raws)]
            flow = FlowConfig(queue_capacity=capacity, policy=policy)
            obs = Observer(ObsConfig()) if args.trace_out else None
            res = run_topology(
                build(degrade=(policy == "degrade")),
                flow=flow,
                obs=obs,
            )
            results = len(res.records_named("result"))
            metrics = res.flow.metrics
            shed = metrics.total_shed_tuples()
            p99 = metrics.wait_percentile(joiner.name, 99)
            throughput = results / res.sim_end if res.sim_end > 0 else 0.0
            hwm = metrics.high_watermarks.get(joiner.name, 0)
            table.add_row(
                policy,
                factor,
                results,
                shed,
                p99 * 1e3,
                throughput,
                metrics.total_blocked_s(),
                hwm,
            )
            rows.append(
                {
                    "policy": policy,
                    "offered_factor": factor,
                    "offered_rate_tps": rate,
                    "results": results,
                    "shed_tuples": shed,
                    "shed_records": len(res.records_named("shed")),
                    "p99_joiner_wait_s": p99,
                    "achieved_tps": throughput,
                    "blocked_s": metrics.total_blocked_s(),
                    "blocks": metrics.total_blocks(),
                    "joiner_high_watermark": hwm,
                    "queue_full_events": sum(
                        metrics.queue_full_events.values()
                    ),
                    "result_identical_to_uncontended": (
                        res.result_fingerprint() == base_fp
                    ),
                }
            )
            if factor >= 2.0:
                p99_at_2x[policy] = p99
                if policy == "block" and (shed or results != n):
                    raise SystemExit(
                        f"block policy violated at {factor}x: "
                        f"shed={shed}, results={results}/{n}"
                    )
                if policy == "shed" and (results + shed != n or shed == 0):
                    raise SystemExit(
                        f"shed accounting violated at {factor}x: "
                        f"results={results} + shed={shed} != {n}"
                    )
            if obs is not None:
                lines = obs.export_jsonl(
                    args.trace_out,
                    meta={
                        "experiment": "overload",
                        "policy": policy,
                        "offered_factor": factor,
                    },
                )
                print(f"wrote {lines} JSONL lines to {args.trace_out}")
    table.show()
    if "degrade" in p99_at_2x and "block" in p99_at_2x:
        if p99_at_2x["degrade"] >= p99_at_2x["block"]:
            # Unlike the shed/block invariants this is a wall-clock
            # comparison between two separately timed runs, so a noisy
            # host can flip it; warn rather than fail, and gate the
            # committed BENCH.json entry on the ordering instead.
            print(
                "WARNING: degrade p99 "
                f"({p99_at_2x['degrade']:.4f}s) did not beat block "
                f"({p99_at_2x['block']:.4f}s) at 2x overload on this run"
            )
    # The knee: the largest offered rate whose achieved throughput still
    # tracks it (within 10%) — past the knee the curve flattens (block),
    # drops tuples (shed), or holds only by degrading answers (degrade).
    knee = {}
    for policy in policies:
        sustained = [
            r["offered_factor"]
            for r in rows
            if r["policy"] == policy
            and r["results"] == n
            and r["achieved_tps"] >= 0.9 * r["offered_rate_tps"]
        ]
        knee[policy] = max(sustained) if sustained else None
    _write_json(
        args,
        "overload",
        {
            "experiment": "overload",
            "query": "q3_self_join",
            "window": {"size": 300, "slide": 60, "kind": "count"},
            "stream_tuples": n,
            "queue_capacity": capacity,
            "joiner_service_rate_tps": mu,
            "sustainable_knee_factor": knee,
            "p99_wait_at_2x_s": p99_at_2x,
            "results": rows,
        },
    )


def _write_json(args, key: str, payload) -> None:
    """Merge one experiment's payload under ``key`` in ``--json-out``.

    The file holds a mapping of experiment name to payload; a file that
    is not a JSON object is overwritten.
    """
    if not args.json_out:
        return
    try:
        with open(args.json_out) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        data = None
    if not isinstance(data, dict):
        data = {}
    data[key] = payload
    with open(args.json_out, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    print(f"wrote {key!r} entry to {args.json_out}")


EXPERIMENTS: Dict[str, Callable[..., None]] = {
    "throughput": _throughput,
    "designs": _designs,
    "crossjoin": _crossjoin,
    "equijoin": _equijoin,
    "recovery": _recovery,
    "overload": _overload,
    "trace": _trace,
    "report": _report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Quick SPO-Join experiment runner (see benchmarks/ for "
        "the full per-figure suite).",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(EXPERIMENTS),
        help="run one experiment group (default: all)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment groups and exit"
    )
    parser.add_argument(
        "--json-out",
        default=None,
        help="merge each experiment's results into this JSON file "
        "(mapping of experiment name to payload, e.g. BENCH.json)",
    )
    parser.add_argument(
        "--crash-rate",
        type=float,
        default=6.0,
        help="recovery experiment: expected crashes per joiner PE over "
        "the fault horizon (Poisson)",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=None,
        help="recovery experiment: add this checkpoint interval (seconds) "
        "to the default sweep",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="trace/report/recovery experiments: export the run's "
        "observability stream (events, telemetry ticks, trace spans) as "
        "one time-ordered JSONL file",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=42,
        help="recovery experiment: seed for the fault plan and loss RNG",
    )
    parser.add_argument(
        "--source-rate",
        type=float,
        default=None,
        help="overload experiment: add this offered-rate factor "
        "(multiple of the calibrated joiner service rate) to the "
        "default sweep",
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=24,
        help="overload experiment: bounded PE queue capacity (messages)",
    )
    parser.add_argument(
        "--policy",
        choices=["block", "shed", "degrade"],
        default=None,
        help="overload experiment: run only this overload policy "
        "(default: all three)",
    )
    parser.add_argument(
        "--tuples",
        type=int,
        default=None,
        help="overload experiment: stream length (default 900)",
    )
    args = parser.parse_args(argv)
    if args.crash_rate < 0:
        parser.error("--crash-rate must be non-negative")
    if args.checkpoint_interval is not None and args.checkpoint_interval <= 0:
        parser.error("--checkpoint-interval must be positive")
    if args.source_rate is not None and args.source_rate <= 0:
        parser.error("--source-rate must be positive")
    if args.queue_capacity < 1:
        parser.error("--queue-capacity must be >= 1")
    if args.tuples is not None and args.tuples < 1:
        parser.error("--tuples must be >= 1")

    if args.list:
        for name, fn in sorted(EXPERIMENTS.items()):
            print(f"{name:12s} {fn.__doc__.strip().splitlines()[0]}")
        return 0

    chosen = [args.experiment] if args.experiment else sorted(EXPERIMENTS)
    start = time.perf_counter()
    for name in chosen:
        EXPERIMENTS[name](args)
    print(f"\ncompleted {len(chosen)} experiment(s) "
          f"in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
