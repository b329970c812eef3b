"""One (workload, repeat) of the benchmark, measured in this process.

``perf/run.py`` starts this file in a fresh subprocess for every run, one
at a time, and reads the single JSON line it prints.  Phases of a run:
*set-up* (imports, input generation from ``--seed``, boxing, closed-loop
window fill, ``gc.collect()``), the *timed passes* (closed then open on
the local substrate; one ``run`` on the simulated and sharded ones), the
*oracle check*, and the *report*.  A ``--trace`` run additionally
installs the wrappers of :mod:`perf.trace` and reports the per-layer
ledger; end-to-end metrics are only ever taken from untraced runs.
"""

from __future__ import annotations

import time

#: Set-up time counts from here: before numpy and ``repro`` are imported.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from bisect import bisect_left  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    # ``python perf/single.py`` puts perf/ first on the path, where
    # trace.py would shadow the standard library's module of that name.
    sys.path[0] = _ROOT
    sys.path.insert(1, os.path.join(_ROOT, "src"))

import numpy as np  # noqa: E402

from perf import inputs, oracle  # noqa: E402
from perf.trace import LOCAL_TARGETS, SHARDED_TARGETS, SIM_TARGETS, Tracer  # noqa: E402
from perf.workloads import SAMPLE_EVERY, WORKLOADS, Workload  # noqa: E402

_clock = time.perf_counter
_cpu = time.process_time
_OUT_DIR = os.path.join(_ROOT, "perf", "out")

#: Traced and untraced blocks of this many tuples alternate through the
#: closed pass of a traced run, so both see the same mix of merge phases
#: and their throughput ratio is the tracing overhead.  Seven batches of
#: 64: no merge interval is a multiple of it.
_TRACE_BLOCK = 448
#: The timed passes run a full collection themselves, outside the timed
#: regions, every this many tuples (see _full_collections_postponed).  A
#: multiple of two trace blocks, so it never falls inside a traced one.
_COLLECT_EVERY = 10 * _TRACE_BLOCK
#: An open pass is unsustainable when its mean hand-over lag grows by more
#: than this share of the median latency between its first and last tenth.
_BACKLOG_LIMIT = 0.20


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _end_to_end(tuples: int, wall_s: float, cpu_s: float, latencies_s, setup_s: float) -> dict:
    p50, p99 = np.percentile(latencies_s, [50, 99])
    return {
        "throughput_tps": tuples / wall_s,
        "latency_p50_ms": p50 * 1e3,
        "latency_p99_ms": p99 * 1e3,
        # This process plus its largest (waited-for) child.
        "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF) + _rss_mb(resource.RUSAGE_CHILDREN),
        "cpu_us_per_tuple": cpu_s / tuples * 1e6,
        "setup_s": setup_s,
    }


@contextlib.contextmanager
def _full_collections_postponed():
    """Keep automatic full (oldest-generation) collections out of a timed
    region; young collections, whose cost follows what the program
    allocates, still happen.

    A full collection traverses every tracked object of the process.  On
    the local workloads that is mostly the benchmark's own pre-boxed
    inputs (20 ms a pause), and the two to four pauses that fall into a
    pass decide its p99; the timed passes run one themselves between
    chunks instead, untimed.  The simulator charges host wall time as
    simulated service time and keeps every record of the run alive, so
    there a pause (200 ms) is charged to whichever PE was running and
    alone decides the simulated p99 (20 ms without it, 20 to 130 ms with
    it, at random).
    """
    thresholds = gc.get_threshold()
    gc.set_threshold(thresholds[0], thresholds[1], 1_000_000)
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)


def _event_times(w: Workload, n: int) -> np.ndarray:
    return np.arange(n, dtype=np.float64) / w.event_rate


def _rows(w: Workload, cols: inputs.Columns):
    """``(stream, x, y, event_time)`` per tuple, as pure-Python values."""
    streams = ["R" if side == 0 else "S" for side in cols.side.tolist()]
    times = _event_times(w, len(cols.x)).tolist()
    return zip(streams, cols.x.tolist(), cols.y.tolist(), times)


def _make_oracle(w: Workload, cols: inputs.Columns) -> oracle.Oracle:
    kind, __, slide = w.window
    if kind == "count":
        interval_of, starts = oracle.count_intervals(len(cols.x), int(slide))
    else:
        interval_of, starts = oracle.time_intervals(_event_times(w, len(cols.x)), slide)
    return oracle.Oracle(
        cols.x, cols.y, cols.side, interval_of, starts, w.retained, w.predicate, w.band_width
    )


def verify(ref: oracle.Oracle, first: int, last: int, sampled: dict, matches_out: int) -> dict:
    """Compare a run's results with the oracle.

    ``sampled`` maps a tuple's arrival index to the match list the
    program returned for it; ``matches_out`` is the program's total over
    tuples ``[first, last)``.  One mismatch per wrong sampled set, plus
    one if the exact total differs.
    """
    wrong = sum(1 for tid, got in sampled.items() if sorted(got) != ref.match_set(tid))
    expected = ref.total_matches(first, last)
    return {
        "oracle_checked": len(sampled),
        "oracle_matches": expected,
        "mismatched": wrong + (expected != matches_out),
    }


def _checked(w, cols, first, last, sampled, matches_out, raised, first_error="") -> dict:
    """The part of a run's report that does not depend on timing."""
    out = {
        "input_sha256": cols.sha256(),
        "matches_out": matches_out,
        "attempted": last - first,
        "raised": raised,  # tuples whose call raised or went unanswered
        "first_error": first_error,
        "unsustainable": False,
    }
    out.update(verify(_make_oracle(w, cols), first, last, sampled, matches_out))
    return out


def _query_and_window(w: Workload):
    from repro.core import JoinType, Op, QuerySpec, WindowSpec

    if w.predicate == "q3":
        query = QuerySpec.two_inequalities("Q3", JoinType.SELF, Op.GT, Op.LT)
    elif w.predicate == "q1":
        query = QuerySpec.two_inequalities("Q1", JoinType.CROSS, Op.LT, Op.GT)
    else:
        query = QuerySpec.band("Q2", width=w.band_width)
    kind, length, slide = w.window
    if kind == "count":
        return query, WindowSpec.count(int(length), int(slide))
    return query, WindowSpec.time(length, slide)


def _write_spans(w: Workload, tracer: Tracer) -> int:
    os.makedirs(_OUT_DIR, exist_ok=True)
    return tracer.write_spans(os.path.join(_OUT_DIR, f"{w.name}.spans.jsonl"))


# ----------------------------------------------------------------------
# Local substrate: one SPOJoin, closed pass then open pass
# ----------------------------------------------------------------------
class _Tally:
    """Tuples, timed seconds, matches and seconds spent dropping results
    of the traced (or untraced) blocks of a traced run's closed pass."""

    def __init__(self) -> None:
        self.tuples = 0
        self.busy_s = 0.0
        self.matches = 0
        self.free_s = 0.0


class _Pass:
    """What one timed pass measured."""

    def __init__(self) -> None:
        self.busy_s = 0.0  # sum of the timed regions (wall clock)
        self.cpu_s = 0.0  # the same regions on the process CPU clock
        self.matches = 0
        self.raised = 0
        self.first_error = ""
        self.sampled: dict = {}
        # Per chunk: first tuple, CPU seconds of the call, and of
        # dropping its result.
        self.chunk_pos: list = []
        self.chunk_call_s: list = []
        self.chunk_free_s: list = []
        self.traced = _Tally()
        self.untraced = _Tally()
        self.traced_wall_s = 0.0


def _timed_pass(join, tuples, lo, hi, batch, first_timed, tracer=None) -> _Pass:
    """Feed ``tuples[lo:hi]`` in chunks of ``batch``, back to back.

    The timed region of a chunk is ``ArenaSlice.of(chunk)`` +
    ``process_many(slice)`` + ``len(pairs)`` (``process(t)`` +
    ``len(pairs)`` at batch size 1), plus dropping ``pairs`` after the
    oracle's samples are copied out of it.
    """
    from repro.core.arena import ArenaSlice

    out = _Pass()
    tracing = False
    block_start = 0.0
    for pos in range(lo, hi, batch):
        chunk = tuples[pos : pos + batch]
        if tracer is not None:
            want = ((pos - lo) // _TRACE_BLOCK) % 2 == 1
            if want and not tracing:
                tracer.install(LOCAL_TARGETS)
                block_start = _clock()
            elif tracing and not want:
                out.traced_wall_s += _clock() - block_start
                tracer.remove()
            tracing = want
            tracer.batch = len(out.chunk_pos)
        if (pos - lo) % _COLLECT_EVERY == 0:
            gc.collect()
        cpu_start, start = _cpu(), _clock()
        try:
            if batch == 1:
                pairs = join.process(chunk[0])
            else:
                pairs = join.process_many(ArenaSlice.of(chunk))
            got = len(pairs)
        except Exception:  # the program failed these tuples; keep measuring
            out.raised += len(chunk)
            out.first_error = out.first_error or traceback.format_exc()
            continue
        end, cpu_end = _clock(), _cpu()
        # Pairs come grouped by probe, probes in arrival (= tid) order.
        tid = pos + (first_timed - pos) % SAMPLE_EVERY
        while tid < pos + len(chunk):
            a, b = bisect_left(pairs, (tid,)), bisect_left(pairs, (tid + 1,))
            out.sampled[tid] = [match for __, match in pairs[a:b]]
            tid += SAMPLE_EVERY
        # Dropping the result is the caller's cost of a materialised pair
        # list, so it is timed too (but not the sampling above).
        cpu_resumed, resumed = _cpu(), _clock()
        del pairs
        freed, cpu_freed = _clock(), _cpu()
        took = (end - start) + (freed - resumed)
        out.busy_s += took
        out.cpu_s += (cpu_end - cpu_start) + (cpu_freed - cpu_resumed)
        out.matches += got
        out.chunk_pos.append(pos)
        out.chunk_call_s.append(cpu_end - cpu_start)
        out.chunk_free_s.append(cpu_freed - cpu_resumed)
        if tracer is not None:
            tally = out.traced if tracing else out.untraced
            tally.tuples += len(chunk)
            tally.busy_s += took
            tally.matches += got
            tally.free_s += freed - resumed
    if tracing:
        out.traced_wall_s += _clock() - block_start
        tracer.remove()
    return out


def _open_loop(p: _Pass, lo: int, hi: int, batch: int, rate: float):
    """Replay a pass as an open loop at ``rate`` tuples/s on the
    operator's own CPU clock; returns per-tuple latencies, per-chunk
    hand-over lag and the idle share of the schedule, all in seconds.

    Tuple ``i`` is due ``(i - lo) / rate`` seconds into the schedule.  A
    chunk is handed over when its last tuple is due, or as soon as the
    operator is free if that moment has passed; the operator is then
    busy for the CPU time the real call took (and, after returning the
    results, for the CPU time dropping them took).  A tuple's latency
    runs from its own due time to the return of the call that emitted
    its results, so batch-fill wait and backlog both count.  The operator
    is single-threaded and synchronous, which makes this replay exact;
    taking service times from the CPU clock keeps the sandbox's own
    preemptions (1 to 6 ms, several per second, at random) out of a tail
    that at batch size 1 lies below 1 ms.
    """
    latencies = []
    lags = []
    free_at = busy_s = 0.0
    for pos, call_s, free_s in zip(p.chunk_pos, p.chunk_call_s, p.chunk_free_s):
        size = min(batch, hi - pos)
        due_last = (pos + size - 1 - lo) / rate
        start = max(due_last, free_at)
        end = start + call_s
        free_at = end + free_s
        busy_s += call_s + free_s
        lags.append(start - due_last)
        latencies.append(end - (np.arange(pos, pos + size) - lo) / rate)
    return np.concatenate(latencies), np.asarray(lags), 1.0 - busy_s / free_at


def run_local(w: Workload, seed: int, scale: float, trace: bool, setup_only: bool) -> dict:
    from repro.core import StreamTuple
    from repro.core.arena import ArenaSlice
    from repro.joins import make_spo_join

    sizes = w.sized(scale)
    cols = inputs.generate(w.shape, sizes.total, seed, **w.shape_params)
    tuples = [
        StreamTuple(i, stream, (x, y), at) for i, (stream, x, y, at) in enumerate(_rows(w, cols))
    ]
    query, window = _query_and_window(w)
    join = make_spo_join(query, window)
    for pos in range(0, sizes.fill, w.batch):
        chunk = tuples[pos : min(pos + w.batch, sizes.fill)]
        if w.batch == 1:
            join.process(chunk[0])
        else:
            join.process_many(ArenaSlice.of(chunk))
    gc.collect()
    setup_s = _clock() - _T0
    if setup_only:
        return {"setup_s": setup_s}

    tracer = Tracer() if trace else None
    first = sizes.fill
    mid = first + sizes.n_closed
    last = mid + sizes.n_open
    with _full_collections_postponed():
        closed = _timed_pass(join, tuples, first, mid, w.batch, first, tracer=tracer)
        ledger = _local_ledger(join, query, closed, tracer) if trace else None
        opened = _timed_pass(join, tuples, mid, last, w.batch, first)

    out = _checked(
        w,
        cols,
        first,
        last,
        {**closed.sampled, **opened.sampled},
        closed.matches + opened.matches,
        closed.raised + opened.raised,
        closed.first_error or opened.first_error,
    )
    if not opened.chunk_pos or not closed.chunk_pos:
        return out  # every call raised: nothing was measured
    latencies, lag, idle_share = _open_loop(opened, mid, last, w.batch, w.rate_tps)
    tenth = max(1, len(lag) // 10)
    backlog_growth_s = float(lag[-tenth:].mean() - lag[:tenth].mean())
    done = sizes.n_closed - closed.raised
    out["end_to_end"] = _end_to_end(done, closed.busy_s, closed.cpu_s, latencies, setup_s)
    out["latency_samples"] = len(latencies)
    out["unsustainable"] = bool(
        backlog_growth_s > _BACKLOG_LIMIT * out["end_to_end"]["latency_p50_ms"] / 1e3
    )
    if ledger is not None:
        ledger["driver.handoff_lag_max_us"] = float(lag.max()) * 1e6
        ledger["driver.idle_share"] = idle_share
        ledger["driver.backlog_growth_ms"] = backlog_growth_s * 1e3
        out["per_layer"] = ledger
        out["spans"] = _write_spans(w, tracer)
    return out


def _local_ledger(join, query, closed: _Pass, tracer: Tracer) -> dict:
    """Per-layer numbers of the traced blocks of the closed pass, plus
    the state-size and snapshot figures taken once after it.

    The traced region splits exactly into ``core.arena.stamp_s`` +
    ``core.spojoin.self_s`` + ``core.mutable.insert_s`` + ``.probe_s`` +
    ``core.pojoin.probe_s`` + ``core.spojoin.merge_s`` +
    ``driver.result_free_s`` + ``driver.loop_s``; ``core.mutable.drain_s``
    is part of the merge and the ``indexes.bptree`` times are part of the
    mutable insert / probe.
    """
    from repro.core.checkpoint import checkpoint, restore

    t = tracer
    region_s = closed.traced_wall_s
    traced, untraced = closed.traced, closed.untraced
    state_bits = join.memory_bits()
    t0 = _clock()
    state = checkpoint(join)
    t1 = _clock()
    blob = json.dumps(state)
    t2 = _clock()
    restore(query, state)
    t3 = _clock()
    return {
        "core.arena.stamp_s": t.total_s("core.arena.stamp"),
        "core.arena.batches": t.calls_of("core.arena.stamp"),
        "core.spojoin.process_s": t.total_s("core.spojoin.process"),
        "core.spojoin.calls": t.calls_of("core.spojoin.process"),
        "core.spojoin.self_s": t.self_s("core.spojoin.process"),
        "core.spojoin.self_share": t.self_s("core.spojoin.process") / region_s,
        "core.spojoin.matches_out": traced.matches,
        "core.spojoin.matches_per_tuple": traced.matches / traced.tuples,
        "core.mutable.insert_s": t.total_s("core.mutable.insert"),
        "core.mutable.inserts": t.calls_of("core.mutable.insert"),
        "core.mutable.probe_s": t.total_s("core.mutable.probe"),
        "core.mutable.probes": t.calls_of("core.mutable.probe"),
        "core.mutable.drain_s": t.total_s("core.mutable.drain"),
        "indexes.bptree.insert_s": t.total_s("indexes.bptree.insert"),
        "indexes.bptree.inserts": t.calls_of("indexes.bptree.insert"),
        "indexes.bptree.range_search_s": t.total_s("indexes.bptree.range_search"),
        "indexes.bptree.range_searches": t.calls_of("indexes.bptree.range_search"),
        "core.pojoin.probe_s": t.total_s("core.pojoin.probe"),
        "core.pojoin.list_probes": t.calls.get("POJoinList.probe_all", 0),
        "core.pojoin.batch_probes": t.calls.get("POJoinList.probe_all_batch", 0),
        "core.pojoin.live_batches": len(join.immutable),
        "core.spojoin.merge_s": t.total_s("core.spojoin.merge"),
        "core.spojoin.merges": t.calls_of("core.spojoin.merge"),
        "core.spojoin.merge_max_ms": t.max_s("core.spojoin.merge") * 1e3,
        "core.spojoin.state_bits": state_bits,
        "core.checkpoint.snapshot_s": t1 - t0,
        "core.checkpoint.restore_s": t3 - t2,
        "core.checkpoint.json_bytes": len(blob),
        "driver.result_free_s": traced.free_s,
        "driver.loop_s": region_s - t.top_level_s() - traced.free_s,
        "trace.region_s": region_s,
        "trace.overhead_share": 1.0
        - (traced.tuples / traced.busy_s) / (untraced.tuples / untraced.busy_s),
    }


# ----------------------------------------------------------------------
# Whole-run substrates
# ----------------------------------------------------------------------
def _raw_tuples(w: Workload, cols: inputs.Columns) -> list:
    from repro.dspe.router import RawTuple

    return [RawTuple(stream, (x, y), at) for stream, x, y, at in _rows(w, cols)]


def run_sim(w: Workload, seed: int, scale: float, trace: bool, setup_only: bool) -> dict:
    from repro.joins import SPOConfig, run_spo
    from repro.obs import ObsConfig, Observer

    n = w.sized(scale).n_closed
    cols = inputs.generate(w.shape, n, seed, **w.shape_params)
    raws = _raw_tuples(w, cols)
    query, window = _query_and_window(w)
    gc.collect()
    setup_s = _clock() - _T0
    if setup_only:
        return {"setup_s": setup_s}

    def once(obs=None):
        config = SPOConfig(query, window, num_pojoin_pes=3, batch_size=w.batch, obs=obs)
        source = ((raw.event_time, raw) for raw in raws)
        with _full_collections_postponed():
            cpu_start, start = _cpu(), _clock()
            result = run_spo(source, config, logical_pes=2, num_nodes=4)
            return result, _clock() - start, _cpu() - cpu_start

    if trace:
        # The same run twice: untraced for the reference speed, then with
        # the program's own Observer attached and Engine.run as a span.
        untraced_wall_s = once()[1]
        gc.collect()
        obs = Observer(ObsConfig(trace_sample_every=64))
        tracer = Tracer()
        tracer.install(SIM_TARGETS)
        try:
            result, wall_s, cpu_s = once(obs)
        finally:
            tracer.remove()
    else:
        result, wall_s, cpu_s = once()

    # Per tuple: the union of its partial records, and the simulated
    # clock when the last of them completed.
    sampled: dict = {}
    done_at = np.full(n, -1.0)
    matches_out = 0
    for record in result.records:
        if record.name in ("mutable_result", "immutable_result"):
            tid = record.payload["tid"]
            matches_out += len(record.payload["matches"])
            if tid % SAMPLE_EVERY == 0:
                sampled.setdefault(tid, []).extend(record.payload["matches"])
            if record.completion_time > done_at[tid]:
                done_at[tid] = record.completion_time
    answered = done_at >= 0
    out = _checked(w, cols, 0, n, sampled, matches_out, int(n - answered.sum()))
    out["latency_samples"] = int(answered.sum())
    if not answered.any():
        return out
    latencies = done_at[answered] - _event_times(w, n)[answered]
    out["end_to_end"] = _end_to_end(n, wall_s, cpu_s, latencies, setup_s)
    if trace:
        out["per_layer"] = _sim_ledger(result, obs, tracer, untraced_wall_s / wall_s)
        out["spans"] = _write_spans(w, tracer)
    return out


def _sim_ledger(result, obs, tracer: Tracer, untraced_over_traced: float) -> dict:
    from repro.obs import reconcile_spans

    run_s = tracer.total_s("dspe.engine.run")
    busy_s = sum(pe.busy_time for pe in result.pes)
    t0 = _clock()
    result.result_fingerprint()
    fingerprint_s = _clock() - t0
    ledger = {
        "dspe.engine.run_s": run_s,
        "dspe.engine.events": result.events_processed,
        "dspe.engine.records": len(result.records),
        "dspe.engine.overhead_s": run_s - busy_s,
        "dspe.engine.overhead_share": (run_s - busy_s) / run_s,
        "dspe.engine.sim_end_s": result.sim_end,
        "dspe.engine.fingerprint_s": fingerprint_s,
        "trace.region_s": run_s,
        "trace.overhead_share": 1.0 - untraced_over_traced,
    }
    for short in ("router", "pred", "logical", "perm", "pojoin"):
        pes = [pe for pe in result.pes if pe.component.split("_")[0] == short]
        prefix = f"joins.operators.{short}"
        ledger[f"{prefix}.busy_s"] = sum(pe.busy_time for pe in pes)
        ledger[f"{prefix}.wait_s"] = sum(pe.wait_time for pe in pes)
        ledger[f"{prefix}.processed"] = sum(pe.processed for pe in pes)
        ledger[f"{prefix}.util_max"] = max(pe.utilization(result.sim_end) for pe in pes)
    split = {"queue_s": 0.0, "service_s": 0.0, "network_s": 0.0}
    for span in obs.tracer.spans:
        for stage in span.stages():
            for key in split:
                split[key] += stage[key]
    total = sum(split.values()) or 1.0
    ledger["dspe.trace.queue_wait_share"] = split["queue_s"] / total
    ledger["dspe.trace.service_share"] = split["service_s"] / total
    ledger["dspe.trace.network_share"] = split["network_s"] / total
    ledger["dspe.trace.reconcile_err"] = reconcile_spans(obs.tracer.spans)["relative_error"]
    return ledger


_NUM_SHARDS = 2


def run_sharded(w: Workload, seed: int, scale: float, trace: bool, setup_only: bool) -> dict:
    import repro.parallel as parallel
    from repro.joins import build_spo_sharded_topology

    n = w.sized(scale).n_closed
    cols = inputs.generate(w.shape, n, seed, **w.shape_params)
    raws = _raw_tuples(w, cols)
    query, window = _query_and_window(w)

    def build():
        pulled: list = []

        def source():
            for i, raw in enumerate(raws):
                if i % w.batch == 0:  # one stamp per micro-batch pulled
                    pulled.append(_clock())
                yield raw.event_time, raw

        topology = build_spo_sharded_topology(
            source(), query, window, _NUM_SHARDS, batch_size=w.batch
        )
        return parallel.ParallelExecutor(topology, num_workers=2), pulled

    executor, pulled = build()
    gc.collect()
    setup_s = _clock() - _T0
    if setup_only:
        return {"setup_s": setup_s}

    def once(executor) -> dict:
        cpu_start, workers_start, start = _cpu(), _children_cpu(), _clock()
        result = executor.run()
        ran = _clock()
        parent_run_cpu_s = _cpu() - cpu_start
        replies = [r.payload for r in result.records if r.name == "partial_batch"]
        resumed = _clock()
        # Looked up on the module at call time, so a traced run reaches
        # the wrapper.
        parallel.reduce_sharded_result(result)
        end = _clock()
        worker_cpu_s = _children_cpu() - workers_start
        return {
            "result": result,
            "replies": replies,
            "end": end,
            "wall_s": (ran - start) + (end - resumed),
            "cpu_s": (_cpu() - cpu_start) + worker_cpu_s,
            "parent_run_cpu_s": parent_run_cpu_s,
            "worker_cpu_s": worker_cpu_s,
        }

    if trace:
        untraced_wall_s = once(executor)["wall_s"]
        gc.collect()
        executor, pulled = build()
        tracer = Tracer()
        tracer.install(SHARDED_TARGETS)
        try:
            ran = once(executor)
        finally:
            tracer.remove()
    else:
        ran = once(executor)

    sampled = {}
    matches_out = answered = 0
    for record in ran["result"].records:
        if record.name == "result":
            answered += 1
            matches_out += len(record.payload["matches"])
            if record.payload["tid"] % SAMPLE_EVERY == 0:
                sampled[record.payload["tid"]] = record.payload["matches"]
    out = _checked(w, cols, 0, n, sampled, matches_out, n - answered)
    out["latency_samples"] = n
    # Results are handed over when run() + reduce return, so a tuple's
    # latency runs from the moment it was pulled to that return.
    latencies = ran["end"] - np.repeat(np.asarray(pulled), w.batch)[:n]
    out["end_to_end"] = _end_to_end(n, ran["wall_s"], ran["cpu_s"], latencies, setup_s)
    if trace:
        run_s = tracer.total_s("parallel.executor.run")
        ledger = {
            "parallel.executor.run_s": run_s,
            "parallel.executor.parent_cpu_s": ran["parent_run_cpu_s"],
            "parallel.executor.parent_cpu_share": ran["parent_run_cpu_s"] / run_s,
            "parallel.executor.parent_rss_mb": _rss_mb(resource.RUSAGE_SELF),
            "parallel.worker.cpu_s": ran["worker_cpu_s"],
            "parallel.worker.peak_rss_mb": _rss_mb(resource.RUSAGE_CHILDREN),
            "parallel.spo_shard.reduce_s": tracer.total_s("parallel.spo_shard.reduce"),
            "trace.region_s": ran["wall_s"],
            "trace.overhead_share": 1.0 - untraced_wall_s / ran["wall_s"],
        }
        ledger.update(_wire_ledger(w, cols, query, ran["replies"]))
        out["per_layer"] = ledger
        out["spans"] = _write_spans(w, tracer)
    return out


def _wire_ledger(w: Workload, cols: inputs.Columns, query, replies: list) -> dict:
    """Replay, outside the run, what crosses the process boundary.

    Requests: the same stamped stream cut into router batches (at merge
    boundaries, like the shard router), planned per shard and pickled as
    the executor's ``(component, pe, payload, origin)`` message with
    ``multiprocessing``'s default protocol.  Replies: the un-reduced
    ``partial_batch`` payloads the workers sent back.
    """
    from repro.core.arena import TupleArena
    from repro.dspe.partitioning import RangeShards
    from repro.parallel import ShardPrefilter, plan_shard_batches

    n = len(cols.x)
    times = _event_times(w, n)
    arena = TupleArena.from_columns(
        np.arange(n, dtype=np.int64), times, np.vstack([cols.x, cols.y]), ["R"], cols.side
    )
    shards = RangeShards.uniform(_NUM_SHARDS)
    prefilter = ShardPrefilter(query, shards)
    delta = int(w.window[2])
    request_bytes = probes = 0
    encode_s = decode_s = 0.0
    stores = np.zeros(_NUM_SHARDS)
    pos = 0
    while pos < n:
        stop = min(pos + w.batch, (pos // delta + 1) * delta, n)
        for shard_batch in plan_shard_batches(arena.slice(pos, stop), shards, query, prefilter):
            message = ("joiner", shard_batch.shard, shard_batch, float(times[pos]))
            t0 = _clock()
            blob = pickle.dumps(message)
            t1 = _clock()
            pickle.loads(blob)
            t2 = _clock()
            encode_s += t1 - t0
            decode_s += t2 - t1
            request_bytes += len(blob)
            stores[shard_batch.shard] += len(shard_batch.stores)
            probes += len(shard_batch.probes)
        if stop % delta == 0:
            boundary = stop // delta - 1
            prefilter.on_boundary(boundary, boundary - w.retained + 1)
        pos = stop
    t0 = _clock()
    reply_bytes = sum(len(pickle.dumps(payload)) for payload in replies)
    reply_encode_s = _clock() - t0
    return {
        "parallel.wire.request_bytes_per_tuple": request_bytes / n,
        "parallel.wire.request_encode_us_per_tuple": encode_s / n * 1e6,
        "parallel.wire.request_decode_us_per_tuple": decode_s / n * 1e6,
        "parallel.wire.reply_records": len(replies),
        "parallel.wire.reply_bytes_per_tuple": reply_bytes / n,
        "parallel.wire.reply_encode_us_per_tuple": reply_encode_s / n * 1e6,
        "parallel.shards.store_skew": float(stores.max() / stores.mean()),
        "parallel.shards.probe_fanout": probes / n,
    }


# ----------------------------------------------------------------------
_RUNNERS = {"local": run_local, "sim": run_sim, "sharded": run_sharded}


def run(
    workload: str, seed: int, scale: float, trace: bool = False, setup_only: bool = False
) -> dict:
    w = WORKLOADS[workload]
    out = _RUNNERS[w.substrate](w, seed, scale, trace, setup_only)
    out.update({"workload": workload, "seed": seed, "scale": scale, "traced": trace})
    if not setup_only:
        out["failed"] = out["raised"] + out["mismatched"]
        out["numpy"] = np.__version__
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run(args.workload, args.seed, args.scale, args.trace, args.setup_only)))


if __name__ == "__main__":
    main()
