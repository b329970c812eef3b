"""Experiment harness shared by the ``benchmarks/`` drivers.

Provides the measurement loops and table printers the per-figure benches
use to emit the same rows/series the paper reports.  Absolute numbers are
Python-simulator scale; EXPERIMENTS.md records how the *shapes* compare to
the paper's.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Optional, Sequence

from ..core.arena import ArenaSlice
from ..core.tuples import StreamTuple
from ..dspe.engine import RunResult
from ..dspe.metrics import LatencyCollector, Summary, ThroughputCollector, percentile

__all__ = [
    "StreamRunStats",
    "drive_local",
    "component_throughput",
    "component_latency",
    "ResultTable",
    "run_once",
    "time_probes",
]


def run_once(benchmark, fn: Callable):
    """Register ``fn`` with pytest-benchmark, executing it exactly once.

    The figure sweeps are full experiments (seconds each); repeating them
    five times buys no precision and multiplies runtime, so every bench
    runs a single round.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def time_probes(probe_fn: Callable, probes: Iterable[StreamTuple]):
    """Drive probes through ``probe_fn``; returns (throughput, latencies)."""
    latencies: List[float] = []
    count = 0
    start = time.perf_counter()
    for t in probes:
        t0 = time.perf_counter()
        probe_fn(t)
        latencies.append(time.perf_counter() - t0)
        count += 1
    elapsed = time.perf_counter() - start
    throughput = count / elapsed if elapsed > 0 else 0.0
    return throughput, latencies


class StreamRunStats:
    """Wall-clock statistics from driving a local join algorithm.

    ``per_tuple`` holds amortized per-tuple costs (batch cost divided by
    batch length when batching); ``per_batch`` holds the raw cost of each
    ``process``/``process_many`` call.  At ``batch_size=1`` the two lists
    are identical.
    """

    def __init__(
        self,
        tuples: int,
        matches: int,
        elapsed: float,
        per_tuple: List[float],
        per_batch: Optional[List[float]] = None,
        batch_size: int = 1,
    ) -> None:
        self.tuples = tuples
        self.matches = matches
        self.elapsed = elapsed
        self.per_tuple = per_tuple
        self.per_batch = per_tuple if per_batch is None else per_batch
        self.batch_size = batch_size

    @property
    def throughput(self) -> float:
        """Tuples processed per wall-clock second."""
        return self.tuples / self.elapsed if self.elapsed > 0 else 0.0

    def latency_percentile(self, q: float) -> float:
        if not self.per_tuple:
            return 0.0
        return percentile(self.per_tuple, q)

    @property
    def max_latency(self) -> float:
        return max(self.per_tuple) if self.per_tuple else 0.0

    @property
    def mean_latency(self) -> float:
        if not self.per_tuple:
            return 0.0
        return sum(self.per_tuple) / len(self.per_tuple)

    @property
    def mean_batch_cost(self) -> float:
        if not self.per_batch:
            return 0.0
        return sum(self.per_batch) / len(self.per_batch)


def drive_local(
    algo,
    tuples: Iterable[StreamTuple],
    sample_latency_every: int = 1,
    batch_size: int = 1,
) -> StreamRunStats:
    """Push tuples through a local join algorithm, timing each call.

    With ``batch_size > 1`` the stream is chunked and handed to
    ``algo.process_many``; each chunk's wall-clock cost is recorded in
    ``per_batch`` and amortized (cost / chunk length) into ``per_tuple``.
    Each chunk is an :class:`~repro.core.arena.ArenaSlice` (what the
    router emits; the stamping cost is paid outside the timed region,
    mirroring where the router pays it).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    per_tuple: List[float] = []
    matches = 0
    count = 0
    if batch_size == 1:
        t_start = time.perf_counter()
        for i, t in enumerate(tuples):
            t0 = time.perf_counter()
            matches += len(algo.process(t))
            if i % sample_latency_every == 0:
                per_tuple.append(time.perf_counter() - t0)
            count += 1
        elapsed = time.perf_counter() - t_start
        return StreamRunStats(count, matches, elapsed, per_tuple)

    stream = list(tuples)
    chunks = [
        ArenaSlice.of(stream[i : i + batch_size])
        for i in range(0, len(stream), batch_size)
    ]
    per_batch: List[float] = []
    t_start = time.perf_counter()
    for i, chunk in enumerate(chunks):
        t0 = time.perf_counter()
        matches += len(algo.process_many(chunk))
        cost = time.perf_counter() - t0
        if i % sample_latency_every == 0:
            per_batch.append(cost)
            per_tuple.append(cost / len(chunk))
        count += len(chunk)
    elapsed = time.perf_counter() - t_start
    return StreamRunStats(
        count, matches, elapsed, per_tuple, per_batch, batch_size
    )


# ----------------------------------------------------------------------
# Extracting per-component metrics from simulated runs
# ----------------------------------------------------------------------
def component_throughput(
    result: RunResult, record_name: str, bucket_seconds: float = 1.0
) -> Summary:
    """Mean/std/max tuples-per-second for one component's result records."""
    collector = ThroughputCollector(bucket_seconds)
    for record in result.records_named(record_name):
        collector.record(record.completion_time)
    return collector.summary()


def component_latency(result: RunResult, record_name: str) -> LatencyCollector:
    """Event-time latencies (completion minus source event time)."""
    collector = LatencyCollector()
    for record in result.records_named(record_name):
        event_time = record.payload.get("event_time", record.origin_time)
        collector.record(record.completion_time - event_time)
    return collector


# ----------------------------------------------------------------------
# Plain-text result tables
# ----------------------------------------------------------------------
class ResultTable:
    """Aligned-column table printer for bench output."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError("row width does not match columns")
        self.rows.append([self._fmt(v) for v in values])

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000 or abs(value) < 0.01:
                return f"{value:.3g}"
            return f"{value:.3f}"
        return str(value)

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [self.title, "-" * len(self.title)]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        print()
        print(self.render())
