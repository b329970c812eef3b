"""Integration tests for the process-backed executor.

The determinism contract under test: running a topology's leaf PEs as
real worker processes changes wall-clock only — the result fingerprint
is bit-identical to the simulated single-process run at every worker
count and batch size.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.window import WindowSpec
from repro.dspe import Grouping, Topology
from repro.dspe.topology import Operator
from repro.joins import (
    build_chain_topology,
    build_nlj_topology,
    build_spo_local_topology,
    build_spo_sharded_topology,
    run_topology,
)
from repro.parallel import ParallelExecutor, WorkerCrash, reduce_sharded_result
from repro.workloads import q3, self_stream, timed

WORKER_COUNTS = (1, 2, 4)
BATCH_SIZES = (1, 7, 64)
N = 400
WINDOW = WindowSpec.count(150, 50)


def _source():
    return timed(self_stream(N, correlation=0.4, seed=7), rate=1000.0)


def _no_leaked_children():
    return [p for p in multiprocessing.active_children()]


BUILDERS = {
    "chain": lambda bs: build_chain_topology(
        _source(), q3(), WINDOW, joiner_pes=4, batch_size=bs
    ),
    "nlj": lambda bs: build_nlj_topology(
        _source(), q3(), WINDOW, joiner_pes=4, batch_size=bs
    ),
    "spo_local": lambda bs: build_spo_local_topology(
        _source(), q3(), WINDOW, batch_size=bs
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_parallel_matches_simulated(name, batch_size):
    build = BUILDERS[name]
    reference = run_topology(build(batch_size)).result_fingerprint()
    for num_workers in WORKER_COUNTS:
        result = ParallelExecutor(build(batch_size), num_workers=num_workers).run()
        assert result.result_fingerprint() == reference, (
            f"{name} diverged at workers={num_workers}, "
            f"batch_size={batch_size}"
        )
    assert not _no_leaked_children()


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_sharded_spo_matches_simulated_reference(batch_size):
    reference = run_topology(
        build_spo_local_topology(_source(), q3(), WINDOW, batch_size=batch_size)
    ).result_fingerprint()
    simulated = run_topology(
        build_spo_sharded_topology(
            _source(), q3(), WINDOW, 3, batch_size=batch_size
        )
    )
    reduce_sharded_result(simulated)
    assert simulated.result_fingerprint() == reference
    for num_workers in WORKER_COUNTS:
        result = ParallelExecutor(
            build_spo_sharded_topology(
                _source(), q3(), WINDOW, 3, batch_size=batch_size
            ),
            num_workers=num_workers,
        ).run()
        reduce_sharded_result(result)
        assert result.result_fingerprint() == reference, (
            f"sharded run diverged at workers={num_workers}, "
            f"batch_size={batch_size}"
        )
    assert not _no_leaked_children()


def test_unreduced_sharded_run_has_empty_fingerprint():
    # Fail-safe: forgetting reduce_sharded_result can never silently
    # compare equal to a real result stream.
    result = ParallelExecutor(
        build_spo_sharded_topology(_source(), q3(), WINDOW, 3, batch_size=7),
        num_workers=2,
    ).run()
    unreduced = result.result_fingerprint()
    assert unreduced != reduce_sharded_result(result).result_fingerprint()


def test_records_are_canonically_ordered():
    result = ParallelExecutor(
        build_spo_local_topology(_source(), q3(), WINDOW, batch_size=7),
        num_workers=2,
    ).run()
    tids = [r.payload["tid"] for r in result.records if r.name == "result"]
    assert tids == sorted(tids)
    assert len(tids) == N


def test_dead_letters_empty_without_flow_controller():
    # The process substrate has no FlowController; RunResult still reads
    # like a simulated run's.
    result = ParallelExecutor(
        build_spo_local_topology(_source(), q3(), WINDOW, batch_size=7),
        num_workers=1,
    ).run()
    assert result.flow is None
    assert result.dead_letters == []


class _CrashingOperator(Operator):
    """Raises on the Nth delivery inside the worker."""

    def __init__(self, crash_at: int) -> None:
        self.crash_at = crash_at
        self.seen = 0

    def process(self, payload, ctx) -> None:
        self.seen += 1
        if self.seen >= self.crash_at:
            raise RuntimeError("synthetic operator failure")


class _EmittingLeaf(Operator):
    def process(self, payload, ctx) -> None:
        ctx.emit(payload)


def _leaf_topology(operator_factory) -> Topology:
    topo = Topology()
    topo.add_spout("source", [(0.001 * i, i) for i in range(200)])
    topo.add_bolt(
        "leaf",
        operator_factory,
        parallelism=2,
        inputs=[("source", Grouping.broadcast())],
    )
    return topo


def test_worker_crash_raises_cleanly_without_hang_or_zombies():
    executor = ParallelExecutor(
        _leaf_topology(lambda: _CrashingOperator(50)),
        num_workers=2,
        join_timeout=15.0,
    )
    with pytest.raises(WorkerCrash) as excinfo:
        executor.run()
    assert "synthetic operator failure" in str(excinfo.value)
    assert "leaf[" in str(excinfo.value)
    assert excinfo.value.worker_traceback
    # Every worker process was terminated and joined; none leak.
    assert all(not proc.is_alive() for proc in executor._procs)
    assert not _no_leaked_children()


def test_leaf_emission_is_rejected():
    executor = ParallelExecutor(
        _leaf_topology(lambda: _EmittingLeaf()), num_workers=2
    )
    with pytest.raises(WorkerCrash) as excinfo:
        executor.run()
    assert "cannot emit" in str(excinfo.value)
    assert not _no_leaked_children()


class _RngLeaf(Operator):
    """Records one rng draw per delivery — exposes the worker seed."""

    def process(self, payload, ctx) -> None:
        ctx.record("draw", {"tid": payload, "value": ctx.rng.random()})


def test_worker_rng_spawns_deterministically_from_run_seed():
    def build():
        return _leaf_topology(lambda: _RngLeaf())

    def draws(seed):
        result = ParallelExecutor(build(), num_workers=2, seed=seed).run()
        return [r.payload["value"] for r in result.records if r.name == "draw"]

    first, second = draws(11), draws(11)
    assert first == second  # same root seed -> identical worker streams
    assert draws(12) != first  # seed participates
    assert not _no_leaked_children()


def test_topology_without_leaf_bolts_is_rejected():
    topo = Topology()
    topo.add_spout("source", [(0.0, 1)])
    with pytest.raises(ValueError):
        ParallelExecutor(topo, num_workers=2)
