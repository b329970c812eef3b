"""End-to-end tests for skew-adaptive repartitioning.

The contract: turning on adaptive repartitioning (live cut swaps plus
state migration at merge boundaries) changes *placement only* — the
result fingerprint stays bit-identical to the unsharded single-process
reference at every batch size and worker count, and the repartition
decisions themselves are identical across batch sizes.  Rider tests
cover the per-interval prefilter (expiry-aware range skipping) and the
NaN anchor invariant.
"""

from __future__ import annotations

import math
import multiprocessing
import random

import numpy as np
import pytest

from repro.core.window import WindowSpec
from repro.dspe import FlowConfig, RawTuple
from repro.dspe.partitioning import RangeShards
from repro.joins import (
    build_spo_local_topology,
    build_spo_sharded_topology,
    run_topology,
)
from repro.parallel import (
    BalanceConfig,
    ParallelExecutor,
    ShardPrefilter,
    reduce_sharded_result,
)
from repro.workloads import q3, self_stream, skewed_self_stream, timed

N = 3000
WINDOW = WindowSpec.count(400, 100)
NUM_SHARDS = 4
RATE = 5000.0


def _balance() -> BalanceConfig:
    return BalanceConfig(
        imbalance_factor=1.3, min_live_tuples=300, cooldown_boundaries=2
    )


def _raws():
    # Hot band drifting downward through the run: static cuts pin one
    # shard early and the wrong shard late; the tracker must follow.
    return skewed_self_stream(
        N,
        hot_fraction=0.75,
        hot_center=0.85,
        hot_width=0.06,
        drift=-0.5,
        correlation=0.3,
        seed=13,
    )


def _reference(raws, batch_size):
    return run_topology(
        build_spo_local_topology(
            timed(raws, rate=RATE), q3(), WINDOW, batch_size=batch_size
        )
    ).result_fingerprint()


def _adaptive_topology(raws, batch_size):
    return build_spo_sharded_topology(
        timed(raws, rate=RATE),
        q3(),
        WINDOW,
        NUM_SHARDS,
        batch_size=batch_size,
        balance=_balance(),
    )


def _repartitions(result):
    return [r.payload for r in result.records if r.name == "repartition"]


def test_adaptive_simulated_parity_and_batch_invariance():
    raws = _raws()
    decisions_by_batch = []
    for batch_size in (1, 7, 64):
        result = run_topology(_adaptive_topology(raws, batch_size))
        decisions = _repartitions(result)
        reduce_sharded_result(result)
        assert result.result_fingerprint() == _reference(raws, batch_size), (
            f"adaptive run diverged from reference at batch_size={batch_size}"
        )
        decisions_by_batch.append(decisions)
        # The run exercised real migrations, not just cut swaps.
        joiners = [pe.operator for pe in result.pes_of("joiner")]
        assert sum(op.migrations for op in joiners) > 0
        assert sum(op.migrated_out for op in joiners) == sum(
            op.migrated_in for op in joiners
        )
    first = decisions_by_batch[0]
    assert len(first) >= 1
    assert sum(d["splits"] for d in first) >= 1
    assert sum(d["merges"] for d in first) >= 1
    # Decisions are count-based: identical cut sequence at every batch
    # size (micro-batch chunking must not leak into placement).
    assert decisions_by_batch[1] == first
    assert decisions_by_batch[2] == first


@pytest.mark.parametrize("num_workers", (1, 2, 4))
def test_adaptive_parallel_matches_simulated_reference(num_workers):
    raws = _raws()
    reference = _reference(raws, 7)
    result = ParallelExecutor(
        _adaptive_topology(raws, 7), num_workers=num_workers
    ).run()
    decisions = _repartitions(result)
    reduce_sharded_result(result)
    assert result.result_fingerprint() == reference, (
        f"adaptive run diverged at workers={num_workers}"
    )
    assert len(decisions) >= 1
    assert not multiprocessing.active_children()


def _hot_band_raws():
    # Stationary hot band misaligned with the uniform static cuts: 90% of
    # the stream lands in one static shard.
    return skewed_self_stream(
        N,
        hot_fraction=0.9,
        hot_center=0.85,
        hot_width=0.03,
        drift=0.0,
        correlation=0.3,
        seed=13,
    )


@pytest.mark.parametrize("saturated", (False, True))
def test_adaptive_cuts_spread_hot_band_match_work(saturated):
    """Why adaptive cuts sustain a higher rate than static ones, without
    a clock: the busiest shard's share of the *match* work (a counter)
    drops once the tracker splits the hot band.  Routing volume
    (``tuples_processed``) does not fall and is deliberately not
    asserted.  The saturated case offers the whole stream at once against
    bounded queues: real backpressure must change neither placement nor
    results."""
    raws = _hot_band_raws()
    reference = _reference(raws, 7)
    rate = 1e9 if saturated else RATE
    flow = FlowConfig(queue_capacity=64, policy="block") if saturated else None
    busiest_share = {}
    for label, balance in (("static", None), ("adaptive", _balance())):
        result = run_topology(
            build_spo_sharded_topology(
                timed(raws, rate=rate),
                q3(),
                WINDOW,
                NUM_SHARDS,
                batch_size=7,
                balance=balance,
            ),
            flow=flow,
        )
        work = [
            pe.operator.join.stats.matches_emitted
            for pe in result.pes_of("joiner")
        ]
        busiest_share[label] = max(work) / sum(work)
        if saturated:
            assert result.flow.metrics.total_blocks() > 0
            assert result.flow.metrics.total_shed_tuples() == 0
        reduce_sharded_result(result)
        assert result.result_fingerprint() == reference, (
            f"{label} cuts diverged from the single-process reference"
        )
    assert busiest_share["adaptive"] < 0.6 < busiest_share["static"]


class TestPrefilterExpiry:
    """Satellite fix: the second-predicate range skip must track the
    *live* window, not widen monotonically forever."""

    def test_expired_intervals_stop_widening(self):
        pf = ShardPrefilter(q3(), RangeShards.uniform(2))
        shard0 = np.array([0])
        pf.note_stores(shard0, np.array([0.95]))
        pf.on_boundary(0, keep_from=-3)
        # Q3's second predicate is LT: a probe at 0.5 can still match
        # the 0.95 store, so it is kept.
        assert pf.keep(0, np.array([0.5]))[0]
        for boundary in range(1, 5):
            pf.note_stores(shard0, np.array([0.1]))
            pf.on_boundary(boundary, keep_from=boundary - 3)
        # The 0.95 interval has left the window; the aggregate range
        # must shrink back to the live stores.
        assert pf.hi[0] == pytest.approx(0.1)
        assert not pf.keep(0, np.array([0.5]))[0]

    def test_nan_stores_do_not_poison_the_range(self):
        pf = ShardPrefilter(q3(), RangeShards.uniform(2))
        pf.note_stores(np.array([0, 0]), np.array([np.nan, 0.4]))
        assert pf.hi[0] == pytest.approx(0.4)
        assert pf.keep(0, np.array([0.2]))[0]


def _two_phase_raws():
    """Phase A: wide filter values everywhere.  Phase B: low shards only
    hold tiny filter values, while rare hot probes carry large ones —
    skippable only once phase A has expired from the prefilter."""
    rng = random.Random(5)
    out = []
    for __ in range(1200):
        out.append(RawTuple("T", (rng.random(), rng.random())))
    for i in range(1800):
        if i % 40 == 0:
            out.append(
                RawTuple(
                    "T",
                    (0.75 + 0.2 * rng.random(), 0.9 + 0.05 * rng.random()),
                )
            )
        else:
            out.append(
                RawTuple("T", (0.5 * rng.random(), 0.05 * rng.random()))
            )
    return out


def test_prefilter_prunes_late_after_distribution_shift():
    raws = _two_phase_raws()
    reference = _reference(raws, 7)
    result = run_topology(
        build_spo_sharded_topology(
            timed(raws, rate=RATE), q3(), WINDOW, NUM_SHARDS, batch_size=7
        )
    )
    reduce_sharded_result(result)
    assert result.result_fingerprint() == reference
    pf = result.pes_of("router")[0].operator.prefilter
    # Under the old monotone widening, shard 0's range would still span
    # phase A (hi ~= 1.0) and the hot probes could never be skipped.
    assert pf.hi[0] < 0.1
    assert pf.skipped >= 40


def _nan_raws():
    out = []
    for i, raw in enumerate(self_stream(1200, correlation=0.2, seed=21)):
        if i % 17 == 0:
            out.append(RawTuple(raw.stream, (raw.values[0], math.nan)))
        else:
            out.append(raw)
    return out


def test_nan_filter_values_keep_the_anchor_invariant():
    """A NaN in the filter field matches nothing, but its tuple must
    still surface as exactly one (empty) result — and NaNs flowing
    through the tracker/prefilter must not disturb parity."""
    raws = _nan_raws()
    reference = _reference(raws, 7)
    result = run_topology(
        build_spo_sharded_topology(
            timed(raws, rate=RATE),
            q3(),
            WINDOW,
            NUM_SHARDS,
            batch_size=7,
            balance=BalanceConfig(
                imbalance_factor=1.2, min_live_tuples=200
            ),
        )
    )
    reduce_sharded_result(result)
    assert result.result_fingerprint() == reference
    results = {
        r.payload["tid"]: r.payload["matches"]
        for r in result.records
        if r.name == "result"
    }
    # One record per stamped tuple (the anchor shard always reports),
    # and NaN probes report empty match sets.
    assert sorted(results) == list(range(len(raws)))
    for tid in range(0, len(raws), 17):
        assert results[tid] == []
