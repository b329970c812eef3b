"""Chaos recovery: crashed runs emit exactly the failure-free results.

The tentpole invariant of the fault subsystem — checkpoints + bounded
replay + held-delivery buffers + dedup make the final join-result
multiset of a run with injected PE crashes bit-identical to the same
run without faults.
"""

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JoinType, Op, QuerySpec, WindowSpec
from repro.dspe import (
    FaultConfig,
    Grouping,
    Operator,
    RecoveryConfig,
    RouterOperator,
    Topology,
)
from repro.dspe.router import RawTuple
from repro.joins import (
    SPOConfig,
    build_chain_topology,
    build_nlj_topology,
    build_spo_local_topology,
    run_spo,
    run_topology,
)

WINDOW = WindowSpec.count(100, 20)


def q3():
    return QuerySpec.two_inequalities("Q3", JoinType.SELF, Op.GT, Op.LT)


def q1():
    return QuerySpec.two_inequalities("Q1", JoinType.CROSS, Op.LT, Op.GT)


def make_raws(n, streams, seed, hi=25):
    rng = random.Random(seed)
    return [
        RawTuple(
            rng.choice(streams),
            (rng.randint(0, hi), rng.randint(0, hi)),
            i * 0.001,
        )
        for i in range(n)
    ]


def source_of(raws):
    return ((raw.event_time, raw) for raw in raws)


def result_multiset(res):
    combined = defaultdict(set)
    for name in ("result", "mutable_result", "immutable_result"):
        for record in res.records_named(name):
            combined[record.payload["tid"]].update(record.payload["matches"])
    return dict(combined)


class TestChainChaos:
    def test_two_pe_failures_bit_identical(self, q3_query):
        """The acceptance invariant: >=2 distinct joiner-PE failures."""
        raws = make_raws(400, ["NYC"], seed=50)

        def build():
            return build_chain_topology(
                source_of(raws), q3_query, WINDOW, joiner_pes=2
            )

        baseline = run_topology(build())
        chaos = run_topology(
            build(),
            faults=FaultConfig(
                crash_times=[("joiner", 0, 0.12), ("joiner", 1, 0.27)]
            ),
            recovery=RecoveryConfig(checkpoint_interval=0.05),
            fault_seed=1,
        )
        assert chaos.recovery.crashes == 2
        assert chaos.recovery.divergent_records == 0
        assert result_multiset(chaos) == result_multiset(baseline)
        assert chaos.result_fingerprint() == baseline.result_fingerprint()

    def test_repeated_crash_of_same_pe(self, q3_query):
        # Second crash lands before the next periodic checkpoint: the
        # kept replay log must cover it.
        raws = make_raws(300, ["NYC"], seed=51)

        def build():
            return build_chain_topology(
                source_of(raws), q3_query, WINDOW, joiner_pes=2
            )

        baseline = run_topology(build())
        chaos = run_topology(
            build(),
            faults=FaultConfig(
                crash_times=[("joiner", 0, 0.10), ("joiner", 0, 0.13)],
                restart_delay=0.002,
            ),
            recovery=RecoveryConfig(checkpoint_interval=0.1),
            fault_seed=2,
        )
        assert chaos.recovery.crashes == 2
        assert result_multiset(chaos) == result_multiset(baseline)

    def test_tiny_replay_capacity_forces_checkpoints(self, q3_query):
        raws = make_raws(300, ["NYC"], seed=52)

        def build():
            return build_chain_topology(
                source_of(raws), q3_query, WINDOW, joiner_pes=2
            )

        baseline = run_topology(build())
        chaos = run_topology(
            build(),
            faults=FaultConfig(crash_rate=4.0, horizon=0.25),
            recovery=RecoveryConfig(
                checkpoint_interval=None, replay_capacity=8
            ),
            fault_seed=3,
        )
        assert chaos.recovery.forced_checkpoints > 0
        assert result_multiset(chaos) == result_multiset(baseline)


class TestNLJChaos:
    @pytest.mark.parametrize("mode", ["sj", "bchj"])
    def test_crashes_bit_identical(self, q1_query, mode):
        raws = make_raws(300, ["R", "S"], seed=53)

        def build():
            return build_nlj_topology(
                source_of(raws), q1_query, WINDOW, mode=mode, joiner_pes=2
            )

        baseline = run_topology(build())
        chaos = run_topology(
            build(),
            faults=FaultConfig(
                crash_times=[("joiner", 0, 0.08), ("joiner", 1, 0.2)]
            ),
            fault_seed=4,
        )
        assert chaos.recovery.crashes == 2
        assert result_multiset(chaos) == result_multiset(baseline)
        assert chaos.result_fingerprint() == baseline.result_fingerprint()


class TestDeterminism:
    def test_same_fault_seed_same_run(self, q3_query):
        """Satellite: one fault_seed makes a whole chaos run reproducible."""
        raws = make_raws(300, ["NYC"], seed=54)

        def run(seed):
            return run_topology(
                build_chain_topology(
                    source_of(raws), q3_query, WINDOW, joiner_pes=2
                ),
                faults=FaultConfig(crash_rate=5.0, horizon=0.25),
                spout_loss_rate=0.05,
                fault_seed=seed,
            )

        a, b = run(9), run(9)
        assert a.fault_plan.fingerprint() == b.fault_plan.fingerprint()
        assert a.result_fingerprint() == b.result_fingerprint()
        assert a.recovery.crashes == b.recovery.crashes
        assert a.recovery.replayed_tuples == b.recovery.replayed_tuples
        assert result_multiset(a) == result_multiset(b)

        # A different seed yields a different plan (results may then
        # legitimately differ too: fault_seed drives the at-least-once
        # loss RNG, and redelivery order changes router tid assignment).
        c = run(10)
        assert c.fault_plan.fingerprint() != a.fault_plan.fingerprint()

    def test_fault_seed_drives_loss_rng(self, q3_query):
        raws = make_raws(200, ["NYC"], seed=55)

        def run(seed):
            return run_topology(
                build_chain_topology(
                    source_of(raws), q3_query, WINDOW, joiner_pes=2
                ),
                spout_loss_rate=0.1,
                fault_seed=seed,
            )

        assert run(3).result_fingerprint() == run(3).result_fingerprint()


class _SlowCounter(Operator):
    """Checkpointable sink with a fixed charged service time."""

    checkpointable = True

    def __init__(self, cost):
        self.cost = cost
        self.count = 0

    def process(self, payload, ctx) -> None:
        ctx.charge(self.cost)
        self.count += 1
        ctx.record("result", {"tid": payload, "matches": [self.count]})

    def snapshot_state(self):
        return {"count": self.count}

    def restore_state(self, state) -> None:
        self.count = state["count"]


class TestArrivalCut:
    """Crashes and checkpoints cut a PE's input by arrival time.

    A PE still busy at the instant serves its backlog first, so the
    replay count cannot depend on how long services took — with
    measured service time, on the host's timing.
    """

    def _run(self, cost):
        topo = Topology("cut")
        topo.add_spout("src", ((i * 0.001, i) for i in range(200)))
        topo.add_bolt(
            "work",
            lambda: _SlowCounter(cost),
            inputs=[("src", Grouping.shuffle())],
        )
        return run_topology(
            topo,
            faults=FaultConfig(crash_times=[("work", 0, 0.125)]),
            recovery=RecoveryConfig(checkpoint_interval=0.05),
            time_scale=0.0,
        )

    def test_backlog_does_not_move_the_replay_count(self):
        idle, backlogged = self._run(0.0), self._run(0.004)
        # Arrivals in (0.100, 0.125]: after the second checkpoint, before
        # the crash, whether or not the 4x-overloaded PE had reached them.
        assert idle.recovery.replayed_tuples == 25
        assert backlogged.recovery.replayed_tuples == 25
        assert backlogged.recovery.divergent_records == 0
        assert backlogged.result_fingerprint() == idle.result_fingerprint()


class TestDelaySpikes:
    def test_spikes_change_timing_not_results(self, q3_query):
        # Single-path topology (router -> joiner broadcast): per-link
        # FIFO is preserved under spikes, so each joiner PE sees the
        # same delivery sequence and the results cannot change.  (The
        # fully distributed SPO DAG races merge material against data
        # tuples across links, so its result split is timing-dependent
        # by design — exactness there is only asserted at default
        # delays, as in the seed tests.)
        raws = make_raws(250, ["NYC"], seed=56)

        def build():
            return build_chain_topology(
                source_of(raws), q3_query, WINDOW, joiner_pes=2
            )

        baseline = run_topology(build())
        spiky = run_topology(
            build(),
            faults=FaultConfig(
                delay_spike_rate=4.0,
                delay_spike_duration=0.03,
                delay_spike_multiplier=20.0,
                horizon=0.25,
            ),
            fault_seed=6,
        )
        assert spiky.fault_plan is not None
        assert len(spiky.fault_plan.delay_spikes) > 0
        assert result_multiset(spiky) == result_multiset(baseline)
        assert spiky.sim_end > baseline.sim_end

    def test_cache_partitions_reach_the_config_cache(self, q3_query):
        raws = make_raws(100, ["NYC"], seed=57)
        config = SPOConfig(
            q3_query,
            WINDOW,
            num_pojoin_pes=1,
            faults=FaultConfig(
                cache_partition_rate=3.0, horizon=0.1
            ),
            fault_seed=8,
        )
        res = run_spo(source_of(raws), config)
        assert res.fault_plan.cache_partitions
        assert config.cache.partitions == res.fault_plan.cache_partitions


class _TagWorker(Operator):
    """Stateless sink that tags each routed tuple with its PE index.

    Under a round-robin in-edge, its result multiset is a transcript of
    the rotation: any drift in the router's ``_rr_counter`` across a
    crash shows up as tuples landing on the wrong PE.
    """

    def process(self, payload, ctx) -> None:
        ctx.record(
            "result", {"tid": payload.tid, "matches": [ctx.pe_index]}
        )


class TestRoundRobinRouterChaos:
    """Satellite: round-robin routing state survives a router crash.

    The rr counter lives in the topology's Grouping, outside the
    operator, so an operator-only checkpoint misses it; the engine
    snapshots it alongside and dry-advances it through replay.  These
    runs fail without both halves.
    """

    @staticmethod
    def _build(raws):
        topo = Topology("rr-router")
        topo.add_spout("source", source_of(raws))
        topo.add_bolt(
            "router",
            RouterOperator,
            inputs=[("source", Grouping.shuffle())],
        )
        topo.add_bolt(
            "worker",
            _TagWorker,
            parallelism=3,
            inputs=[("router", Grouping.round_robin())],
        )
        return topo

    def test_router_crash_preserves_rotation(self):
        raws = make_raws(300, ["NYC"], seed=58)
        baseline = run_topology(self._build(raws))
        chaos = run_topology(
            self._build(raws),
            faults=FaultConfig(
                crash_times=[("router", 0, 0.12), ("router", 0, 0.22)]
            ),
            recovery=RecoveryConfig(checkpoint_interval=0.05),
            fault_seed=11,
        )
        assert chaos.recovery.crashes == 2
        assert result_multiset(chaos) == result_multiset(baseline)
        assert chaos.result_fingerprint() == baseline.result_fingerprint()

    def test_router_crash_before_first_checkpoint(self):
        # No checkpoint yet: the replay log covers the whole history and
        # the rotation must restart from zero before dry-advancing.
        raws = make_raws(200, ["NYC"], seed=59)
        baseline = run_topology(self._build(raws))
        chaos = run_topology(
            self._build(raws),
            faults=FaultConfig(crash_times=[("router", 0, 0.02)]),
            recovery=RecoveryConfig(checkpoint_interval=0.5),
            fault_seed=12,
        )
        assert chaos.recovery.crashes == 1
        assert result_multiset(chaos) == result_multiset(baseline)
        assert chaos.result_fingerprint() == baseline.result_fingerprint()


class TestChaosProperty:
    """Satellite: crashes + replay == failure-free multiset, any batch."""

    @settings(max_examples=10, deadline=None)
    @given(
        batch_size=st.sampled_from([1, 7, 64]),
        self_join=st.booleans(),
        crash_rate=st.floats(min_value=1.0, max_value=8.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_crash_replay_exact(self, batch_size, self_join, crash_rate, seed):
        query = q3() if self_join else q1()
        streams = ["NYC"] if self_join else ["R", "S"]
        raws = make_raws(220, streams, seed=seed % 100)

        def build():
            return build_spo_local_topology(
                source_of(raws), query, WINDOW, batch_size=batch_size
            )

        baseline = run_topology(build())
        chaos = run_topology(
            build(),
            faults=FaultConfig(crash_rate=crash_rate, horizon=0.2),
            recovery=RecoveryConfig(checkpoint_interval=0.04),
            fault_seed=seed,
        )
        assert chaos.recovery.divergent_records == 0
        assert result_multiset(chaos) == result_multiset(baseline)
        assert chaos.result_fingerprint() == baseline.result_fingerprint()
