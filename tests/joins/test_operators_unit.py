"""Unit tests for the distributed SPO operators' internals."""

import pytest

from repro.core import JoinType, Op, QuerySpec, SPOJoin, WindowSpec, make_tuple
from repro.core.arena import ArenaSlice
from repro.core.iejoin import compute_permutation
from repro.core.window import MergePolicy
from repro.dspe import TupleBatch
from repro.indexes.sorted_run import SortedRun
from repro.joins.operators import (
    PermMsg,
    POJoinOperator,
    SPOConfig,
    _MergeClock,
)

from ..conftest import NoTupleViews, random_tuples


class TestMergeClock:
    def test_count_based_epochs(self):
        clock = _MergeClock(MergePolicy(WindowSpec.count(100, 20)))
        fired = []
        for i in range(60):
            t = make_tuple(i, "T", 0.0, 0.0)
            fired.append(clock.advance(t))
        assert sum(fired) == 3
        assert clock.epoch == 3
        # Boundaries land exactly every delta tuples.
        assert [i for i, f in enumerate(fired) if f] == [19, 39, 59]

    def test_sub_interval_epochs(self):
        clock = _MergeClock(MergePolicy(WindowSpec.count(100, 20), sub_intervals=4))
        for i in range(20):
            clock.advance(make_tuple(i, "T", 0.0, 0.0))
        assert clock.epoch == 4  # delta = 5

    def test_time_based_epochs(self):
        clock = _MergeClock(MergePolicy(WindowSpec.time(1.0, 0.2)))
        fired = []
        for i in range(100):
            t = make_tuple(i, "T", 0.0, 0.0, event_time=i * 0.01)
            fired.append(clock.advance(t))
        # First boundary at first_event + 0.2, then every 0.2s.
        assert sum(fired) == 4
        assert clock.epoch == 4

    def test_identical_streams_agree(self):
        """Two clocks fed the same tuples fire at identical points —
        the property the distributed operators rely on."""
        policy = MergePolicy(WindowSpec.count(50, 10))
        a, b = _MergeClock(policy), _MergeClock(policy)
        for i in range(200):
            t = make_tuple(i, "T", 0.0, 0.0, event_time=i * 0.003)
            assert a.advance(t) == b.advance(t)
        assert a.epoch == b.epoch


class TestSPOConfig:
    def test_defaults(self, q1_query):
        config = SPOConfig(q1_query, WindowSpec.count(100, 20))
        assert config.two_stream
        assert config.global_max_batches == 4
        assert config.state_strategy == "rr"

    def test_probe_side_routing(self, q1_query, q3_query):
        config = SPOConfig(q1_query, WindowSpec.count(100, 20))
        assert config.probe_is_left(make_tuple(0, "R", 1, 2))
        assert not config.probe_is_left(make_tuple(0, "S", 1, 2))
        self_config = SPOConfig(q3_query, WindowSpec.count(100, 20))
        assert self_config.probe_is_left(make_tuple(0, "anything", 1, 2))

    def test_invalid_strategy_rejected(self, q1_query):
        with pytest.raises(ValueError):
            SPOConfig(q1_query, WindowSpec.count(100, 20), state_strategy="gossip")

    def test_batch_factory_default_builds_vector_pojoin(self, q3_query):
        from repro.core import build_merge_batch
        from repro.core.immutable import ImmutableBatch
        from repro.core.pojoin_numpy import VectorPOJoinBatch
        from repro.indexes import BPlusTree

        config = SPOConfig(q3_query, WindowSpec.count(100, 20))
        trees = [BPlusTree() for __ in q3_query.predicates]
        merge = build_merge_batch(0, q3_query, trees)
        batch = config.batch_factory(q3_query, merge)
        assert isinstance(batch, VectorPOJoinBatch)
        assert isinstance(batch, ImmutableBatch)

    def test_invalid_batch_size_rejected(self, q3_query):
        with pytest.raises(ValueError):
            SPOConfig(q3_query, WindowSpec.count(100, 20), batch_size=0)


class RecordingCtx:
    """Minimal operator context for a lone PO-Join PE."""

    observing = False
    pe_index = 0
    num_pes = 1
    now = 0.0

    def __init__(self):
        self.records = []

    def mark(self, component):
        pass

    def charge(self, seconds):
        pass

    def record(self, name, payload):
        self.records.append((name, payload))


def perm_msg(query, merge_id, stored):
    """The merge parts a self-join PO-Join PE needs for one interval."""
    runs = [
        SortedRun.from_unsorted_entries(
            (t.values[pred.right_field], t.tid) for t in stored
        )
        for pred in query.predicates
    ]
    return PermMsg(
        merge_id, "left", runs, compute_permutation(runs[0], runs[1])
    )


class TestPOJoinBatchPath:
    def test_merge_free_batch_probes_without_tuple_views(self, q3_query):
        config = SPOConfig(q3_query, WindowSpec.count(100, 20), batch_size=8)
        op = POJoinOperator(config)
        ctx = RecordingCtx()
        op.setup(ctx)
        # Twenty scalar tuples close merge interval 0, which this (only)
        # PE owns; its merge parts then link the first immutable batch.
        stored = random_tuples(20, seed=31)
        for t in stored:
            op.process(t, ctx)
        op.process(perm_msg(q3_query, 0, stored), ctx)
        assert len(op.list) == 1

        probes = random_tuples(8, start_tid=20, seed=32)
        expected = [op.list.probe_all(t, True).matches for t in probes]
        assert any(expected)
        batch = TupleBatch(ArenaSlice.of(probes), [0.0] * len(probes))
        del ctx.records[:]
        with NoTupleViews():
            op.process(batch, ctx)
        results = [p for name, p in ctx.records if name == "immutable_result"]
        assert [r["tid"] for r in results] == [t.tid for t in probes]
        assert [r["matches"] for r in results] == expected
        assert [r["event_time"] for r in results] == [
            t.event_time for t in probes
        ]


class TestPOJoinLateMergeParts:
    def test_queued_tuples_drain_before_later_links_expire_their_window(
        self, q3_query
    ):
        """Merge parts running several intervals late must not cost
        queued tuples the batches they arrived in time to see."""
        window = WindowSpec.count(40, 10)
        tuples = random_tuples(70, seed=33)
        local = SPOJoin(q3_query, window)
        expected = {}
        for t in tuples:
            interval_start = t.tid - t.tid % 10
            expected[t.tid] = sorted(
                m for __, m in local.process(t) if m < interval_start
            )

        op = POJoinOperator(SPOConfig(q3_query, window))
        ctx = RecordingCtx()
        op.setup(ctx)

        def interval(m):
            return tuples[10 * m : 10 * m + 10]

        for m in range(3):  # merges 0-2 link on time
            for t in interval(m):
                op.process(t, ctx)
            op.process(perm_msg(q3_query, m, interval(m)), ctx)
        for m in range(3, 7):  # merges 3-6 are awaited; tuples queue up
            for t in interval(m):
                op.process(t, ctx)
        for m in range(3, 6):  # the late parts finally arrive, in order
            op.process(perm_msg(q3_query, m, interval(m)), ctx)

        got = {
            p["tid"]: sorted(p["matches"])
            for name, p in ctx.records
            if name == "immutable_result"
        }
        assert any(expected[tid] for tid in range(40, 70))
        assert got == expected
