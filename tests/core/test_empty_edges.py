"""Zero-length edges of the vectorised probe paths (satellite hardening).

Empty stored sides and empty probe batches are the degenerate shapes the
numpy kernels are most likely to trip on (``searchsorted`` on a length-0
array is fine; broadcasting a 0-length bound array against a python loop
is not).  Every entry point must return well-formed empty results.
"""

import numpy as np
import pytest

from repro.core import (
    JoinType,
    Op,
    Predicate,
    QuerySpec,
    SPOJoin,
    WindowSpec,
    build_merge_batch,
    make_tuple,
)
from repro.core.arena import ArenaSlice
from repro.core.pojoin_numpy import VectorPOJoinBatch, batch_probe_intervals
from repro.core.predicates import BandPredicate
from repro.indexes import BPlusTree

from ..conftest import random_tuples


def tree_from(tuples, field):
    tree = BPlusTree(order=8)
    for t in tuples:
        tree.insert(t.values[field], t.tid)
    return tree


def self_join_batch(tuples):
    query = QuerySpec.two_inequalities("Q3", JoinType.SELF, Op.GT, Op.LT)
    trees = [tree_from(tuples, p.right_field) for p in query.predicates]
    merge = build_merge_batch(0, query, trees, None)
    return query, VectorPOJoinBatch(query, merge)


ALL_PREDS = [
    Predicate(0, Op.LT, 0),
    Predicate(0, Op.GE, 0),
    Predicate(0, Op.EQ, 0),
    Predicate(0, Op.NE, 0),
    BandPredicate(0, 0, width=2.0),
]


class TestBatchProbeIntervals:
    @pytest.mark.parametrize("pred", ALL_PREDS, ids=lambda p: repr(p))
    def test_empty_probe_batch(self, pred):
        stored = np.asarray([1.0, 2.0, 3.0])
        pairs = batch_probe_intervals(pred, np.empty(0), stored, True)
        for lo, hi in pairs:
            assert lo.shape == hi.shape == (0,)

    @pytest.mark.parametrize("pred", ALL_PREDS, ids=lambda p: repr(p))
    def test_empty_stored_side(self, pred):
        pairs = batch_probe_intervals(
            pred, np.asarray([1.0, 5.0]), np.empty(0), True
        )
        # Every interval must be empty: lo == hi for all probes.
        for lo, hi in pairs:
            assert lo.shape == hi.shape == (2,)
            assert (np.asarray(lo) == np.asarray(hi)).all()

    def test_both_empty(self):
        pairs = batch_probe_intervals(
            Predicate(0, Op.LT, 0), np.empty(0), np.empty(0), True
        )
        for lo, hi in pairs:
            assert lo.shape == hi.shape == (0,)

    def test_accepts_plain_lists(self):
        pairs = batch_probe_intervals(
            Predicate(0, Op.LT, 0), [2.0], [1.0, 2.0, 3.0], True
        )
        (lo, hi), = pairs
        assert (int(lo[0]), int(hi[0])) == (2, 3)


class TestVectorBatchEdges:
    def test_probe_batch_empty_probe_list(self):
        __, batch = self_join_batch(random_tuples(10, seed=20))
        assert batch.probe_batch(ArenaSlice.of([]), []).rows() == []

    def test_probe_batch_empty_stored_side(self):
        __, batch = self_join_batch([])
        probes = random_tuples(5, seed=21)
        out = batch.probe_batch(ArenaSlice.of(probes), [True] * 5)
        assert out.rows() == [[]] * 5
        assert out.probe_tids.tolist() == [t.tid for t in probes]

    def test_scalar_probe_empty_stored_side(self):
        __, batch = self_join_batch([])
        assert batch.probe(make_tuple(0, "T", 1, 2), True) == []

    def test_empty_cross_join_side(self):
        query = QuerySpec.two_inequalities("Q1", JoinType.CROSS, Op.LT, Op.GT)
        left = random_tuples(6, stream="R", seed=22)
        lt = [tree_from(left, p.left_field) for p in query.predicates]
        rt = [BPlusTree(order=8) for __ in query.predicates]
        merge = build_merge_batch(0, query, lt, rt)
        batch = VectorPOJoinBatch(query, merge)
        # Left probes hit the (empty) stored right side; right probes hit
        # the populated left side.
        l_probe = make_tuple(100, "R", 3, 3)
        r_probe = make_tuple(101, "S", 30, -30)
        assert batch.probe(l_probe, True) == []
        assert len(batch.probe(r_probe, False)) == 6
        out = batch.probe_batch(
            ArenaSlice.of([l_probe, r_probe]), [True, False]
        ).rows()
        assert out[0] == [] and len(out[1]) == 6


class TestJoinEdges:
    def test_process_many_empty_inputs(self, q3_query):
        join = SPOJoin(q3_query, WindowSpec.count(50, 10))
        for t in random_tuples(60, seed=23):
            join.process(t)
        assert join.process_many([]) == []
        assert join.process_many(ArenaSlice.of([])) == []

    def test_evaluate_batch_empty(self, q3_query):
        join = SPOJoin(q3_query, WindowSpec.count(50, 10))
        for t in random_tuples(30, seed=24):
            join.process(t)
        window = join.mutable_left  # drained by the merge at tuple 30
        assert window.evaluate_batch(ArenaSlice.of([]), []).rows() == []
        for t in random_tuples(5, start_tid=30, seed=24):
            join.process(t)
        assert len(window) == 5
        assert window.evaluate_batch(ArenaSlice.of([]), []).rows() == []

    @pytest.mark.parametrize("evaluator", ["bit", "hash"])
    def test_one_sided_two_stream_subbatches(self, evaluator):
        """A cross join fed runs of one stream only: every sub-batch has
        an empty probe role, and until the other stream shows up an
        empty opposite window and empty stored sides as well."""
        query = QuerySpec.two_inequalities("Q1", JoinType.CROSS, Op.LT, Op.GT)
        window = WindowSpec.count(40, 10)
        tuples = (
            random_tuples(25, stream="R", seed=25)
            + random_tuples(25, stream="S", start_tid=25, seed=26)
            + random_tuples(25, stream="R", start_tid=50, seed=27)
        )
        ref = SPOJoin(query, window, evaluator=evaluator)
        expected = [p for t in tuples for p in ref.process(t)]
        join = SPOJoin(query, window, evaluator=evaluator)
        got = []
        for i in range(0, len(tuples), 8):
            result = join.process_many(tuples[i : i + 8])
            assert result.probe_tids.tolist() == [
                t.tid for t in tuples[i : i + 8]
            ]
            got.extend(result)
        assert got == expected and expected
        assert join.process_many(tuples[:3])[:0] == []
