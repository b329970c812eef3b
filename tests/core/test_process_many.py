"""Batch/scalar equivalence of the batch-first core.

``SPOJoin.process_many`` must return *exactly* the pairs the scalar
``process`` loop returns — same matches, same order, same statistics —
for every chunking of the stream, because the distributed batched
topology is built on top of it.  The oracle is the brute-force
:class:`ReferenceWindowJoin` from conftest.
"""

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    JoinType,
    Op,
    QuerySpec,
    SPOJoin,
    WindowSpec,
    make_tuple,
)
from repro.core.arena import ArenaSlice

from ..conftest import (
    INEQ_OPS,
    NoTupleViews,
    ReferenceWindowJoin,
    interleaved_rs,
    random_tuples,
)

CHUNKINGS = [1, 7, 64]


def scalar_pairs(join, tuples):
    pairs = []
    for t in tuples:
        pairs.extend(join.process(t))
    return pairs


def batched_pairs(join, tuples, chunk):
    pairs = []
    for i in range(0, len(tuples), chunk):
        pairs.extend(join.process_many(tuples[i : i + chunk]))
    return pairs


def stats_tuple(join):
    s = join.stats
    return (
        s.tuples_processed,
        s.matches_emitted,
        s.mutable_matches,
        s.immutable_matches,
        s.merges,
        s.expired_batches,
    )


def assert_batch_equals_scalar(make_join, tuples):
    ref = make_join()
    expected = scalar_pairs(ref, tuples)
    for chunk in CHUNKINGS:
        join = make_join()
        got = batched_pairs(join, tuples, chunk)
        assert got == expected, chunk
        assert stats_tuple(join) == stats_tuple(ref), chunk


class TestChunkingEquivalence:
    def test_q3_self_join(self, q3_query):
        tuples = random_tuples(300, seed=1)
        window = WindowSpec.count(80, 20)
        assert_batch_equals_scalar(lambda: SPOJoin(q3_query, window), tuples)

    def test_band_self_join(self, q2_query):
        tuples = random_tuples(250, seed=2)
        window = WindowSpec.count(60, 20)
        assert_batch_equals_scalar(lambda: SPOJoin(q2_query, window), tuples)

    def test_cross_join(self, q1_query):
        tuples = interleaved_rs(300, seed=3)
        window = WindowSpec.count(80, 20)
        assert_batch_equals_scalar(lambda: SPOJoin(q1_query, window), tuples)

    def test_hash_evaluator(self, q3_query):
        tuples = random_tuples(200, seed=4)
        window = WindowSpec.count(60, 20)
        assert_batch_equals_scalar(
            lambda: SPOJoin(q3_query, window, evaluator="hash"), tuples
        )

    def test_sub_intervals(self, q3_query):
        tuples = random_tuples(250, seed=5)
        window = WindowSpec.count(80, 40)
        assert_batch_equals_scalar(
            lambda: SPOJoin(q3_query, window, sub_intervals=4), tuples
        )

    def test_time_window(self, q3_query):
        tuples = random_tuples(250, seed=6)
        window = WindowSpec.time(0.08, 0.02)
        assert_batch_equals_scalar(lambda: SPOJoin(q3_query, window), tuples)

    def test_empty_and_single(self, q3_query):
        join = SPOJoin(q3_query, WindowSpec.count(40, 10))
        assert join.process_many([]) == []
        t = make_tuple(0, "T", 1, 2)
        assert join.process_many([t]) == []
        assert join.stats.tuples_processed == 1

    @pytest.mark.parametrize("evaluator", ["bit", "hash"])
    @pytest.mark.parametrize("nan_field", [0, 1])
    def test_nan_values_stay_equivalent(self, q3_query, evaluator, nan_field):
        # Regression: NaN keys used to be inserted into the mutable
        # B+-trees, where every comparison against them is false — the
        # tree's ordering invariant broke and range scans returned
        # positions for *other* tuples, so the scalar path diverged
        # from the batched (argsort-based) path.  NaN keys now stay out
        # of the index and matches involving NaN are impossible by
        # definition.
        rng = random.Random(9)
        tuples = []
        for i in range(200):
            values = [rng.random(), rng.random()]
            if i % 7 == 0:
                values[nan_field] = float("nan")
            tuples.append(
                make_tuple(i, "T", *values, event_time=i * 1e-3)
            )
        window = WindowSpec.count(60, 20)
        assert_batch_equals_scalar(
            lambda: SPOJoin(q3_query, window, evaluator=evaluator), tuples
        )
        ref = SPOJoin(q3_query, window, evaluator=evaluator)
        nan_tids = {i for i in range(200) if i % 7 == 0}
        for probe_tid, match_tid in scalar_pairs(ref, tuples):
            assert probe_tid not in nan_tids
            assert match_tid not in nan_tids


class TestAgainstOracle:
    @settings(max_examples=15, deadline=None)
    @given(
        op1=st.sampled_from(INEQ_OPS),
        op2=st.sampled_from(INEQ_OPS),
        self_join=st.booleans(),
        chunk=st.sampled_from(CHUNKINGS),
        window_len=st.integers(min_value=20, max_value=60),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_process_many_matches_nested_loop(
        self, op1, op2, self_join, chunk, window_len, seed
    ):
        join_type = JoinType.SELF if self_join else JoinType.CROSS
        query = QuerySpec.two_inequalities("q", join_type, op1, op2)
        window = WindowSpec.count(window_len, max(1, window_len // 3))
        if self_join:
            tuples = random_tuples(150, lo=0, hi=8, seed=seed)
        else:
            tuples = interleaved_rs(150, seed=seed, lo=0, hi=8)

        oracle = ReferenceWindowJoin(query, window)
        expected = {t.tid: set(oracle.process(t)) for t in tuples}

        join = SPOJoin(query, window)
        got = defaultdict(set)
        for i in range(0, len(tuples), chunk):
            for probe, match in join.process_many(tuples[i : i + chunk]):
                got[probe].add(match)
        for t in tuples:
            assert got[t.tid] == expected[t.tid], (t.tid, op1, op2, self_join)

    @settings(max_examples=8, deadline=None)
    @given(
        chunk=st.sampled_from(CHUNKINGS),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_mixed_chunk_sizes_stay_exact(self, chunk, seed):
        # Irregular chunk boundaries (prime-ish sizes mixed in) exercise
        # the merge-boundary scanner at every offset.
        query = QuerySpec.two_inequalities("Q3", JoinType.SELF, Op.GT, Op.LT)
        rng = random.Random(seed)
        tuples = random_tuples(200, seed=seed)
        window = WindowSpec.count(50, 10)
        expected = scalar_pairs(SPOJoin(query, window), tuples)
        join = SPOJoin(query, window)
        pairs = []
        i = 0
        while i < len(tuples):
            step = rng.choice([1, 2, 3, chunk])
            pairs.extend(join.process_many(tuples[i : i + step]))
            i += step
        assert pairs == expected


class TestEvaluateBatch:
    def test_matches_scalar_evaluate(self, q3_query):
        from repro.core.mutable import MutableComponent

        tuples = random_tuples(60, seed=7)
        window = MutableComponent(q3_query)
        for t in tuples[:40]:
            window.insert(t)
        probes = tuples[40:]
        flags = [True] * len(probes)
        expected = [window.evaluate(t, True) for t in probes]
        assert window.evaluate_batch(ArenaSlice.of(probes), flags) == expected

    def test_bounds_limit_visibility(self, q3_query):
        from repro.core.mutable import MutableComponent

        tuples = random_tuples(20, seed=8)
        window = MutableComponent(q3_query)
        for t in tuples:
            window.insert(t)
        probe = tuples[-1]
        # bound 0 sees nothing; full bound sees the scalar answer.
        probes = ArenaSlice.of([probe])
        assert window.evaluate_batch(probes, [True], [0]) == [[]]
        full = window.evaluate(probe, True)
        assert window.evaluate_batch(probes, [True], [len(tuples)]) == [full]


class TestProbeBatch:
    @pytest.mark.parametrize("vectorized", [False, True])
    def test_matches_scalar_probe(self, q3_query, vectorized):
        from repro.core.merge import build_merge_batch
        from repro.core.mutable import MutableComponent
        from repro.core.pojoin import POJoinBatch
        from repro.core.pojoin_numpy import VectorPOJoinBatch

        tuples = random_tuples(80, seed=9)
        mutable = MutableComponent(q3_query)
        for t in tuples[:60]:
            mutable.insert(t)
        merged = build_merge_batch(0, q3_query, mutable.trees)
        cls = VectorPOJoinBatch if vectorized else POJoinBatch
        batch = cls(q3_query, merged)
        probes = tuples[60:]
        flags = [True] * len(probes)
        expected = [batch.probe(t, True) for t in probes]
        got = batch.probe_batch(ArenaSlice.of(probes), flags)
        assert [sorted(m) for m in got] == [sorted(m) for m in expected]


class TestViewBudget:
    """``process_many`` over a slice reads columns only: zero
    :class:`ArenaTuple` views from stamp to pairs, merges included."""

    @staticmethod
    def run_without_views(join, tuples, chunk=16):
        slices = [
            ArenaSlice.of(tuples[i : i + chunk])
            for i in range(0, len(tuples), chunk)
        ]
        with NoTupleViews():
            pairs = [p for sl in slices for p in join.process_many(sl)]
        assert pairs and join.stats.merges >= 2
        assert join.stats.immutable_matches > 0

    def test_q3_self_join_count_window(self, q3_query):
        join = SPOJoin(q3_query, WindowSpec.count(80, 20))
        self.run_without_views(join, random_tuples(200, seed=41))

    def test_q1_cross_join_time_window(self, q1_query):
        join = SPOJoin(q1_query, WindowSpec.time(0.08, 0.02))
        self.run_without_views(join, interleaved_rs(200, seed=42))
