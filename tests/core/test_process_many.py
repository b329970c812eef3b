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
        assert window.evaluate_batch(ArenaSlice.of(probes), flags).rows() == expected

    def test_bounds_limit_visibility(self, q3_query):
        from repro.core.mutable import MutableComponent

        tuples = random_tuples(20, seed=8)
        window = MutableComponent(q3_query)
        for t in tuples:
            window.insert(t)
        probe = tuples[-1]
        # bound 0 sees nothing; full bound sees the scalar answer.
        probes = ArenaSlice.of([probe])
        assert window.evaluate_batch(probes, [True], [0]).rows() == [[]]
        full = window.evaluate(probe, True)
        assert window.evaluate_batch(probes, [True], [len(tuples)]).rows() == [full]


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
        got = batch.probe_batch(ArenaSlice.of(probes), flags).rows()
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


# ----------------------------------------------------------------------
# The batched kernels hand back CSR ``MatchBatch``es; each one's rows
# are held to its scalar oracle on the inputs that bend the array
# arithmetic: NaN, heavy duplicates, explicit slot bounds, both probe
# roles in one call, residual predicates, the covered shortcut.
# ----------------------------------------------------------------------
NAN = float("nan")


def hostile_tuples(n, seed, streams=("T",), num_fields=2, start_tid=0):
    """Values from {0, 1, 2, NaN}: nearly every comparison is a tie or
    involves a NaN."""
    rng = random.Random(seed)
    domain = [0.0, 1.0, 2.0, 1.0, NAN]
    return [
        make_tuple(
            start_tid + i,
            rng.choice(streams),
            *(rng.choice(domain) for __ in range(num_fields)),
            event_time=i * 1e-3,
        )
        for i in range(n)
    ]


def merge_batch_of(query, tuples, left_stream="R"):
    """One merge interval's batch through the production merge path."""
    from repro.core.merge import build_merge_batch_from_runs
    from repro.core.mutable import MutableComponent

    left = MutableComponent(query, side="left")
    right = None if query.is_self_join else MutableComponent(query, side="right")
    for t in tuples:
        own = left if right is None or t.stream == left_stream else right
        own.insert(t)
    return build_merge_batch_from_runs(
        0,
        query,
        left.drain_runs(),
        None if right is None else right.drain_runs(),
    )


def three_predicates(join_type):
    from repro.core import Predicate
    from repro.core.predicates import BandPredicate

    return QuerySpec(
        "q3p",
        join_type,
        [
            Predicate(0, Op.GE, 0),
            Predicate(1, Op.LE, 1),
            Predicate(2, Op.NE, 2),
            BandPredicate(2, 0, width=1.0),
        ],
    )


class TestProbeBatchRows:
    @staticmethod
    def check(query, stored, probes, flags, **batch_kwargs):
        from repro.core.immutable import scalar_probe_batch
        from repro.core.matches import MatchBatch
        from repro.core.pojoin_numpy import VectorPOJoinBatch

        batch = VectorPOJoinBatch(
            query, merge_batch_of(query, stored), **batch_kwargs
        )
        got = batch.probe_batch(ArenaSlice.of(probes), flags)
        assert isinstance(got, MatchBatch)
        assert got.probe_tids.tolist() == [t.tid for t in probes]
        expected = scalar_probe_batch(batch, probes, flags)
        if batch_kwargs.get("covered_shortcut"):
            # Same sets; a covered probe reads second-run order.
            assert [sorted(r) for r in got.rows()] == [
                sorted(r) for r in expected
            ]
        else:
            assert got.rows() == expected
        return got

    @pytest.mark.parametrize("op1", [Op.GT, Op.LE, Op.NE, Op.EQ])
    @pytest.mark.parametrize("op2", [Op.LT, Op.GE, Op.NE])
    def test_self_join_nan_and_duplicates(self, op1, op2):
        query = QuerySpec.two_inequalities("q", JoinType.SELF, op1, op2)
        stored = hostile_tuples(60, seed=1)
        probes = hostile_tuples(25, seed=2, start_tid=1000)
        got = self.check(query, stored, probes, [True] * len(probes))
        assert len(got) > 0

    @pytest.mark.parametrize("op", [Op.LT, Op.NE, Op.EQ])
    def test_single_predicate(self, op):
        from repro.core import Predicate

        query = QuerySpec("q1p", JoinType.SELF, [Predicate(0, op, 0)])
        stored = hostile_tuples(40, seed=3)
        probes = hostile_tuples(20, seed=4, start_tid=1000)
        self.check(query, stored, probes, [True] * len(probes))

    @pytest.mark.parametrize(
        "probe_streams", [("R", "S"), ("R",), ("S",)], ids="".join
    )
    def test_two_stream_roles(self, probe_streams):
        """Mixed, all-left and all-right sub-batches of a cross join."""
        query = QuerySpec.two_inequalities("q", JoinType.CROSS, Op.LT, Op.GE)
        stored = hostile_tuples(60, seed=5, streams=("R", "S"))
        probes = hostile_tuples(
            24, seed=6, streams=probe_streams, start_tid=1000
        )
        flags = [t.stream == "R" for t in probes]
        self.check(query, stored, probes, flags)

    def test_two_stream_one_stored_side_empty(self):
        query = QuerySpec.two_inequalities("q", JoinType.CROSS, Op.LT, Op.GE)
        stored = hostile_tuples(30, seed=7, streams=("R",))
        probes = hostile_tuples(12, seed=8, streams=("R", "S"), start_tid=1000)
        flags = [t.stream == "R" for t in probes]
        got = self.check(query, stored, probes, flags)
        # Left probes face the empty right side.
        assert all(
            not row for row, flag in zip(got.rows(), flags) if flag
        )

    @pytest.mark.parametrize("join_type", [JoinType.SELF, JoinType.CROSS])
    def test_residual_predicates(self, join_type):
        query = three_predicates(join_type)
        streams = ("T",) if join_type is JoinType.SELF else ("R", "S")
        stored = hostile_tuples(70, seed=9, streams=streams, num_fields=3)
        probes = hostile_tuples(
            30, seed=10, streams=streams, num_fields=3, start_tid=1000
        )
        flags = [t.stream != "S" for t in probes]
        got = self.check(query, stored, probes, flags)
        assert len(got) > 0

    @pytest.mark.parametrize("op1", [Op.GT, Op.LE])
    def test_covered_shortcut(self, op1):
        query = QuerySpec.two_inequalities("q", JoinType.SELF, op1, Op.LT)
        rng = random.Random(11)
        stored = [
            make_tuple(i, "T", rng.uniform(0.4, 0.6), rng.random())
            for i in range(50)
        ]
        # First-predicate intervals: whole run, nothing, and partial;
        # second-predicate intervals: whole run (y = -1 or 2) and partial.
        probes = [
            make_tuple(1000 + i, "T", x, y)
            for i, (x, y) in enumerate(
                (x, y)
                for x in (0.0, 1.0, 0.5, NAN)
                for y in (-1.0, 2.0, 0.5, NAN)
            )
        ]
        got = self.check(
            query, stored, probes, [True] * len(probes), covered_shortcut=True
        )
        assert len(got) > 0


class TestEvaluateBatchRows:
    @staticmethod
    def window_of(query, tuples, side="left"):
        from repro.core.mutable import MutableComponent

        window = MutableComponent(query, side=side)
        for t in tuples:
            window.insert(t)
        return window

    def test_nan_duplicates_and_self_exclusion(self, q3_query):
        stored = hostile_tuples(50, seed=12)
        window = self.window_of(q3_query, stored)
        # Probing with the stored tuples themselves: no bound hides the
        # probe's own slot, so only the tid comparison excludes it.
        probes = stored[10:40]
        got = window.evaluate_batch(ArenaSlice.of(probes), [True] * len(probes))
        assert got.rows() == [window.evaluate(t, True) for t in probes]
        assert got.probe_tids.tolist() == [t.tid for t in probes]
        assert all(probe != match for probe, match in got)

    def test_explicit_bounds(self, q3_query):
        """Bound ``b`` answers as a window holding only the first ``b``
        arrivals would."""
        stored = hostile_tuples(30, seed=13)
        window = self.window_of(q3_query, stored)
        probes = hostile_tuples(8, seed=14, start_tid=1000)
        bounds = [0, 30, 1, 17, 29, 5, 30, 0]
        got = window.evaluate_batch(
            ArenaSlice.of(probes), [True] * len(probes), bounds
        )
        expected = [
            self.window_of(q3_query, stored[:bound]).evaluate(t, True)
            for t, bound in zip(probes, bounds)
        ]
        assert got.rows() == expected

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_both_roles_in_one_call(self, q1_query, side):
        stream = "R" if side == "left" else "S"
        stored = hostile_tuples(40, seed=15, streams=(stream,))
        window = self.window_of(q1_query, stored, side=side)
        probes = hostile_tuples(16, seed=16, start_tid=1000)
        flags = [i % 3 != 0 for i in range(len(probes))]
        got = window.evaluate_batch(ArenaSlice.of(probes), flags)
        assert got.rows() == [
            window.evaluate(t, flag) for t, flag in zip(probes, flags)
        ]

    def test_hash_evaluator(self, q3_query):
        from repro.core.mutable import MutableComponent

        window = MutableComponent(q3_query, evaluator="hash")
        for t in hostile_tuples(30, seed=17):
            window.insert(t)
        probes = hostile_tuples(10, seed=18, start_tid=1000)
        got = window.evaluate_batch(ArenaSlice.of(probes), [True] * 10)
        assert got.rows() == [window.evaluate(t, True) for t in probes]
        with pytest.raises(ValueError):
            window.evaluate_batch(ArenaSlice.of(probes), [True] * 10, [3] * 10)


class TestProbeAllBatchRows:
    @pytest.mark.parametrize("batch_id_lt", [None, 0, 2, 3])
    def test_interleaves_batches_in_list_order(self, q3_query, batch_id_lt):
        from repro.core.merge import build_merge_batch_from_runs
        from repro.core.mutable import MutableComponent
        from repro.core.pojoin import POJoinList
        from repro.core.pojoin_numpy import VectorPOJoinBatch

        linked = POJoinList(q3_query)
        for batch_id in range(4):
            window = MutableComponent(q3_query)
            for t in hostile_tuples(
                25, seed=20 + batch_id, start_tid=100 * batch_id
            ):
                window.insert(t)
            merged = build_merge_batch_from_runs(
                batch_id, q3_query, window.drain_runs()
            )
            linked.append(VectorPOJoinBatch(q3_query, merged))
        probes = hostile_tuples(20, seed=30, start_tid=1000)
        flags = [True] * len(probes)
        outcome = linked.probe_all_batch(
            ArenaSlice.of(probes), flags, batch_id_lt=batch_id_lt
        )
        expected = [
            linked.probe_all(t, True, batch_id_lt=batch_id_lt).matches
            for t in probes
        ]
        assert outcome.matches.rows() == expected
        probed = 4 if batch_id_lt is None else batch_id_lt
        assert outcome.batches_probed == probed
        # One part per batch probed (a lone empty one when none was).
        assert len(outcome.parts) == max(probed, 1)
        assert sum(len(part) for part in outcome.parts) == len(outcome.matches)
        assert outcome.matches.probe_tids.tolist() == [t.tid for t in probes]

    def test_empty_list(self, q3_query):
        from repro.core.pojoin import POJoinList

        probes = hostile_tuples(5, seed=31)
        outcome = POJoinList(q3_query).probe_all_batch(
            ArenaSlice.of(probes), [True] * 5
        )
        assert outcome.matches.rows() == [[]] * 5
        assert outcome.makespan == 0.0


class TestProcessManyResult:
    def test_hostile_values_all_shapes(self, q3_query, q1_query):
        window = WindowSpec.count(60, 20)
        assert_batch_equals_scalar(
            lambda: SPOJoin(q3_query, window), hostile_tuples(260, seed=40)
        )
        assert_batch_equals_scalar(
            lambda: SPOJoin(q1_query, window),
            hostile_tuples(260, seed=41, streams=("R", "S")),
        )
        for join_type, streams in (
            (JoinType.SELF, ("T",)),
            (JoinType.CROSS, ("R", "S")),
        ):
            query = three_predicates(join_type)
            assert_batch_equals_scalar(
                lambda query=query: SPOJoin(query, window),
                hostile_tuples(220, seed=42, streams=streams, num_fields=3),
            )

    def test_one_row_per_input_tuple(self, q3_query):
        join = SPOJoin(q3_query, WindowSpec.count(40, 10))
        tuples = random_tuples(95, seed=43)
        # 64 tuples from a cold start cross six merge boundaries.
        for chunk in (tuples[:64], tuples[64:]):
            got = join.process_many(chunk)
            assert got.probe_tids.tolist() == [t.tid for t in chunk]
            assert got.rows() == [
                [m for p, m in got if p == t.tid] for t in chunk
            ]
        assert join.stats.merges == 9

    @pytest.mark.parametrize("two_stream", [False, True])
    def test_degraded_mode(self, q3_query, q1_query, two_stream):
        query = q1_query if two_stream else q3_query
        streams = ("R", "S") if two_stream else ("T",)
        tuples = hostile_tuples(240, seed=44, streams=streams)
        window = WindowSpec.count(60, 20)
        ref, join = SPOJoin(query, window), SPOJoin(query, window)
        for lo, hi, degraded in ((0, 90, False), (90, 170, True), (170, 240, False)):
            ref.set_degraded(degraded)
            join.set_degraded(degraded)
            xs = tuples[lo:hi]
            assert list(join.process_many(xs)) == [
                p for t in xs for p in ref.process(t)
            ]
            assert stats_tuple(join) == stats_tuple(ref)
            assert join.stats.degraded_tuples == ref.stats.degraded_tuples
        assert join.stats.degraded_tuples == 80

    def test_stats_stay_python_ints(self, q3_query):
        import json

        from repro.core.checkpoint import checkpoint

        join = SPOJoin(q3_query, WindowSpec.count(40, 10))
        join.process_many(random_tuples(100, seed=45))
        for name in join.stats.__slots__:
            assert type(getattr(join.stats, name)) is int, name
        assert join.stats.matches_emitted > 0
        json.dumps(checkpoint(join))
