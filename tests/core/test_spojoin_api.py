"""Public streaming API and SPOJoin edge behaviours."""

import pytest

from repro.core import JoinType, Op, QuerySpec, SPOJoin, WindowSpec, make_tuple
from repro.joins import SPOJoinerOperator, make_spo_join

from ..conftest import random_tuples


class TestRunIterator:
    def test_yields_aligned_results(self, q3_query):
        join = SPOJoin(q3_query, WindowSpec.count(50, 10))
        tuples = random_tuples(120, seed=110)
        results = list(join.run(tuples))
        assert len(results) == 120
        assert [t for t, __ in results] == tuples
        # Matches agree with a second operator driven through process().
        replay = SPOJoin(q3_query, WindowSpec.count(50, 10))
        for (t, matches) in results:
            assert sorted(matches) == sorted(m for __, m in replay.process(t))

    def test_lazy_consumption(self, q3_query):
        join = SPOJoin(q3_query, WindowSpec.count(50, 10))
        iterator = join.run(iter(random_tuples(1000, seed=111)))
        next(iterator)
        # Only one tuple consumed so far.
        assert join.stats.tuples_processed == 1


class TestEdgeBehaviours:
    def test_single_tuple_stream(self, q3_query):
        join = SPOJoin(q3_query, WindowSpec.count(10, 5))
        assert join.process(make_tuple(0, "T", 1, 1)) == []

    def test_window_equal_to_slide(self, q3_query):
        # One merge interval per window: everything immutable expires fast.
        join = SPOJoin(q3_query, WindowSpec.count(20, 20))
        for t in random_tuples(100, seed=112):
            join.process(t)
        assert join.mutable_size() + join.immutable_size() <= 40

    def test_num_threads_do_not_change_results(self, q3_query):
        tuples = random_tuples(200, seed=113)
        serial = SPOJoin(q3_query, WindowSpec.count(60, 20), num_threads=1)
        threaded = SPOJoin(q3_query, WindowSpec.count(60, 20), num_threads=8)
        for t in tuples:
            assert sorted(serial.process(t)) == sorted(threaded.process(t))

    @pytest.mark.parametrize("num_threads", [0, -1])
    def test_invalid_num_threads_rejected_at_construction(
        self, q3_query, num_threads
    ):
        # The lazy check in POJoinList.probe_all_batch fires only after
        # process_many has inserted the sub-batch into the mutable
        # window, so a caught error used to leave a half-applied batch.
        # Rejecting at construction means no join exists to be mutated.
        window = WindowSpec.count(40, 10)
        for build in (SPOJoin, make_spo_join, SPOJoinerOperator):
            with pytest.raises(ValueError, match="num_threads"):
                build(q3_query, window, num_threads=num_threads)

    def test_custom_stream_names(self, q1_query):
        join = SPOJoin(
            q1_query,
            WindowSpec.count(40, 10),
            left_stream="alpha",
            right_stream="beta",
        )
        a = make_tuple(0, "alpha", 1, 9)
        b = make_tuple(1, "beta", 5, 3)
        assert join.process(a) == []
        # 1 < 5 and 9 > 3: the beta tuple matches the stored alpha tuple.
        assert join.process(b) == [(1, 0)]

    def test_stats_reset_free_counters(self, q3_query):
        join = SPOJoin(q3_query, WindowSpec.count(40, 10))
        assert join.stats.tuples_processed == 0
        join.process(make_tuple(0, "T", 1, 1))
        assert join.stats.tuples_processed == 1
