"""The CSR result type of the batched path (``repro.core.matches``).

``MatchBatch`` has two faces: three ``int64`` arrays the kernels build
and combine, and a lazy ``Sequence`` of ``(probe_tid, match_tid)`` pairs
that tests, examples and ``perf/single.py`` read.  Both are pinned here
against plain Python lists.
"""

from bisect import bisect_left

import numpy as np
import pytest

from repro.core.matches import MatchBatch

TIDS = [10, 11, 12, 13, 14]
ROWS = [[], [3, 1, 2], [], [7, 5], []]
PAIRS = [(11, 3), (11, 1), (11, 2), (13, 7), (13, 5)]


def batch(tids=TIDS, rows=ROWS) -> MatchBatch:
    return MatchBatch.from_rows(tids, rows)


def random_rows(rng, probes, max_len=4):
    return [
        rng.integers(0, 1000, size=int(rng.integers(0, max_len + 1))).tolist()
        for __ in range(probes)
    ]


class TestSequenceContract:
    def test_len_is_match_count(self):
        assert len(batch()) == 5
        assert len(MatchBatch.empty()) == 0

    def test_iteration_yields_python_int_pairs(self):
        pairs = list(batch())
        assert pairs == PAIRS
        assert all(type(v) is int for pair in pairs for v in pair)

    def test_index(self):
        mb = batch()
        assert [mb[i] for i in range(5)] == PAIRS
        assert mb[-1] == (13, 5) and mb[-5] == (11, 3)
        assert all(type(v) is int for v in mb[2])

    @pytest.mark.parametrize("index", [5, -6, 100])
    def test_index_out_of_range(self, index):
        with pytest.raises(IndexError):
            batch()[index]
        with pytest.raises(IndexError):
            MatchBatch.empty()[0]

    def test_slices_are_lists_of_2_tuples(self):
        mb = batch()
        for sl in (
            slice(None),
            slice(1, 4),
            slice(0, 0),
            slice(3, 99),
            slice(-2, None),
            slice(None, None, 2),
            slice(None, None, -1),
        ):
            got = mb[sl]
            assert isinstance(got, list) and got == PAIRS[sl], sl
            assert all(type(v) is int for pair in got for v in pair)

    def test_equality(self):
        mb = batch()
        assert mb == PAIRS and PAIRS == mb
        assert not (mb != PAIRS)
        assert mb != PAIRS[:-1] and mb != PAIRS + [(14, 0)]
        assert mb != [(11, 3), (11, 1), (11, 2), (13, 7), (13, 6)]
        assert mb == batch()
        # Same pairs, different empty probes: pairs are what compares.
        assert mb == MatchBatch.from_rows([11, 13], [[3, 1, 2], [7, 5]])
        assert MatchBatch.empty() == [] and batch([1, 2], [[], []]) == []
        assert mb != "pairs"
        with pytest.raises(TypeError):
            hash(mb)

    def test_list_extend_and_truthiness(self):
        pairs = []
        pairs.extend(batch())
        assert pairs == PAIRS
        assert batch() and not MatchBatch.empty()

    def test_harness_usage(self):
        """Exactly what ``perf/single.py::_timed_pass`` does with a
        result: ``len``, two ``bisect_left`` per sampled tid, a slice
        read as 2-tuples."""
        mb = batch()
        assert len(mb) == 5
        sampled = {}
        for tid in range(9, 16):
            a, b = bisect_left(mb, (tid,)), bisect_left(mb, (tid + 1,))
            sampled[tid] = [match for __, match in mb[a:b]]
        assert sampled == {
            9: [], 10: [], 11: [3, 1, 2], 12: [], 13: [7, 5], 14: [], 15: [],
        }

    def test_rows_and_counts(self):
        mb = batch()
        assert mb.rows() == ROWS
        assert mb.counts.tolist() == [0, 3, 0, 2, 0]
        assert mb.offsets.tolist() == [0, 0, 3, 3, 5, 5]
        assert mb.probe_tids.tolist() == TIDS
        assert mb.probe_column().tolist() == [11, 11, 11, 13, 13]
        for column in (mb.probe_tids, mb.offsets, mb.match_tids):
            assert column.dtype == np.int64


class TestConstruction:
    @pytest.mark.parametrize("seed", range(5))
    def test_from_rows_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        rows = random_rows(rng, probes=int(rng.integers(0, 12)))
        tids = list(range(100, 100 + len(rows)))
        mb = MatchBatch.from_rows(tids, rows)
        assert mb.rows() == rows
        assert list(mb) == [(t, m) for t, row in zip(tids, rows) for m in row]

    def test_from_rows_degenerate(self):
        assert MatchBatch.from_rows([], []).rows() == []
        assert MatchBatch.from_rows([4], [[]]).rows() == [[]]
        assert MatchBatch.empty(np.asarray([4, 5])).rows() == [[], []]

    def test_from_ranges(self):
        column = np.arange(100, 110)
        mb = MatchBatch.from_ranges(
            np.asarray([1, 2, 3, 4]),
            np.asarray([0, 5, 2, 9]),
            np.asarray([3, 2, 4, 10]),  # second range is inverted: empty
            column,
        )
        assert mb.rows() == [[100, 101, 102], [], [102, 103], [109]]

    def test_from_ranges_all_empty(self):
        lo = np.asarray([2, 0])
        mb = MatchBatch.from_ranges(np.asarray([1, 2]), lo, lo, np.arange(5))
        assert mb.rows() == [[], []] and len(mb) == 0

    def test_select(self):
        mb = batch()
        keep = np.asarray([True, False, True, False, True])
        assert mb.select(keep).rows() == [[], [3, 2], [], [5], []]
        assert mb.select(np.ones(5, dtype=bool)) is mb
        assert mb.select(np.zeros(5, dtype=bool)).rows() == [[]] * 5

    def test_scatter(self):
        tids = np.arange(20, 26)
        left = MatchBatch.from_rows([21, 24], [[1, 2], [3]])
        right = MatchBatch.from_rows([20, 25], [[], [4]])
        whole = MatchBatch.scatter(tids, [([1, 4], left), ([0, 5], right)])
        assert whole.rows() == [[], [1, 2], [], [], [3], [4]]
        assert whole.probe_tids.tolist() == tids.tolist()
        assert MatchBatch.scatter(tids, [([1, 4], left)]).rows() == [
            [], [1, 2], [], [], [3], [],
        ]
        assert MatchBatch.scatter(tids, []).rows() == [[]] * 6


class TestInterleave:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_python_row_concatenation(self, seed):
        rng = np.random.default_rng(100 + seed)
        probes = int(rng.integers(1, 10))
        tids = np.arange(probes, dtype=np.int64) + 50
        parts_rows = [
            random_rows(rng, probes) for __ in range(int(rng.integers(1, 6)))
        ]
        parts = [MatchBatch.from_rows(tids, rows) for rows in parts_rows]
        expected = [
            [m for rows in parts_rows for m in rows[i]] for i in range(probes)
        ]
        got = MatchBatch.interleave(parts)
        assert got.rows() == expected
        assert got.probe_tids.tolist() == tids.tolist()

    def test_empty_components_are_skipped(self):
        tids = np.asarray([1, 2, 3])
        none = MatchBatch.empty(tids)
        some = MatchBatch.from_rows(tids, [[9], [], [8, 7]])
        assert MatchBatch.interleave([none, some, none]) is some
        assert MatchBatch.interleave([none, none]).rows() == [[], [], []]
        twice = MatchBatch.interleave([some, none, some])
        assert twice.rows() == [[9, 9], [], [8, 7, 8, 7]]

    def test_zero_match_probes_at_either_end(self):
        tids = np.asarray([1, 2, 3, 4])
        a = MatchBatch.from_rows(tids, [[], [5], [6], []])
        b = MatchBatch.from_rows(tids, [[], [], [7, 8], []])
        merged = MatchBatch.interleave([a, b])
        assert merged.rows() == [[], [5], [6, 7, 8], []]
        assert merged == [(2, 5), (3, 6), (3, 7), (3, 8)]

    def test_inputs_are_not_modified(self):
        tids = np.asarray([1, 2])
        a = MatchBatch.from_rows(tids, [[5], [6]])
        b = MatchBatch.from_rows(tids, [[7], []])
        MatchBatch.interleave([a, b])
        assert a.rows() == [[5], [6]] and b.rows() == [[7], []]


class TestConcat:
    def test_across_a_merge_boundary(self):
        """Two sub-batches of one ``process_many`` call: probes and
        matches follow on, offsets shift by the first part's total."""
        first = MatchBatch.from_rows([1, 2, 3], [[10], [], [11, 12]])
        second = MatchBatch.from_rows([4, 5], [[], [13]])
        whole = MatchBatch.concat([first, second])
        assert whole.probe_tids.tolist() == [1, 2, 3, 4, 5]
        assert whole.rows() == [[10], [], [11, 12], [], [13]]
        assert whole.offsets.tolist() == [0, 1, 1, 3, 3, 4]
        assert whole == list(first) + list(second)

    def test_single_and_none(self):
        only = batch()
        assert MatchBatch.concat([only]) is only
        nothing = MatchBatch.concat([])
        assert len(nothing) == 0 and nothing.rows() == [] and nothing == []

    def test_empty_parts(self):
        a = MatchBatch.empty(np.asarray([1, 2]))
        b = MatchBatch.from_rows([3], [[9, 8]])
        assert MatchBatch.concat([a, b, a]).rows() == [[], [], [9, 8], [], []]
