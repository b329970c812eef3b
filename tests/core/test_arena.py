"""Columnar tuple arena: views, slices, and object-plane equivalence.

The arena is the storage half of the columnar data plane; these tests pin
down the contract the rest of the system leans on:

* :class:`ArenaTuple` views are indistinguishable from the boxed
  :class:`StreamTuple` they shadow — same attribute values, pure-Python
  scalar types (fingerprints hash ``repr``, so a leaked ``np.int64``
  would silently change every result fingerprint);
* :class:`ArenaSlice` behaves like the tuple list it replaces under
  ``len``/iteration/indexing/``take``, and its columnar accessors are
  zero-copy over the arena storage;
* bulk transfer (``extend_slice``) preserves everything including the
  per-arena stream dictionary encoding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_tuple
from repro.core.arena import ArenaSlice, ArenaTuple, TupleArena
from repro.core.tuples import StreamTuple

from ..conftest import interleaved_rs, random_tuples


# ----------------------------------------------------------------------
# TupleArena basics
# ----------------------------------------------------------------------
class TestTupleArena:
    def test_append_and_view(self):
        arena = TupleArena()
        slot = arena.append(7, "R", (1.5, 2.5), event_time=0.25)
        view = arena.view(slot)
        assert (view.tid, view.stream) == (7, "R")
        assert view.values == (1.5, 2.5)
        assert view.event_time == 0.25

    def test_growth_beyond_initial_capacity(self):
        arena = TupleArena(capacity=2)
        for i in range(100):
            arena.append(i, "T", (float(i), float(-i)))
        assert len(arena) == 100
        assert arena.tid_column().tolist() == list(range(100))
        assert arena.field(0).tolist() == [float(i) for i in range(100)]

    def test_field_count_mismatch_rejected(self):
        arena = TupleArena()
        arena.append(0, "T", (1.0, 2.0))
        with pytest.raises(ValueError):
            arena.append(1, "T", (1.0,))

    def test_view_out_of_range(self):
        arena = TupleArena()
        arena.append(0, "T", (1.0,))
        with pytest.raises(IndexError):
            arena.view(1)

    def test_stream_dictionary_encoding(self):
        arena = TupleArena()
        for i, stream in enumerate(["R", "S", "R", "S", "S"]):
            arena.append(i, stream, (0.0,))
        assert [arena.stream_of(i) for i in range(5)] == [
            "R", "S", "R", "S", "S",
        ]
        assert arena.stream_names == ["R", "S"]

    def test_reset_retains_capacity(self):
        arena = TupleArena()
        for i in range(10):
            arena.append(i, "T", (1.0, 2.0))
        arena.reset()
        assert len(arena) == 0
        assert arena.memory_bits() == 0
        arena.append(99, "U", (3.0, 4.0))
        assert arena.view(0).stream == "U"

    def test_memory_bits_counts_columns(self):
        arena = TupleArena()
        for i in range(5):
            arena.append(i, "T", (1.0, 2.0, 3.0))
        # tid + event_time + 3 fields, 64 bits each, 5 rows.
        assert arena.memory_bits() == (2 + 3) * 64 * 5


# ----------------------------------------------------------------------
# ArenaTuple: StreamTuple compatibility
# ----------------------------------------------------------------------
class TestArenaTuple:
    def test_is_a_stream_tuple(self):
        sl = ArenaSlice.of(random_tuples(3, seed=1))
        assert all(isinstance(t, StreamTuple) for t in sl)
        assert all(isinstance(t, ArenaTuple) for t in sl)

    def test_accessors_return_pure_python_scalars(self):
        sl = ArenaSlice.of(random_tuples(4, seed=2))
        t = sl[0]
        assert type(t.tid) is int
        assert type(t.event_time) is float
        assert type(t.values) is tuple
        assert all(type(v) is float for v in t.values)
        assert type(t.value(1)) is float
        # The engine fingerprints hash repr(); numpy scalars leak as
        # "np.float64(...)" under numpy>=2 and would corrupt them.
        assert "np." not in repr((t.tid, t.values, t.event_time))

    def test_materialize_round_trip(self):
        original = random_tuples(6, seed=3)
        for view, t in zip(ArenaSlice.of(original), original):
            m = view.materialize()
            assert type(m) is StreamTuple
            assert (m.tid, m.stream, m.values, m.event_time) == (
                t.tid, t.stream, t.values, t.event_time,
            )


# ----------------------------------------------------------------------
# ArenaSlice: sequence protocol + columnar accessors
# ----------------------------------------------------------------------
class TestArenaSlice:
    def test_len_iter_getitem(self):
        data = interleaved_rs(9, seed=4)
        sl = ArenaSlice.of(data)
        assert len(sl) == 9
        assert [t.tid for t in sl] == [t.tid for t in data]
        assert sl[-1].tid == data[-1].tid
        with pytest.raises(IndexError):
            sl[9]

    def test_subslice_contiguous(self):
        sl = ArenaSlice.of(random_tuples(10, seed=5))
        sub = sl[2:7]
        assert isinstance(sub, ArenaSlice)
        assert sub.index is None
        assert [t.tid for t in sub] == [2, 3, 4, 5, 6]

    def test_subslice_with_step_goes_indexed(self):
        sl = ArenaSlice.of(random_tuples(10, seed=6))
        sub = sl[1:8:2]
        assert sub.index is not None
        assert [t.tid for t in sub] == [1, 3, 5, 7]

    def test_take_preserves_order_and_repeats(self):
        sl = ArenaSlice.of(random_tuples(6, seed=7))
        taken = sl.take([4, 0, 4, 2])
        assert [t.tid for t in taken] == [4, 0, 4, 2]
        # take() of an indexed slice composes.
        again = taken.take([1, 3])
        assert [t.tid for t in again] == [0, 2]

    def test_contiguous_columns_are_zero_copy(self):
        arena = TupleArena()
        for i in range(8):
            arena.append(i, "T", (float(i), float(i * 2)))
        sl = arena.slice(2, 6)
        col = sl.field_values(1)
        assert np.shares_memory(col, arena.fields)
        assert np.shares_memory(sl.tid_values(), arena.tids)

    def test_columnar_accessors_match_views(self):
        data = interleaved_rs(12, seed=8)
        sl = ArenaSlice.of(data).take([3, 1, 10, 7])
        assert sl.field_values(0).tolist() == [t.values[0] for t in sl]
        assert sl.tids_list() == [t.tid for t in sl]
        assert sl.event_time_values().tolist() == [t.event_time for t in sl]
        assert sl.stream_flags("R").tolist() == [t.stream == "R" for t in sl]

    def test_stream_flags_unknown_stream(self):
        sl = ArenaSlice.of(random_tuples(5, seed=9))
        assert sl.stream_flags("nope").tolist() == [False] * 5

    def test_extend_slice_bulk_copy(self):
        src = ArenaSlice.of(interleaved_rs(7, seed=10))
        dst = TupleArena()
        dst.append(100, "S", (9.0, 9.0))  # pre-seed a different dictionary
        out = dst.extend(src)
        assert len(dst) == 8
        assert [t.stream for t in out] == [t.stream for t in src]
        assert [t.tid for t in out] == [t.tid for t in src]
        assert out.field_values(1).tolist() == src.field_values(1).tolist()

    def test_extend_empty_slice(self):
        dst = TupleArena()
        out = dst.extend(ArenaSlice.of([]))
        assert len(out) == 0
        assert len(dst) == 0


# ----------------------------------------------------------------------
# Slice accessors agree with the boxed tuples the slice was stamped from
# ----------------------------------------------------------------------
class TestShims:
    def test_shims_equal_across_planes(self):
        data = interleaved_rs(11, seed=11)
        sl = ArenaSlice.of(data)
        assert sl.field_values(0).tolist() == [t.values[0] for t in data]
        assert sl.tids_list() == [t.tid for t in data]
        assert sl.stream_flags("R").tolist() == [t.stream == "R" for t in data]
        assert sl.event_time_values().tolist() == [
            t.event_time for t in data
        ]

    def test_shims_return_pure_python(self):
        sl = ArenaSlice.of(interleaved_rs(4, seed=12))
        assert all(type(x) is int for x in sl.tids_list())
        assert all(type(x) is bool for x in sl.stream_flags("R").tolist())
        assert all(
            type(x) is float for x in sl.event_time_values().tolist()
        )


# ----------------------------------------------------------------------
# Property: StreamTuple <-> arena-view round trip (satellite c)
# ----------------------------------------------------------------------
finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, width=32, min_value=-1e6,
    max_value=1e6,
)
tuple_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**40),
        st.sampled_from(["R", "S", "T"]),
        st.tuples(finite_floats, finite_floats),
        finite_floats,
    ),
    min_size=0,
    max_size=40,
)


@settings(deadline=None, max_examples=60)
@given(tuple_specs, st.randoms(use_true_random=False))
def test_round_trip_property(specs, rng):
    originals = [
        StreamTuple(tid, stream, values, event_time)
        for tid, stream, values, event_time in specs
    ]
    sl = ArenaSlice.of(originals)
    assert len(sl) == len(originals)
    for view, t in zip(sl, originals):
        assert (view.tid, view.stream) == (t.tid, t.stream)
        assert view.values == tuple(float(v) for v in t.values)
        assert view.event_time == float(t.event_time)
    if originals:
        # An arbitrary gather then a bulk copy into a second arena must
        # still reproduce the originals exactly.
        idx = [rng.randrange(len(originals)) for __ in range(len(originals))]
        gathered = sl.take(idx)
        copied = TupleArena().extend(gathered)
        for view, j in zip(copied, idx):
            t = originals[j]
            assert (view.tid, view.stream) == (t.tid, t.stream)
            assert view.values == tuple(float(v) for v in t.values)
            assert view.event_time == float(t.event_time)
