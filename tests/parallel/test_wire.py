"""Wire-format regression tests: columnar batches cross process
boundaries as raw column buffers, bit-identically and without ever
materialising per-tuple objects."""

from __future__ import annotations

import pickle

import numpy as np

from repro.core.arena import ArenaSlice, ArenaTuple, TupleArena
from repro.dspe.engine import TupleBatch
from repro.parallel import ShardBatch

from ..conftest import NoTupleViews


def _arena(n: int = 10) -> TupleArena:
    arena = TupleArena(capacity=n)
    for i in range(n):
        stream = "R" if i % 2 == 0 else "S"
        arena.append(100 + i, stream, (i * 0.5, 1000.0 - i * 0.25), i * 0.001)
    return arena


def _assert_bit_identical(a: ArenaSlice, b: ArenaSlice) -> None:
    assert len(a) == len(b)
    for i in range(a.arena.num_fields):
        col_a, col_b = a.field_values(i), b.field_values(i)
        assert col_a.dtype == col_b.dtype
        np.testing.assert_array_equal(col_a, col_b)
    np.testing.assert_array_equal(a.tid_values(), b.tid_values())
    assert [t.stream for t in a] == [t.stream for t in b]
    assert [t.event_time for t in a] == [t.event_time for t in b]


def test_contiguous_slice_round_trip_bit_identical():
    sl = _arena().slice()
    _assert_bit_identical(ArenaSlice.from_wire(sl.to_wire()), sl)


def test_indexed_slice_round_trip_bit_identical():
    sl = _arena().slice().take(np.array([7, 0, 3, 3]))
    back = ArenaSlice.from_wire(sl.to_wire())
    _assert_bit_identical(back, sl)
    # The rebuilt slice is compacted: it owns exactly its rows.
    assert back.arena.size == 4


def test_slice_pickle_round_trip_without_tuple_views():
    sl = _arena().slice()
    with NoTupleViews():
        payload = pickle.dumps(sl)
        back = pickle.loads(payload)
    _assert_bit_identical(back, sl)


def test_tuple_batch_pickle_round_trip_without_tuple_views():
    sl = _arena().slice()
    batch = TupleBatch(sl, origin_times=[0.1] * len(sl))
    with NoTupleViews():
        back = pickle.loads(pickle.dumps(batch))
    _assert_bit_identical(back.tuples, sl)
    assert back.origin_times == batch.origin_times


def test_shard_batch_pickle_round_trip_without_tuple_views():
    sl = _arena().slice()
    probes = sl.take(np.array([0, 2, 4]))
    stores = sl.take(np.array([1, 3]))
    shard_batch = ShardBatch(2, probes, stores, [0, 1, 2])
    with NoTupleViews():
        back = pickle.loads(pickle.dumps(shard_batch))
    assert back.shard == 2
    assert back.stores_before == [0, 1, 2]
    _assert_bit_identical(back.probes, probes)
    _assert_bit_identical(back.stores, stores)


def test_arena_tuple_pickles_to_arena_tuple():
    arena = _arena()
    t = arena.view(3)
    back = pickle.loads(pickle.dumps(t))
    # The unpickled object is still a columnar view, not a boxed tuple.
    assert type(back) is ArenaTuple
    assert (back.tid, back.stream, back.values, back.event_time) == (
        t.tid,
        t.stream,
        t.values,
        t.event_time,
    )


def test_wire_owns_its_memory():
    arena = _arena()
    sl = arena.slice()
    wire = sl.to_wire()
    back = ArenaSlice.from_wire(wire)
    before = back.field_values(0).copy()
    # Mutating the source arena must not leak into the decoded slice.
    arena.fields[0][:] = -1.0
    np.testing.assert_array_equal(back.field_values(0), before)
