"""Pluggable immutable backends: registry, SQL engine, and parity.

The registry decouples SPO-Join from the concrete immutable
representation; the embedded-SQL backend is a genuinely different engine
(indexed range queries over SQLite tables) whose results must be
*bit-identical* to the in-memory PO-Join arrays — the strongest
correctness oracle the suite has for the permutation/offset arithmetic.
Checkpoint round-trips must preserve the backend choice.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    JoinType,
    Op,
    QuerySpec,
    SPOJoin,
    WindowSpec,
    build_merge_batch,
    make_tuple,
)
from repro.core.arena import ArenaSlice
from repro.core.backend_sql import SQLImmutableBatch
from repro.core.checkpoint import checkpoint, restore
from repro.core.immutable import (
    ImmutableBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.core.pojoin_numpy import VectorPOJoinBatch
from repro.indexes import BPlusTree

from ..conftest import ALL_OPS, interleaved_rs, random_tuples

CHUNKINGS = [1, 7, 64]


def batched_pairs(join, tuples, chunk):
    pairs = []
    for i in range(0, len(tuples), chunk):
        pairs.extend(join.process_many(ArenaSlice.of(tuples[i : i + chunk])))
    return pairs


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"memory", "po_scalar", "sql"} <= set(backend_names())

    def test_get_backend_satisfies_protocol(self):
        for name in ("memory", "po_scalar", "sql"):
            backend = get_backend(name)
            assert isinstance(backend, ImmutableBackend)
            assert backend.name == name
            assert callable(backend.batch_factory())

    def test_unknown_backend_lists_known_names(self):
        with pytest.raises(KeyError, match="memory"):
            get_backend("duckdb")

    def test_register_custom_backend(self):
        class Fake:
            name = "fake-for-test"

            def batch_factory(self, **options):
                return lambda query, merge: None

        register_backend(Fake())
        try:
            assert get_backend("fake-for-test").name == "fake-for-test"
        finally:
            from repro.core import immutable

            del immutable._BACKENDS["fake-for-test"]

    def test_join_rejects_backend_plus_factory(self, q3_query):
        with pytest.raises(ValueError):
            SPOJoin(
                q3_query,
                WindowSpec.count(10, 2),
                backend="memory",
                batch_factory=lambda q, m: None,
            )

    def test_backend_selects_batch_class(self, q3_query):
        for backend, cls in (("memory", VectorPOJoinBatch),
                             ("sql", SQLImmutableBatch)):
            join = SPOJoin(
                q3_query, WindowSpec.count(40, 8), backend=backend
            )
            for t in random_tuples(60, seed=50):
                join.process(t)
            assert join.immutable.batches
            assert all(
                isinstance(b, cls) for b in join.immutable.batches
            )


# ----------------------------------------------------------------------
# SQL backend unit behaviour
# ----------------------------------------------------------------------
def build_pair(query, tuples):
    """Self-join merge batch over ``tuples`` (one tree per predicate)."""
    trees = []
    for p in query.predicates:
        tree = BPlusTree(order=8)
        for t in tuples:
            tree.insert(t.values[p.right_field], t.tid)
        trees.append(tree)
    return build_merge_batch(0, query, trees, None)


class TestSQLBatch:
    @pytest.mark.parametrize("spill", [False, True])
    def test_matches_memory_backend_per_probe(self, q3_query, spill):
        stored = random_tuples(80, seed=51)
        merge = build_pair(q3_query, stored)
        vec = VectorPOJoinBatch(q3_query, merge)
        sql = SQLImmutableBatch(q3_query, merge, spill=spill)
        try:
            for probe in random_tuples(40, start_tid=1000, seed=52):
                assert sql.probe(probe, True) == vec.probe(probe, True)
            probes = ArenaSlice.of(random_tuples(25, start_tid=2000, seed=53))
            flags = [True] * len(probes)
            assert sql.probe_batch(probes, flags).rows() == vec.probe_batch(
                probes, flags
            ).rows()
        finally:
            sql.close()

    @pytest.mark.parametrize("backend", ["memory", "po_scalar", "sql", "css"])
    def test_probe_batch_returns_scalar_rows(self, q3_query, backend):
        """Every ``ImmutableBatch`` answers a micro-batch with one
        ``MatchBatch`` whose rows are its own scalar probes (small value
        domain: most comparisons are ties)."""
        from repro.core.immutable import scalar_probe_batch
        from repro.core.matches import MatchBatch
        from repro.joins import CSSImmutableBatch

        merge = build_pair(q3_query, random_tuples(60, lo=0, hi=3, seed=54))
        if backend == "css":
            batch = CSSImmutableBatch(q3_query, merge)
        else:
            batch = get_backend(backend).batch_factory()(q3_query, merge)
        probes = random_tuples(20, start_tid=3000, lo=0, hi=3, seed=55)
        probes.append(make_tuple(3020, "T", -1, -1))  # below every stored x
        flags = [True] * len(probes)
        got = batch.probe_batch(ArenaSlice.of(probes), flags)
        assert isinstance(got, MatchBatch)
        assert got.probe_tids.tolist() == [t.tid for t in probes]
        assert got.rows() == scalar_probe_batch(batch, probes, flags)
        assert len(got) > 0 and got.rows()[-1] == []

    @pytest.mark.parametrize(
        "op1", ALL_OPS, ids=lambda op: f"op1={op.value}"
    )
    def test_all_operators_match(self, op1):
        query = QuerySpec.two_inequalities("Q", JoinType.SELF, op1, Op.LT)
        stored = random_tuples(60, seed=54, hi=10)
        merge = build_pair(query, stored)
        vec = VectorPOJoinBatch(query, merge)
        sql = SQLImmutableBatch(query, merge)
        for probe in random_tuples(30, start_tid=500, seed=55, hi=10):
            assert sql.probe(probe, True) == vec.probe(probe, True)

    def test_band_query_matches(self, q2_query):
        stored = random_tuples(60, seed=56)
        merge = build_pair(q2_query, stored)
        vec = VectorPOJoinBatch(q2_query, merge)
        sql = SQLImmutableBatch(q2_query, merge)
        for probe in random_tuples(30, start_tid=700, seed=57):
            assert sql.probe(probe, True) == vec.probe(probe, True)

    def test_empty_batch(self, q3_query):
        merge = build_pair(q3_query, [])
        sql = SQLImmutableBatch(q3_query, merge)
        probe = random_tuples(1, seed=58)[0]
        assert sql.probe(probe, True) == []
        assert len(sql) == 0

    def test_accounting_is_positive_and_honest(self, q3_query):
        stored = random_tuples(120, seed=59)
        merge = build_pair(q3_query, stored)
        sql = SQLImmutableBatch(q3_query, merge)
        payload = (len(q3_query.predicates) + 1) * 64 * len(merge)
        assert sql.memory_bits() >= payload
        assert sql.index_overhead_bits() == sql.memory_bits() - payload

    def test_close_is_idempotent(self, q3_query):
        sql = SQLImmutableBatch(q3_query, build_pair(q3_query, []))
        sql.close()
        sql.close()

    def test_duplicate_tids_rejected(self, q3_query):
        # Stream tids are unique by contract; the memory backend
        # silently tolerates a double-fed tuple while the SQL backend's
        # ``tid INTEGER PRIMARY KEY`` rejects it.  Keep that rejection:
        # it is a free state-integrity assertion that catches corrupted
        # merge batches (or a harness replaying an overlapping chunk).
        import sqlite3

        dup = random_tuples(8, seed=53)
        merge = build_pair(q3_query, dup + dup[:1])
        VectorPOJoinBatch(q3_query, merge)  # memory: accepted silently
        with pytest.raises(sqlite3.IntegrityError):
            SQLImmutableBatch(q3_query, merge)


# ----------------------------------------------------------------------
# End-to-end backend parity (the ISSUE acceptance gate, small scale)
# ----------------------------------------------------------------------
class TestEndToEndParity:
    @pytest.mark.parametrize("chunk", CHUNKINGS)
    def test_self_join_parity(self, q3_query, chunk):
        data = random_tuples(300, seed=60)
        window = WindowSpec.count(80, 16)
        mem = batched_pairs(SPOJoin(q3_query, window), data, chunk)
        sql = batched_pairs(
            SPOJoin(q3_query, window, backend="sql"), data, chunk
        )
        assert mem == sql

    @pytest.mark.parametrize("chunk", CHUNKINGS)
    def test_cross_join_parity(self, q1_query, chunk):
        data = interleaved_rs(300, seed=61)
        window = WindowSpec.count(80, 16)
        mem = batched_pairs(SPOJoin(q1_query, window), data, chunk)
        sql = batched_pairs(
            SPOJoin(q1_query, window, backend="sql"), data, chunk
        )
        assert mem == sql

    def test_spill_parity(self, q3_query):
        data = random_tuples(200, seed=62)
        window = WindowSpec.count(60, 12)
        mem = batched_pairs(SPOJoin(q3_query, window), data, 32)
        sql = batched_pairs(
            SPOJoin(
                q3_query,
                window,
                backend="sql",
                backend_options={"spill": True},
            ),
            data,
            32,
        )
        assert mem == sql


# ----------------------------------------------------------------------
# Checkpoint/restore of arena-backed joins (satellite property test)
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=25)
@given(
    chunk=st.sampled_from(CHUNKINGS),
    backend=st.sampled_from(["memory", "sql"]),
    seed=st.integers(min_value=0, max_value=50),
    cut=st.integers(min_value=10, max_value=190),
)
def test_checkpoint_restore_bit_identical(chunk, backend, seed, cut):
    """Restored arena-backed joins replay the future bit-identically.

    The oracle is the scalar object path of a never-checkpointed twin:
    warmup through arena-backed ``process_many``, checkpoint across a
    JSON serialisation boundary, then both joins must agree exactly on
    the remaining stream.
    """
    query = QuerySpec.two_inequalities("Q3", JoinType.SELF, Op.GT, Op.LT)
    window = WindowSpec.count(50, 10)
    data = random_tuples(200, seed=seed)
    warmup, future = data[:cut], data[cut:]

    reference = SPOJoin(query, window)
    expected = []
    for t in data:
        expected.extend(reference.process(t))

    original = SPOJoin(query, window, backend=backend)
    observed = batched_pairs(original, warmup, chunk)
    state = json.loads(json.dumps(checkpoint(original)))
    restored = restore(query, state)
    assert restored.backend == backend
    observed.extend(batched_pairs(restored, future, chunk))
    assert observed == expected
