"""Embedded-SQL immutable backend (sqlite3).

An alternative engine for the immutable tier behind the
:class:`~repro.core.immutable.ImmutableBackend` registry: each frozen
merge interval becomes an indexed table in an embedded SQLite database,
and interval/range probes are answered with SQL range queries instead of
permutation-array arithmetic.

Why ship a second engine when the in-memory PO-Join arrays are faster?

* It is a *genuinely different* implementation for the ablation suite —
  the fingerprint cross-check between backends is a strong correctness
  oracle for the PO-Join index arithmetic (the acceptance gate of the
  arena bench runs it at several batch sizes).
* With ``spill=True`` the database lives in a temporary file, so the
  immutable window is no longer bounded by RAM — the larger-than-memory
  configuration the in-memory arrays cannot offer.

Match-order contract: the memory backend emits matches in run-0 position
order, and run 0 is sorted by ``(value, tid)``; ``ORDER BY p0, tid``
reproduces that order exactly, so result fingerprints are bit-identical
across backends (residual predicates only filter, which preserves it).

Only the Python standard library's ``sqlite3`` is used — no third-party
database dependency.
"""

from __future__ import annotations

import sqlite3
from typing import List, Optional, Sequence

from .arena import ArenaSlice
from .immutable import scalar_probe_batch
from .matches import MatchBatch
from .merge import MergeBatch, MergeSide
from .query import QuerySpec
from .tuples import StreamTuple

__all__ = ["SQLImmutableBatch"]


def _range_sql(
    column: str,
    lo: Optional[float],
    hi: Optional[float],
    lo_inc: bool,
    hi_inc: bool,
    params: List[float],
) -> str:
    """One value-space range as a SQL condition (appends its params)."""
    conds = []
    if lo is not None:
        conds.append(f"{column} >{'=' if lo_inc else ''} ?")
        params.append(lo)
    if hi is not None:
        conds.append(f"{column} <{'=' if hi_inc else ''} ?")
        params.append(hi)
    if not conds:
        return "1=1"
    return "(" + " AND ".join(conds) + ")"


class SQLImmutableBatch:
    """One merge interval as indexed SQLite tables.

    Satisfies the :class:`~repro.core.immutable.ImmutableBatch` protocol.
    Each stored side is a table ``(tid INTEGER, p0 REAL, p1 REAL, ...)``
    — one column per predicate field of that side — with a ``(p_i, tid)``
    index per predicate, built once at merge time from the sorted runs.

    Parameters
    ----------
    spill:
        ``False`` (default) keeps the database in memory;  ``True`` backs
        it with an anonymous temporary file that SQLite deletes when the
        connection closes — the larger-than-memory window mode.
    use_offsets:
        Accepted for interface parity with the array batches; offset
        arrays have no SQL analogue, so it is ignored.
    """

    __slots__ = ("query", "batch", "_conn", "_tables", "_closed")

    def __init__(
        self,
        query: QuerySpec,
        batch: MergeBatch,
        spill: bool = False,
        use_offsets: bool = True,
    ) -> None:
        self.query = query
        self.batch = batch
        # sqlite3.connect("") gives a private, auto-deleted temp-file DB.
        self._conn = sqlite3.connect("" if spill else ":memory:")
        self._closed = False
        self._tables = {}
        self._build_side("stored_left", batch.left)
        if batch.right is not None:
            self._build_side("stored_right", batch.right)
        self._conn.commit()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_side(self, table: str, side: MergeSide) -> None:
        num_preds = len(self.query.predicates)
        cols = ", ".join(f"p{i} REAL" for i in range(num_preds))
        cur = self._conn.cursor()
        cur.execute(f"CREATE TABLE {table} (tid INTEGER PRIMARY KEY, {cols})")
        run0 = side.runs[0]
        value_maps = [
            side.values_of(i) for i in range(1, num_preds)
        ]
        rows = (
            (tid, value, *[vm[tid] for vm in value_maps])
            for value, tid in zip(run0.values, run0.tids)
        )
        placeholders = ", ".join("?" for __ in range(num_preds + 1))
        cur.executemany(f"INSERT INTO {table} VALUES ({placeholders})", rows)
        for i in range(num_preds):
            cur.execute(
                f"CREATE INDEX idx_{table}_p{i} ON {table} (p{i}, tid)"
            )
        self._tables[table] = len(run0)

    # ------------------------------------------------------------------
    # ImmutableBatch protocol
    # ------------------------------------------------------------------
    @property
    def batch_id(self) -> int:
        return self.batch.batch_id

    def __len__(self) -> int:
        return len(self.batch)

    def _stored_table(self, probe_is_left: bool) -> str:
        if self.batch.right is None:
            return "stored_left"
        return "stored_right" if probe_is_left else "stored_left"

    def probe(self, probe: StreamTuple, probe_is_left: bool) -> List[int]:
        """Stored tuple ids joining with ``probe``, via one range query."""
        table = self._stored_table(probe_is_left)
        if self._tables.get(table, 0) == 0:
            return []
        clauses: List[str] = []
        params: List[float] = []
        for pred_idx, pred in enumerate(self.query.predicates):
            value = probe.values[pred.probing_field(probe_is_left)]
            ranges = pred.probe_bounds(value, probe_is_left)
            if not ranges:
                return []
            ors = [
                _range_sql(f"p{pred_idx}", lo, hi, lo_inc, hi_inc, params)
                for lo, hi, lo_inc, hi_inc in ranges
            ]
            clauses.append("(" + " OR ".join(ors) + ")")
        sql = (
            f"SELECT tid FROM {table} WHERE {' AND '.join(clauses)} "
            f"ORDER BY p0, tid"
        )
        return [row[0] for row in self._conn.execute(sql, params)]

    def probe_batch(
        self, probes: ArenaSlice, flags: Sequence[bool]
    ) -> MatchBatch:
        """One range query per probe (SELECTs do not batch in sqlite)."""
        return MatchBatch.from_rows(
            probes.tid_values(), scalar_probe_batch(self, probes, flags)
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _db_bits(self) -> int:
        (pages,) = self._conn.execute("PRAGMA page_count").fetchone()
        (page_size,) = self._conn.execute("PRAGMA page_size").fetchone()
        return int(pages) * int(page_size) * 8

    def memory_bits(self) -> int:
        """Actual database footprint (page count × page size)."""
        return self._db_bits()

    def index_overhead_bits(self) -> int:
        """Database footprint beyond the raw column payload.

        The payload estimate mirrors the array backends' accounting —
        64 bits per (tid + predicate-value) cell — so the overhead is
        what SQLite's pages and indexes add on top of it.
        """
        payload = (len(self.query.predicates) + 1) * 64 * len(self.batch)
        return max(0, self._db_bits() - payload)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._conn.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SQLImmutableBatch(batch_id={self.batch_id}, "
            f"n={len(self)}, tables={list(self._tables)})"
        )
