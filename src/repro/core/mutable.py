"""The mutable component of SPO-Join (Figure 4 of the paper).

Each stream's mutable window ``W_M`` keeps one B+-tree per predicate field.
A new tuple is *inserted* into its own stream's trees and *probed* against
the opposite stream's (for self joins, the same) trees.  Per-predicate
probe results are represented either as

* a **bit array** whose positions are the slots of the tuples currently in
  the mutable window (the paper's design), or
* a **hash set** of tuple ids (the baseline the paper beats by 2-19x),

and intersected by the logical operator.  Slots are assigned in router
arrival order, so the two predicate PEs — which see the same tuples in the
same order — agree on bit positions without coordination.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..indexes.bptree import BPlusTree
from .arena import ArenaSlice, TupleArena
from .bitset import BitSet
from .matches import MatchBatch
from .pojoin_numpy import batch_probe_intervals
from .predicates import Predicate
from .query import QuerySpec
from .tuples import StreamTuple

__all__ = ["MutableComponent", "PartialResult", "extend_sorted_run"]

#: A per-predicate partial result: the paper's bit array, or the naive
#: baseline's hash table of matched tuples (id -> matched field value).
PartialResult = Union[BitSet, Dict[int, float]]


def extend_sorted_run(run: Optional[tuple], col: np.ndarray) -> tuple:
    """Bring an incremental sorted run up to date with ``col``.

    ``run`` is ``(values, slots, m)`` — the first ``m`` entries of an
    append-only column in (value, slot) order, i.e.
    ``np.argsort(col[:m], kind="stable")`` and the values it gathers —
    or ``None``.  Returns the same triple for all of ``col``.  New slots
    always sort after equal old values (their slots are larger), so the
    suffix appended since ``m`` is sorted on its own and merged in with
    one ``searchsorted`` and two scatters instead of a full argsort.
    NaNs sort last, in slot order, exactly where a stable argsort puts
    them.
    """
    n = len(col)
    if run is not None and run[2] == n:
        return run
    if run is None or run[2] == 0:
        slots = np.argsort(col, kind="stable")
        return col[slots], slots, n
    old_values, old_slots, m = run
    order = np.argsort(col[m:], kind="stable")
    new_values = col[m:][order]
    new_slots = order + m
    idx_new = np.searchsorted(old_values, new_values, side="right") + np.arange(
        n - m
    )
    values = np.empty(n, dtype=col.dtype)
    slots = np.empty(n, dtype=old_slots.dtype)
    old_mask = np.ones(n, dtype=bool)
    old_mask[idx_new] = False
    values[idx_new] = new_values
    slots[idx_new] = new_slots
    values[old_mask] = old_values
    slots[old_mask] = old_slots
    return values, slots, n


class MutableComponent:
    """``W_M`` for one stream.

    Parameters
    ----------
    query:
        The join query; one B+-tree is created per predicate.
    side:
        ``"left"`` when this component stores the query's left stream
        (``R``), ``"right"`` for the right stream (``S``).  Self joins use
        ``"left"``.
    evaluator:
        ``"bit"`` for the paper's bit-array intersection, ``"hash"`` for
        the hash-set baseline.
    """

    def __init__(
        self,
        query: QuerySpec,
        side: str = "left",
        evaluator: str = "bit",
        order: int = 64,
    ) -> None:
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if evaluator not in ("bit", "hash"):
            raise ValueError("evaluator must be 'bit' or 'hash'")
        self.query = query
        self.side = side
        self.evaluator = evaluator
        self.order = order
        self.trees: List[BPlusTree] = [
            BPlusTree(order) for __ in query.predicates
        ]
        self._arrival: List[int] = []  # slot -> tid, in router order
        #: Columnar shadow of the window, slot-aligned with ``_arrival``.
        #: The batched evaluator sorts its field columns instead of
        #: scanning tree leaves, and checkpoints read exact payloads
        #: (all fields, event times) from it.
        self.arena = TupleArena()
        # Per-predicate incremental sorted runs: (values, slots, n) in
        # the B+-tree's (value, slot) leaf order.  The window is append-
        # only between merges, so each evaluation sorts only the suffix
        # inserted since the last call and merges it in O(n) — instead
        # of a full argsort per micro-batch.
        self._sorted_cache: List[Optional[tuple]] = [
            None for __ in query.predicates
        ]

    # ------------------------------------------------------------------
    def _own_field(self, pred: Predicate) -> int:
        """Field of this side's stream indexed for ``pred``.

        In a self join the stored tuple always plays the predicate's
        *right* role (the probing tuple is the newer, left operand), so
        the index is built on ``right_field``; for cross joins the side
        decides.
        """
        if self.query.is_self_join:
            return pred.right_field
        return pred.left_field if self.side == "left" else pred.right_field

    @property
    def stored_is_left(self) -> bool:
        return self.side == "left"

    def __len__(self) -> int:
        return len(self._arrival)

    # ------------------------------------------------------------------
    def insert(self, t: StreamTuple) -> int:
        """Index a tuple into every field tree; returns its slot.

        The bit design stores the tuple's *slot* as the index payload —
        "the identifiers of the mutable window tuples act as index
        positions for the bit array" (Figure 4) — so a probe flips bits
        without any id-to-position lookup.  The hash baseline stores the
        tuple id, which its result hash table is keyed by.
        """
        slot = len(self._arrival)
        self._arrival.append(t.tid)
        self.arena.append_tuple(t)
        payload = slot if self.evaluator == "bit" else t.tid
        for pred, tree in zip(self.query.predicates, self.trees):
            value = t.values[self._own_field(pred)]
            # A NaN key can never satisfy a comparison, but inserting it
            # would corrupt the tree's ordering invariant (descents
            # compare against it and every comparison is false), sending
            # later real keys to the wrong leaves.  Keep it out of the
            # index; drain_runs re-attaches the NaN tail from the arena.
            if value == value:
                tree.insert(value, payload)
        return slot

    def insert_many(self, probes: ArenaSlice) -> None:
        """Bulk :meth:`insert`, preserving arrival (slot) order.

        Copies straight between columns — one vectorised copy per field
        — and feeds the trees from column values, never materialising
        per-tuple views.
        """
        start_slot = len(self._arrival)
        tids = probes.tids_list()
        self._arrival.extend(tids)
        self.arena.extend_slice(probes)
        bit = self.evaluator == "bit"
        for pred, tree in zip(self.query.predicates, self.trees):
            # .tolist() keeps the trees (and everything drained from
            # them) on pure-Python floats.
            col = probes.field_values(self._own_field(pred)).tolist()
            if bit:
                for i, v in enumerate(col):
                    if v == v:  # NaN keys stay out of the index
                        tree.insert(v, start_slot + i)
            else:
                for tid, v in zip(tids, col):
                    if v == v:
                        tree.insert(v, tid)

    # ------------------------------------------------------------------
    def _sorted_run(self, pred_pos: int) -> tuple:
        """``(values, slots)`` of the window in (value, slot) order.

        Equals ``np.argsort(column, kind="stable")`` — the B+-tree leaf
        order, duplicates tie-broken by slot — maintained incrementally
        by :func:`extend_sorted_run`.
        """
        n = len(self._arrival)
        cached = self._sorted_cache[pred_pos]
        if cached is None or cached[2] != n:
            col = self.arena.field(
                self._own_field(self.query.predicates[pred_pos])
            )
            cached = extend_sorted_run(cached, col)
            self._sorted_cache[pred_pos] = cached
        return cached[0], cached[1]

    # ------------------------------------------------------------------
    # Per-predicate probing (what one predicate PE computes)
    # ------------------------------------------------------------------
    def probe_predicate(
        self, pred_idx: int, probe: StreamTuple, probe_is_left: bool
    ) -> PartialResult:
        """Evaluate one predicate of ``probe`` against this window.

        Range-searches the field's B+-tree and flips the slot bit of every
        satisfying stored tuple (bit evaluator) or collects tuple ids into
        a set (hash evaluator).
        """
        pred = self.query.predicates[pred_idx]
        tree = self.trees[pred_idx]
        value = probe.values[pred.probing_field(probe_is_left)]
        if self.evaluator == "bit":
            bits = BitSet(len(self._arrival))
            if value != value:  # NaN probes match nothing
                return bits
            buf = bits._bytes  # inlined hot loop: one O(1) flip per match
            for lo, hi, lo_inc, hi_inc in pred.probe_bounds(value, probe_is_left):
                for stored, slot in tree.range_search(lo, hi, lo_inc, hi_inc):
                    if stored != stored:  # NaN stored never matches
                        continue
                    buf[slot >> 3] |= 1 << (slot & 7)
            return bits
        # The naive baseline of Section 2.4: a hash table of the result
        # set, keyed by tuple id and carrying the matched tuples' values —
        # the per-tuple hashing and boxing the paper calls expensive.
        matched: Dict[int, float] = {}
        if value != value:
            return matched
        for lo, hi, lo_inc, hi_inc in pred.probe_bounds(value, probe_is_left):
            for stored_value, tid in tree.range_search(lo, hi, lo_inc, hi_inc):
                if stored_value != stored_value:
                    continue
                matched[tid] = stored_value
        return matched

    # ------------------------------------------------------------------
    # Combined evaluation (local shortcut for single-process operators)
    # ------------------------------------------------------------------
    def evaluate(self, probe: StreamTuple, probe_is_left: bool) -> List[int]:
        """Probe every predicate and intersect the partial results."""
        partials = [
            self.probe_predicate(i, probe, probe_is_left)
            for i in range(len(self.query.predicates))
        ]
        tids = self.intersect(partials)
        if self.query.is_self_join:
            tids = [tid for tid in tids if tid != probe.tid]
        return tids

    def evaluate_batch(
        self,
        probes: ArenaSlice,
        flags: Sequence[bool],
        bounds: Optional[Sequence[int]] = None,
    ) -> MatchBatch:
        """Batched :meth:`evaluate`: one tree pass serves every probe.

        ``flags[i]`` is ``probe_is_left`` for ``probes[i]``.  ``bounds``
        restricts probe ``i``'s matches to stored slots ``< bounds[i]``
        (default: the whole window).  Slots are assigned in arrival
        order, so a caller that inserts a micro-batch *up front* can
        replay exact tuple-at-a-time semantics by bounding each probe to
        the window size at its own arrival — including self-exclusion in
        self joins, whose probing tuple sits exactly at its bound.

        The bit design vectorizes: each field tree is scanned once into
        sorted ``(value, slot)`` arrays, the whole batch's interval
        bounds come from one ``np.searchsorted`` per predicate, and the
        per-probe bit arrays (boolean rows reused across predicates) are
        ANDed in place; the set slots of all probes are gathered into
        tuple ids once.  The hash baseline has no slot order to exploit
        and falls back to per-probe :meth:`evaluate`.
        """
        n = len(self._arrival)
        num = len(probes)
        if bounds is None:
            bounds = [n] * num
        if len(flags) != num or len(bounds) != num:
            raise ValueError("probes, flags, and bounds must align")
        probe_tids = probes.tid_values()
        if self.evaluator != "bit":
            if any(b != n for b in bounds):
                raise ValueError(
                    "hash evaluator cannot bound probes by slot; "
                    "process tuples one at a time instead"
                )
            return MatchBatch.from_rows(
                probe_tids, [self.evaluate(t, f) for t, f in zip(probes, flags)]
            )
        if n == 0 or num == 0:
            return MatchBatch.empty(probe_tids)
        groups = []
        for flag in (True, False):
            idx = [j for j, f in enumerate(flags) if bool(f) == flag]
            if len(idx) == num:
                return self._evaluate_group(probes, bounds, flag)
            if idx:
                found = self._evaluate_group(
                    probes.take(idx), [bounds[j] for j in idx], flag
                )
                groups.append((idx, found))
        return MatchBatch.scatter(probe_tids, groups)

    def _evaluate_group(
        self, group: ArenaSlice, bounds: Sequence[int], flag: bool
    ) -> MatchBatch:
        n = len(self._arrival)
        g = len(group)
        cur = np.zeros((g, n), dtype=bool)
        row = np.empty(n, dtype=bool)
        for pred_pos, pred in enumerate(self.query.predicates):
            # The incrementally maintained (value, slot) run reproduces
            # the B+-tree's leaf order — duplicate keys tie-break by
            # insertion payload, which for the bit evaluator is the slot
            # — without a per-entry Python scan of the leaves.
            values, slots = self._sorted_run(pred_pos)
            pvals = group.field_values(pred.probing_field(flag))
            intervals = [
                (lo.tolist(), hi.tolist())
                for lo, hi in batch_probe_intervals(pred, pvals, values, flag)
            ]
            for j in range(g):
                if pred_pos == 0:
                    target = cur[j]
                else:
                    row[:] = False
                    target = row
                for los, his in intervals:
                    lo, hi = los[j], his[j]
                    if lo < hi:
                        target[slots[lo:hi]] = True
                if pred_pos > 0:
                    cur[j] &= row
        hits = [cur[j, : bounds[j]].nonzero()[0] for j in range(g)]
        matches = MatchBatch.from_counts(
            group.tid_values(),
            [len(hit) for hit in hits],
            self.arena.tid_column()[np.concatenate(hits)],
        )
        if self.query.is_self_join:
            matches = matches.select(matches.match_tids != matches.probe_column())
        return matches

    def intersect(self, partials: Sequence[PartialResult]) -> List[int]:
        """Logical AND across per-predicate partial results.

        Bit arrays combine word-parallel; hash-table partials pay an
        explicit membership walk over the smaller result set.
        """
        if not partials:
            return []
        first = partials[0]
        if isinstance(first, BitSet):
            combined = first
            for other in partials[1:]:
                combined = combined.intersect(other)  # type: ignore[arg-type]
            return [self._arrival[slot] for slot in combined.iter_set()]
        tables = sorted(partials, key=len)  # type: ignore[arg-type]
        smallest, rest = tables[0], tables[1:]
        result = []
        for tid in smallest:
            if all(tid in table for table in rest):
                result.append(tid)
        return sorted(result)

    # ------------------------------------------------------------------
    # Merge extraction
    # ------------------------------------------------------------------
    def drain_runs(self) -> List["SortedRun"]:
        """Extract one sorted run per field tree and reset the window.

        Each run is a linked-leaf scan (O(n), the data is already sorted);
        slot payloads are mapped back to tuple ids on the way out.  The
        mutable window starts empty for the next merge interval.
        """
        from ..indexes.sorted_run import SortedRun

        arrival = self._arrival
        runs = []
        tid_col = self.arena.tid_column()
        for pred_pos, (pred, tree) in enumerate(
            zip(self.query.predicates, self.trees)
        ):
            if self.evaluator == "bit" and len(arrival) > 0:
                # Columnar extraction: the incremental (value, slot) run
                # equals the leaf order (ties break by slot = arrival),
                # and the numpy arrays are cached on the run so the
                # vectorised immutable probe is copy-free.
                values_arr, order = self._sorted_run(pred_pos)
                tids_arr = tid_col[order]
                run = SortedRun(values_arr.tolist(), tids_arr.tolist())
                run.cache_arrays(values_arr, tids_arr)
                runs.append(run)
                continue
            if self.evaluator == "bit":
                entries = ((value, arrival[slot]) for value, slot in tree.items())
            else:
                entries = tree.items()
            run = SortedRun.from_sorted_entries(entries)
            if len(run) < len(arrival):
                # NaN-keyed tuples are not indexed (see insert); the run
                # must still carry them — positionally last, arrival
                # order, exactly where a stable numpy sort places NaN —
                # so per-run lengths and cross-run offsets stay aligned.
                col = self.arena.field(self._own_field(pred))
                for slot in range(len(arrival)):
                    v = col[slot]
                    if v != v:
                        run.values.append(float(v))
                        run.tids.append(arrival[slot])
            runs.append(run)
        self.trees = [BPlusTree(self.order) for __ in self.query.predicates]
        self._arrival = []
        self.arena = TupleArena(num_fields=self.arena.num_fields)
        self._sorted_cache = [None for __ in self.query.predicates]
        return runs

    def tids(self) -> List[int]:
        """Tuple ids currently held, in arrival order."""
        return list(self._arrival)

    # ------------------------------------------------------------------
    def memory_bits(self) -> int:
        """Sum of the field indexes' footprints (Equation 1's I_M)."""
        return sum(tree.memory_bits() for tree in self.trees)

    def payload_bits(self) -> int:
        """Columnar payload storage held by the window arena.

        Kept separate from :meth:`memory_bits` so Equation 1's
        index-footprint accounting (and every figure built on it) is
        unchanged by the columnar refactor.
        """
        return self.arena.memory_bits()
