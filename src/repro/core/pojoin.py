"""The immutable PO-Join component: probe and linked-list evaluation.

A PO-Join batch is the frozen output of one merge interval: sorted runs of
every predicate field, the permutation array linking them, and the offset
arrays between opposite streams.  Probing a new tuple (Figure 5 of the
paper) is:

1. initialise an empty bit array over the stored side's first-field order;
2. locate the probe's second-field value in the stored second-field run
   (binary search, optionally seeded by the offset arrays) and set bits
   through the permutation array for every satisfying position;
3. locate the probe's first-field value in the first-field run and scan
   the satisfying bit-array region — set bits are the matches.

The :class:`POJoinList` wraps the linked list of batches a PO-Join PE
holds and implements Algorithm 4's multi-threaded evaluation as a
list-scheduling cost model (threads pull batch indexes under a lock).
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from .arena import ArenaSlice
from .bitset import BitSet
from .immutable import scalar_probe_batch
from .matches import MatchBatch
from .merge import MergeBatch, MergeSide
from .query import QuerySpec
from .tuples import StreamTuple

__all__ = ["BatchProbeOutcome", "POJoinBatch", "POJoinList", "ProbeOutcome"]


class POJoinBatch:
    """A probe-ready immutable batch wrapping a :class:`MergeBatch`."""

    __slots__ = ("query", "batch", "use_offsets")

    def __init__(
        self, query: QuerySpec, batch: MergeBatch, use_offsets: bool = True
    ) -> None:
        self.query = query
        self.batch = batch
        self.use_offsets = use_offsets

    # ------------------------------------------------------------------
    @property
    def batch_id(self) -> int:
        return self.batch.batch_id

    def __len__(self) -> int:
        return len(self.batch)

    def memory_bits(self) -> int:
        return self.batch.memory_bits()

    def index_overhead_bits(self) -> int:
        """Equation 2: permutation + offset arrays (the runs are the data)."""
        return self.batch.index_overhead_bits()

    # ------------------------------------------------------------------
    def probe(self, probe: StreamTuple, probe_is_left: bool) -> List[int]:
        """Tuple ids stored in this batch that join with ``probe``.

        One predicate: a single sorted-run slice.  Two predicates: the
        Figure-5 permutation/offset probe.  Three or more: the first two
        predicates run through the PO machinery and the rest are applied
        as residual filters over its (already small) match set.
        """
        stored = self.batch.side(probe_is_left)
        if len(stored) == 0:
            return []
        if self.query.num_predicates == 1:
            return self._probe_single(probe, probe_is_left, stored)
        matches = self._probe_two(probe, probe_is_left, stored)
        if self.query.num_predicates > 2:
            matches = self._apply_residuals(probe, probe_is_left, stored, matches)
        return matches

    def probe_batch(
        self, probes: ArenaSlice, flags: Sequence[bool]
    ) -> MatchBatch:
        """Matches of a micro-batch; the scalar batch probes one at a time."""
        return MatchBatch.from_rows(
            probes.tid_values(), scalar_probe_batch(self, probes, flags)
        )

    def _apply_residuals(
        self,
        probe: StreamTuple,
        probe_is_left: bool,
        stored: "MergeSide",
        matches: List[int],
    ) -> List[int]:
        for pred_idx in range(2, self.query.num_predicates):
            if not matches:
                return matches
            pred = self.query.predicates[pred_idx]
            probe_value = probe.values[pred.probing_field(probe_is_left)]
            values = stored.values_of(pred_idx)
            if probe_is_left:
                matches = [
                    tid for tid in matches if pred.holds(probe_value, values[tid])
                ]
            else:
                matches = [
                    tid for tid in matches if pred.holds(values[tid], probe_value)
                ]
        return matches

    def _probe_single(
        self, probe: StreamTuple, probe_is_left: bool, stored: MergeSide
    ) -> List[int]:
        pred = self.query.predicates[0]
        run = stored.runs[0]
        value = probe.values[pred.probing_field(probe_is_left)]
        matches: List[int] = []
        for lo, hi in pred.probe_intervals(value, run.values, probe_is_left):
            matches.extend(run.tids[lo:hi])
        return matches

    def _probe_two(
        self, probe: StreamTuple, probe_is_left: bool, stored: MergeSide
    ) -> List[int]:
        p1, p2 = self.query.predicates[:2]
        run_a, run_b = stored.runs[0], stored.runs[1]
        permutation = stored.permutation
        assert permutation is not None
        bits = BitSet(len(run_a))
        v2 = probe.values[p2.probing_field(probe_is_left)]
        for lo, hi in self._intervals(
            p2, 1, v2, run_b, probe_is_left
        ):
            for j in range(lo, hi):
                bits.set(permutation[j])
        v1 = probe.values[p1.probing_field(probe_is_left)]
        matches: List[int] = []
        for lo, hi in self._intervals(p1, 0, v1, run_a, probe_is_left):
            matches.extend(run_a.tids[pos] for pos in bits.iter_set(lo, hi))
        return matches

    # ------------------------------------------------------------------
    def _intervals(
        self,
        pred,
        pred_idx: int,
        value: float,
        run,
        probe_is_left: bool,
    ) -> List[Tuple[int, int]]:
        """Satisfying position intervals in ``run`` for the probe value.

        With ``use_offsets`` and a two-sided batch the search is seeded the
        paper's way: binary search the probe value among the *probing*
        stream's merged keys, follow that entry's offset into the stored
        run, and refine locally between the bracketing offsets.  Without
        offsets (or for one-sided batches) it is a direct binary search —
        the two produce identical intervals, which the property tests
        assert.
        """
        if self.use_offsets and self.batch.is_two_sided:
            seeded = self._intervals_via_offsets(
                pred, pred_idx, value, run, probe_is_left
            )
            if seeded is not None:
                return seeded
        return pred.probe_intervals(value, run.values, probe_is_left)

    def _intervals_via_offsets(
        self,
        pred,
        pred_idx: int,
        value: float,
        run,
        probe_is_left: bool,
    ) -> Optional[List[Tuple[int, int]]]:
        direction = "lr" if probe_is_left else "rl"
        key = (pred_idx, direction)
        if key not in self.batch.offsets:
            return None
        own_side = self.batch.left if probe_is_left else self.batch.right
        assert own_side is not None
        own_values = own_side.runs[pred_idx].values
        if not own_values:
            return None
        offsets = self.batch.offsets[key]
        # Bracket the probe value between two of our own merged keys:
        # offsets[i] = first stored position >= own_values[i] (Alg. 3), so
        # the key at or below the probe bounds the left edge and the first
        # key strictly above it bounds the right edge.
        pos_l = bisect_left(own_values, value)
        pos_r = bisect_right(own_values, value)
        lo_bound = offsets[pos_l - 1] if pos_l > 0 else 0
        hi_bound = offsets[pos_r] if pos_r < len(offsets) else len(run.values)
        # Local refinement inside [lo_bound, hi_bound].
        left_edge = bisect_left(run.values, value, lo_bound, hi_bound)
        right_edge = bisect_right(run.values, value, lo_bound, hi_bound)
        return self._intervals_from_edges(
            pred, value, run, probe_is_left, left_edge, right_edge
        )

    @staticmethod
    def _intervals_from_edges(
        pred, value, run, probe_is_left, left_edge, right_edge
    ) -> Optional[List[Tuple[int, int]]]:
        from .predicates import BandPredicate, Op, Predicate

        if isinstance(pred, BandPredicate):
            return None  # band bounds differ from the raw value's edges
        n = len(run.values)
        op = pred.op if probe_is_left else pred.op.flipped
        if op is Op.LT:
            return [(right_edge, n)]
        if op is Op.LE:
            return [(left_edge, n)]
        if op is Op.GT:
            return [(0, left_edge)]
        if op is Op.GE:
            return [(0, right_edge)]
        if op is Op.EQ:
            return [(left_edge, right_edge)]
        return [(0, left_edge), (right_edge, n)]


class ProbeOutcome:
    """Result of evaluating one tuple against a linked PO-Join list."""

    __slots__ = ("matches", "total_cost", "makespan", "batches_probed")

    def __init__(
        self,
        matches: List[int],
        total_cost: float,
        makespan: float,
        batches_probed: int,
    ) -> None:
        self.matches = matches
        self.total_cost = total_cost
        self.makespan = makespan
        self.batches_probed = batches_probed


class POJoinList:
    """Linked list of immutable batches held by one PO-Join PE.

    Evaluation follows Algorithm 4: worker threads repeatedly lock the
    shared index, claim the next batch, and probe it.  In this simulator
    the claim order is the list order and the *makespan* over
    ``num_threads`` workers models the parallel wall time (latency), while
    ``total_cost`` models aggregate work.
    """

    def __init__(self, query: QuerySpec, max_batches: Optional[int] = None) -> None:
        self.query = query
        self.max_batches = max_batches
        self.batches: Deque[POJoinBatch] = deque()
        self.expired_batches = 0

    # ------------------------------------------------------------------
    def append(self, batch: POJoinBatch) -> None:
        """Link a freshly merged batch; expire the oldest beyond capacity.

        Expiry is coarse grained, as in the chain index: the whole oldest
        batch (one merge interval's tuples) is dropped at once.
        """
        self.batches.append(batch)
        if self.max_batches is not None:
            while len(self.batches) > self.max_batches:
                self.expire_oldest()

    def expire_oldest(self) -> Optional[POJoinBatch]:
        if not self.batches:
            return None
        self.expired_batches += 1
        return self.batches.popleft()

    def expire_before(self, batch_id: int) -> int:
        """Expire every batch whose ``batch_id`` is below ``batch_id``.

        Identifier-based expiry for externally clocked lists (the
        range-sharded parallel path): a shard skips merges for intervals
        in which it stored nothing, so its list can hold *fewer* batches
        than the global window while batch identifiers stay globally
        assigned.  Dropping by identifier instead of count keeps each
        shard's retained set exactly the global window's retained
        interval ids intersected with the shard's non-empty intervals.
        Relies on ids being appended in increasing order (they are: the
        merge clock hands them out monotonically).  Returns the number
        of batches dropped.
        """
        dropped = 0
        while self.batches and self.batches[0].batch_id < batch_id:
            self.batches.popleft()
            self.expired_batches += 1
            dropped += 1
        return dropped

    def __len__(self) -> int:
        return len(self.batches)

    def total_tuples(self) -> int:
        return sum(len(b) for b in self.batches)

    def memory_bits(self) -> int:
        return sum(b.memory_bits() for b in self.batches)

    def index_overhead_bits(self) -> int:
        return sum(
            getattr(b, "index_overhead_bits", b.memory_bits)()
            for b in self.batches
        )

    # ------------------------------------------------------------------
    def probe_all(
        self,
        probe: StreamTuple,
        probe_is_left: bool,
        num_threads: int = 1,
        batch_id_lt: Optional[int] = None,
    ) -> ProbeOutcome:
        """Probe every linked batch (Algorithm 4).

        ``batch_id_lt`` restricts the probe to batches merged before the
        probing tuple entered the stream — used when draining tuples that
        were queued across a merge boundary.
        """
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        matches: List[int] = []
        costs: List[float] = []
        for batch in self.batches:
            if batch_id_lt is not None and batch.batch_id >= batch_id_lt:
                continue
            start = time.perf_counter()  # repro: allow-wallclock
            matches.extend(batch.probe(probe, probe_is_left))
            costs.append(time.perf_counter() - start)  # repro: allow-wallclock
        makespan = _list_schedule_makespan(costs, num_threads)
        return ProbeOutcome(matches, sum(costs), makespan, len(costs))

    def probe_all_batch(
        self,
        probes: ArenaSlice,
        flags: Sequence[bool],
        num_threads: int = 1,
        batch_id_lt: Optional[int] = None,
    ) -> "BatchProbeOutcome":
        """Probe a micro-batch of tuples against every linked batch.

        Each immutable batch is probed once for the whole micro-batch
        through its ``probe_batch``, so its cost — and the two
        ``perf_counter`` calls timing it — is paid once per batch of
        tuples instead of once per tuple.  The outcome keeps one
        :class:`MatchBatch` per batch probed (``parts``, list order) so a
        caller with matches of its own to put first interleaves once;
        row ``i`` of its ``matches`` equals
        ``probe_all(probes[i], flags[i], ...).matches``.
        """
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        parts: List[MatchBatch] = []
        costs: List[float] = []
        for batch in self.batches:
            if batch_id_lt is not None and batch.batch_id >= batch_id_lt:
                continue
            start = time.perf_counter()  # repro: allow-wallclock
            parts.append(batch.probe_batch(probes, flags))
            costs.append(time.perf_counter() - start)  # repro: allow-wallclock
        if not parts:
            parts.append(MatchBatch.empty(probes.tid_values()))
        makespan = _list_schedule_makespan(costs, num_threads)
        return BatchProbeOutcome(parts, sum(costs), makespan, len(costs))


class BatchProbeOutcome:
    """Result of evaluating a micro-batch against a linked PO-Join list."""

    __slots__ = ("parts", "total_cost", "makespan", "batches_probed")

    def __init__(
        self,
        parts: List[MatchBatch],
        total_cost: float,
        makespan: float,
        batches_probed: int,
    ) -> None:
        #: One result per batch probed, all over the same probes, in
        #: list order (a single empty one when no batch was probed).
        self.parts = parts
        self.total_cost = total_cost
        self.makespan = makespan
        self.batches_probed = batches_probed

    @property
    def matches(self) -> MatchBatch:
        """The parts interleaved: every probe's matches across the list."""
        return MatchBatch.interleave(self.parts)


def _list_schedule_makespan(costs: List[float], num_threads: int) -> float:
    """Makespan of in-order list scheduling onto ``num_threads`` workers.

    Models Algorithm 4's lock-protected index claiming: each idle thread
    takes the next batch in list order.
    """
    if not costs:
        return 0.0
    finish = [0.0] * min(num_threads, len(costs))
    for cost in costs:
        worker = min(range(len(finish)), key=finish.__getitem__)
        finish[worker] += cost
    return max(finish)
