"""Shard planning and the globally clocked shard router.

:func:`plan_shard_batches` splits one stamped columnar micro-batch into
per-shard :class:`~repro.parallel.wire.ShardBatch` sub-batches:

* every tuple is *stored* by the shard owning its partition-field value
  (the first predicate's stored field);
* every tuple *probes* exactly the shards its first-predicate interval
  can reach (:meth:`~repro.dspe.partitioning.RangeShards.probe_span`) —
  the range-pruning that replaces the baseline broadcast.

:class:`ShardRouterOperator` extends the stamping router with the
*global merge clock*: it advances the reference implementation's
merge-interval state per stamped tuple, cuts the micro-batch at every
firing (so no sub-batch spans a boundary), and broadcasts a
:class:`~repro.parallel.wire.MergeMarker` carrying the global interval
id right after the interval's final batch.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from ..core.arena import ArenaSlice
from ..core.predicates import BandPredicate, Op, Predicate
from ..core.query import QuerySpec
from ..core.window import MergePolicy, WindowKind, WindowSpec
from ..dspe.partitioning import RangeShards
from ..dspe.router import RouterOperator
from .balance import BalanceConfig, ShardLoadTracker
from .wire import MergeMarker, RepartitionMarker, ShardBatch

__all__ = ["ShardPrefilter", "plan_shard_batches", "ShardRouterOperator"]


class ShardPrefilter:
    """Router-side mirror of each shard's second-predicate value range.

    The router sees every store it routes, so it can maintain per-shard
    ``[lo, hi]`` bounds on the live second-predicate values — and drop a
    hopeless probe *before* paying to ship it.  A dropped probe is one
    the shard would have answered with ``[]``: the bounds always cover
    every value the shard still holds.

    Ranges are kept **per merge interval** and rebuilt at every
    boundary: the closed interval's range joins a bounded history and
    intervals the joiners have expired drop out, so the aggregate range
    tracks the live window instead of widening monotonically forever
    (which would silently decay the pruning win on long runs).  On a
    repartition the affected shards' ranges are re-based to the union
    over the affected set — tuple movement is closed within that set,
    so the union covers every migrated value.

    Each probe always keeps its *anchor* shard (the boundary shard of
    its first-predicate span) so that every stamped tuple produces at
    least one partial answer — the merge step's invariant.
    """

    __slots__ = (
        "pred",
        "num_shards",
        "lo",
        "hi",
        "cur_lo",
        "cur_hi",
        "history",
        "skipped",
    )

    def __init__(self, query: QuerySpec, shards: RangeShards) -> None:
        self.pred: Optional[Predicate] = None
        if len(query.predicates) == 2:
            pred = query.predicates[1]
            if isinstance(pred, BandPredicate) or pred.op in (
                Op.LT,
                Op.LE,
                Op.GT,
                Op.GE,
                Op.EQ,
            ):
                self.pred = pred
        n = shards.num_shards
        self.num_shards = n
        # Aggregate live range (current interval ∪ history) — what keep()
        # tests against.
        self.lo = np.full(n, np.inf)
        self.hi = np.full(n, -np.inf)
        # Current (open) merge interval's range.
        self.cur_lo = np.full(n, np.inf)
        self.cur_hi = np.full(n, -np.inf)
        # Closed intervals still inside the joiners' windows:
        # (interval_id, lo array, hi array).
        self.history: Deque[Tuple[int, np.ndarray, np.ndarray]] = deque()
        # Probe shipments suppressed by the range skip (telemetry).
        self.skipped = 0

    def note_stores(self, owner: np.ndarray, values: np.ndarray) -> None:
        """Widen current-interval and aggregate ranges with one batch."""
        if self.pred is None or not len(owner):
            return
        # A NaN-valued store can never satisfy the filter predicate, so
        # it must not enter the range — min/max would propagate the NaN
        # and poison keep() into skipping every probe for the shard.
        finite = ~np.isnan(values)
        if not finite.all():
            owner = owner[finite]
            values = values[finite]
            if not len(owner):
                return
        np.minimum.at(self.cur_lo, owner, values)
        np.maximum.at(self.cur_hi, owner, values)
        np.minimum.at(self.lo, owner, values)
        np.maximum.at(self.hi, owner, values)

    def _recompute_aggregate(self) -> None:
        lo = self.cur_lo.copy()
        hi = self.cur_hi.copy()
        for __, h_lo, h_hi in self.history:
            np.minimum(lo, h_lo, out=lo)
            np.maximum(hi, h_hi, out=hi)
        self.lo = lo
        self.hi = hi

    def on_boundary(self, boundary_id: int, keep_from: int) -> None:
        """Close interval ``boundary_id``; expire intervals the shard
        joiners just expired (ids below ``keep_from``)."""
        if self.pred is None:
            return
        self.history.append((boundary_id, self.cur_lo, self.cur_hi))
        self.cur_lo = np.full(self.num_shards, np.inf)
        self.cur_hi = np.full(self.num_shards, -np.inf)
        while self.history and self.history[0][0] < keep_from:
            self.history.popleft()
        self._recompute_aggregate()

    def on_repartition(self, affected: List[int]) -> None:
        """Re-base affected shards' ranges after a cut swap."""
        if self.pred is None:
            return
        idx = np.asarray(affected, dtype=np.int64)
        for lo, hi in [(self.cur_lo, self.cur_hi)] + [
            (h_lo, h_hi) for __, h_lo, h_hi in self.history
        ]:
            lo[idx] = lo[idx].min()
            hi[idx] = hi[idx].max()
        self._recompute_aggregate()

    def keep(self, shard: int, probe_values: np.ndarray) -> np.ndarray:
        """Boolean mask: can each probe still match inside ``shard``?"""
        pred = self.pred
        assert pred is not None
        lo, hi = self.lo[shard], self.hi[shard]
        if lo > hi:
            return np.zeros(len(probe_values), dtype=bool)
        if isinstance(pred, BandPredicate):
            if pred.inclusive:
                return (probe_values - pred.width <= hi) & (
                    probe_values + pred.width >= lo
                )
            return (probe_values - pred.width < hi) & (
                probe_values + pred.width > lo
            )
        if pred.op is Op.LT:  # needs stored > probe
            return probe_values < hi
        if pred.op is Op.LE:
            return probe_values <= hi
        if pred.op is Op.GT:  # needs stored < probe
            return probe_values > lo
        if pred.op is Op.GE:
            return probe_values >= lo
        return (probe_values >= lo) & (probe_values <= hi)  # EQ


def plan_shard_batches(
    batch: ArenaSlice,
    shards: RangeShards,
    query: QuerySpec,
    prefilter: Optional[ShardPrefilter] = None,
) -> List[ShardBatch]:
    """Split a stamped batch into per-shard store/probe sub-batches.

    Sub-batches preserve global arrival order; ``stores_before`` gives
    each probe the number of same-shard stores that precede it, from
    which the shard joiner reconstructs exact per-probe visibility.
    Shards receiving neither stores nor probes are omitted.

    With a ``prefilter``, probes that provably cannot match inside a
    shard (second-predicate range skip) are not sent there — except to
    their anchor shard, which every probe always visits so that it
    yields at least one partial record.
    """
    pred = query.predicates[0]
    store_values = batch.field_values(pred.right_field)
    probe_values = batch.field_values(pred.left_field)
    owner = shards.owner_of(store_values)
    span_lo, span_hi = shards.probe_span(pred, probe_values, True)
    filtering = prefilter is not None and prefilter.pred is not None
    if filtering:
        assert prefilter is not None
        prefilter.note_stores(owner, batch.field_values(prefilter.pred.right_field))
        anchor = np.clip(shards.owner_of(probe_values), span_lo, span_hi)
        filter_values = batch.field_values(prefilter.pred.left_field)
    out: List[ShardBatch] = []
    for shard in range(shards.num_shards):
        store_mask = owner == shard
        visits = (span_lo <= shard) & (shard <= span_hi)
        if filtering:
            assert prefilter is not None
            in_span = int(visits.sum())
            visits &= (anchor == shard) | prefilter.keep(shard, filter_values)
            prefilter.skipped += in_span - int(visits.sum())
        probe_pos = np.nonzero(visits)[0]
        store_pos = np.nonzero(store_mask)[0]
        if not len(probe_pos) and not len(store_pos):
            continue
        stores_seen = np.cumsum(store_mask)
        before = stores_seen[probe_pos] - store_mask[probe_pos]
        out.append(
            ShardBatch(
                shard,
                batch.take(probe_pos),
                batch.take(store_pos),
                before.tolist(),
            )
        )
    return out


class ShardRouterOperator(RouterOperator):
    """Stamping router + shard splitter + global merge clock.

    Emits :class:`ShardBatch` payloads on the ``"shards"`` stream
    (route with ``Grouping.direct(lambda b: b.shard)``) and
    :class:`MergeMarker` on the ``"control"`` stream (route with
    ``Grouping.broadcast()``).  Both executors deliver each
    router→shard-PE link FIFO, so a marker always arrives after its
    interval's batches — the consistent cut the exactness argument in
    :mod:`repro.parallel.spo_shard` relies on.

    The clock replicates :meth:`repro.core.spojoin.SPOJoin._scan_boundary`
    tuple for tuple: COUNT windows fire when the counter reaches the
    merge delta (the firing tuple closes the interval); TIME windows arm
    on the first event and fire when an event time passes the deadline.

    With ``balance`` set the router becomes *adaptive*: a
    :class:`~repro.parallel.balance.ShardLoadTracker` watches the store
    distribution and, at merge boundaries, may swap in new range cuts.
    The swap is atomic from the router's view — every batch flushed
    after the :class:`RepartitionMarker` is planned under the new cuts —
    and the marker follows the boundary's :class:`MergeMarker` on the
    same FIFO control stream, so the affected joiners apply it at the
    consistent cut where their mutable windows are empty.
    """

    # The base stamping router checkpoints; the shard router's control
    # plane (global merge clock, live cut swaps, in-flight migrations)
    # is deliberately not crash-safe yet, and neither are the shard
    # joiners — the sharded path runs without fault injection.
    checkpointable = False

    def __init__(
        self,
        query: QuerySpec,
        window: WindowSpec,
        shards: RangeShards,
        sub_intervals: int = 1,
        start_tid: int = 0,
        batch_size: int = 1,
        flush_timeout: Optional[float] = None,
        balance: Optional[BalanceConfig] = None,
    ) -> None:
        super().__init__(
            start_tid=start_tid,
            batch_size=batch_size,
            flush_timeout=flush_timeout,
            cut_fn=None,
        )
        self.query = query
        self.window = window
        self.shards = shards
        self.prefilter = ShardPrefilter(query, shards)
        self.policy = MergePolicy(window, sub_intervals)
        self.tracker: Optional[ShardLoadTracker] = None
        if balance is not None:
            self.tracker = ShardLoadTracker(
                shards, self.policy.max_batches, balance
            )
        self._merge_counter = 0.0
        self._next_merge_time: Optional[float] = None
        self._boundary_id = -1
        self._epoch = 0

    # ------------------------------------------------------------------
    def _advance_clock(self, tuple_) -> bool:
        if self.window.kind is WindowKind.COUNT:
            self._merge_counter += 1
            if self._merge_counter >= self.policy.delta:
                self._merge_counter = 0
                return True
            return False
        event_time = tuple_.event_time
        if self._next_merge_time is None:
            self._next_merge_time = event_time + self.policy.delta
            return False
        if event_time >= self._next_merge_time:
            self._next_merge_time += self.policy.delta
            return True
        return False

    # ------------------------------------------------------------------
    def process(self, payload, ctx) -> None:
        # Always the buffered path (even at batch_size=1): the shard
        # split needs the arena's column views.
        tuple_ = self._stamp_into_batch(payload, ctx)
        fired = self._advance_clock(tuple_)
        if fired or self._buffered() >= self.batch_size:
            self._flush_buffer(ctx)
        if fired:
            # The marker closes the interval *including* the firing
            # tuple, which the flush above has already shipped.
            self._boundary_id += 1
            ctx.emit(MergeMarker(self._boundary_id), stream="control")
            keep_from = self._boundary_id - self.policy.max_batches + 1
            self.prefilter.on_boundary(self._boundary_id, keep_from)
            if self.tracker is not None:
                decision = self.tracker.on_boundary(self._boundary_id)
                if decision is not None:
                    self._repartition(decision, ctx)

    def _repartition(self, decision, ctx) -> None:
        """Atomically swap in new cuts and tell the affected joiners.

        The :class:`RepartitionMarker` rides the FIFO control stream
        right behind this boundary's :class:`MergeMarker`, so every
        affected joiner sees it exactly at the consistent cut; every
        batch the router flushes afterwards is planned under the new
        cuts, so nothing is ever routed under a mix of partitions.
        """
        assert self.tracker is not None
        new_shards = self.shards.with_cuts(decision.new_cuts)
        self._epoch += 1
        ctx.emit(
            RepartitionMarker(
                self._epoch,
                self._boundary_id,
                decision.new_cuts,
                decision.affected,
                decision.splits,
                decision.merges,
            ),
            stream="control",
        )
        self.shards = new_shards
        self.tracker.apply(new_shards)
        self.prefilter.on_repartition(decision.affected)
        ctx.record(
            "repartition",
            {
                "epoch": self._epoch,
                "boundary_id": self._boundary_id,
                "new_cuts": decision.new_cuts,
                "affected": decision.affected,
                "splits": decision.splits,
                "merges": decision.merges,
                "estimate": decision.estimate,
            },
        )

    def _flush_buffer(self, ctx) -> None:
        if not self._buffered():
            return
        if ctx.observing:
            ctx.observe_event(
                "router_flush",
                tuples=self._buffered(),
                opened=self._buffer_opened,
            )
        assert self._arena is not None
        batch = self._arena.slice()
        if self.tracker is not None:
            self.tracker.note_stores(
                batch.field_values(self.query.predicates[0].right_field)
            )
        for shard_batch in plan_shard_batches(
            batch, self.shards, self.query, self.prefilter
        ):
            ctx.emit(shard_batch, stream="shards")
        self._arena = None
        self._buffer_origins = []
        self._buffer_opened = None
