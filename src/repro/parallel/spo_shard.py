"""Range-sharded SPO-Join: shared-nothing state behind a global clock.

One :class:`ShardSPOJoin` instance owns the mutable B+-trees and the
immutable PO-Join list for a single value-range shard of the window
(see :class:`~repro.dspe.partitioning.RangeShards`).  The shard router
splits every stamped micro-batch into per-shard sub-batches (stored
tuples go to their owner shard; probes visit only the shards their
first-predicate interval can reach) and broadcasts a
:class:`~repro.parallel.wire.MergeMarker` at every global
merge-boundary firing, so all shards cut their merge intervals at the
same global positions the single-process reference does.

Exactness argument (the determinism contract):

* *Visibility* — a probe's bound inside a sub-batch is
  ``pre-batch window size + stores that arrived before it``, which is
  precisely the reference's tuple-at-a-time bound restricted to this
  shard; markers arrive FIFO after the interval's batches, so immutable
  lists freeze at the same global positions.
* *Completeness* — every stored tuple satisfying the first predicate
  lies in a shard the probe visits (probe spans never
  under-approximate), and shard evaluation applies all predicates
  exactly, so the union of per-shard match sets over the visited shards
  equals the reference match set; ownership is a partition, so the
  union is disjoint.
* *Expiry* — markers carry global interval ids; each shard merges its
  (possibly empty) interval under the global id and drops ids that left
  the window (:meth:`~repro.core.pojoin.POJoinList.expire_before`), so
  the retained stored set is the reference's, intersected with the
  shard.

Each shard batch's partial match lists are recorded as one
``partial_batch`` record; :func:`reduce_sharded_result` merges them into
the canonical
one-record-per-tuple ``result`` stream, after which fingerprints compare
bit-identically with the simulated single-process run.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.arena import ArenaSlice
from ..core.checkpoint import batch_from_state, batch_state, component_tuples
from ..core.immutable import get_backend
from ..core.matches import MatchBatch
from ..core.merge import MergeBatch, _side_from_runs, build_merge_batch_from_runs
from ..core.mutable import MutableComponent
from ..core.pojoin import POJoinList
from ..core.predicates import BandPredicate, Op, Predicate
from ..core.query import QuerySpec
from ..core.spojoin import JoinStats
from ..core.tuples import StreamTuple
from ..core.window import MergePolicy, WindowSpec
from ..dspe.engine import Record, RunResult
from ..dspe.partitioning import RangeShards
from ..dspe.topology import Operator
from ..indexes.sorted_run import SortedRun
from .wire import MergeMarker, MigrateIn, RepartitionMarker, ShardBatch

__all__ = [
    "ShardSPOJoin",
    "ShardSPOJoinOperator",
    "merge_partial_records",
    "reduce_sharded_result",
    "reslice_exports",
]


class ShardSPOJoin:
    """One shard's two-tier SPO state, clocked by global merge markers.

    Unlike :class:`~repro.core.spojoin.SPOJoin` this class never fires
    the merge clock itself: boundaries are injected via
    :meth:`on_boundary` with globally assigned interval ids.  Self-join
    queries only (one mutable window, probes always play the left
    predicate role) — the scope of the range-sharded path.
    """

    def __init__(
        self,
        query: QuerySpec,
        window: WindowSpec,
        sub_intervals: int = 1,
        evaluator: str = "bit",
        use_offsets: bool = True,
        bptree_order: int = 64,
        covered_shortcut: bool = True,
    ) -> None:
        if not query.is_self_join:
            raise ValueError(
                "range-sharded SPO-Join supports self-join queries only "
                "(single mutable window); got a cross/two-stream query"
            )
        if evaluator != "bit":
            raise ValueError(
                "range-sharded SPO-Join requires the 'bit' evaluator "
                "(slot-bounded batched evaluation)"
            )
        self.query = query
        self.window = window
        self.policy = MergePolicy(window, sub_intervals)
        self.mutable = MutableComponent(
            query, side="left", evaluator=evaluator, order=bptree_order
        )
        # Count-based expiry stays off: shards may skip empty intervals,
        # so retention is by global interval id (expire_before).
        self.immutable = POJoinList(query, max_batches=None)
        self.batch_factory = get_backend("memory").batch_factory(
            use_offsets=use_offsets, covered_shortcut=covered_shortcut
        )
        self.stats = JoinStats()
        #: Probes skipped by the second-predicate min/max prefilter.
        self.prefiltered_probes = 0
        # Live value range of the second predicate's stored field.  It
        # widens incrementally within a merge interval (exact: nothing
        # expires mid-interval) and is recomputed from the live
        # immutable runs at every boundary, after expiry — so it tracks
        # the window instead of widening monotonically forever, and it
        # is rebuilt exactly after state migration.
        self._filter_pred = self._build_prefilter()
        self._f_lo = math.inf
        self._f_hi = -math.inf

    def _build_prefilter(self) -> Optional[Predicate]:
        """The second predicate, if its shape supports range skipping.

        The shard router prunes probe targets with the *first* predicate
        (the partitioning dimension); within a visited shard the second
        predicate can rule out a probe in O(1) against the shard's stored
        value range.  Single-interval shapes only — NE's complement
        intervals can never be empty.
        """
        if len(self.query.predicates) != 2:
            return None
        pred = self.query.predicates[1]
        if isinstance(pred, BandPredicate):
            return pred
        if pred.op in (Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ):
            return pred
        return None

    def _prefilter_positions(
        self, probes: ArenaSlice
    ) -> Optional[List[int]]:
        """Positions of probes that may still match, or None for "all".

        A probe survives iff the stored-value range ``[f_lo, f_hi]`` of
        this shard can contain a second-predicate partner for it.  With
        nothing ever stored the range is empty and nothing survives.
        """
        pred = self._filter_pred
        if pred is None:
            return None
        if self._f_lo > self._f_hi:
            return []
        pvals = probes.field_values(pred.left_field)
        if isinstance(pred, BandPredicate):
            if pred.inclusive:
                keep = (pvals - pred.width <= self._f_hi) & (
                    pvals + pred.width >= self._f_lo
                )
            else:
                keep = (pvals - pred.width < self._f_hi) & (
                    pvals + pred.width > self._f_lo
                )
        elif pred.op is Op.LT:  # needs stored > probe
            keep = pvals < self._f_hi
        elif pred.op is Op.LE:
            keep = pvals <= self._f_hi
        elif pred.op is Op.GT:  # needs stored < probe
            keep = pvals > self._f_lo
        elif pred.op is Op.GE:
            keep = pvals >= self._f_lo
        else:  # EQ
            keep = (pvals >= self._f_lo) & (pvals <= self._f_hi)
        if keep.all():
            return None
        return np.nonzero(keep)[0].tolist()

    # ------------------------------------------------------------------
    def process_shard_batch(
        self,
        probes: ArenaSlice,
        stores: ArenaSlice,
        stores_before: Sequence[int],
    ) -> List[Tuple[int, List[int], float]]:
        """Insert this shard's stores, answer this shard's probes.

        Returns ``(tid, partial matches, event_time)`` per probe.  The
        sub-batch never spans a merge boundary (the router cuts there),
        so the immutable list is frozen throughout and the mutable
        window only grows; ``stores_before`` restores per-probe
        visibility exactly as the reference's slot bounds do.
        """
        pre = len(self.mutable)
        if len(stores):
            self.mutable.insert_many(stores)
            if self._filter_pred is not None:
                vals = stores.field_values(self._filter_pred.right_field)
                # NaN stores can never match; keep them out of the range
                # (a NaN min/max would freeze or poison the bounds).
                real = vals[~np.isnan(vals)]
                if len(real):
                    lo = float(real.min())
                    hi = float(real.max())
                    if lo < self._f_lo:
                        self._f_lo = lo
                    if hi > self._f_hi:
                        self._f_hi = hi
        n = len(probes)
        if not n:
            return []
        matches: List[List[int]] = [[] for __ in range(n)]
        kept = self._prefilter_positions(probes)
        if kept is None:
            positions: Sequence[int] = range(n)
            group = probes
            bounds = [pre + c for c in stores_before]
        else:
            self.prefiltered_probes += n - len(kept)
            positions = kept
            group = probes.take(kept)
            bounds = [pre + stores_before[i] for i in kept]
        if len(bounds):
            flags = [True] * len(bounds)
            mutable = self.mutable.evaluate_batch(group, flags, bounds)
            immutable = self.immutable.probe_all_batch(group, flags)
            answers = MatchBatch.interleave([mutable, *immutable.parts])
            self.stats.mutable_matches += len(mutable)
            self.stats.immutable_matches += len(answers) - len(mutable)
            # The record boundary: one list conversion per sub-batch.
            for pos, row in zip(positions, answers.rows()):
                matches[pos] = row
        results: List[Tuple[int, List[int], float]] = []
        for tid, event_time, found in zip(
            probes.tids_list(), probes.event_time_values().tolist(), matches
        ):
            self.stats.tuples_processed += 1
            self.stats.matches_emitted += len(found)
            results.append((tid, found, event_time))
        return results

    def on_boundary(self, boundary_id: int) -> None:
        """Close global merge interval ``boundary_id``.

        Merges this shard's mutable window (if it stored anything this
        interval) under the *global* interval id, then expires every
        immutable batch whose id has left the sliding window — the
        count-based retention of the reference expressed in id space.
        """
        if len(self.mutable):
            left_runs = self.mutable.drain_runs()
            merge_batch = build_merge_batch_from_runs(
                boundary_id, self.query, left_runs, None
            )
            self.immutable.append(self.batch_factory(self.query, merge_batch))
            self.stats.merges += 1
        before = self.immutable.expired_batches
        self.immutable.expire_before(
            boundary_id - self.policy.max_batches + 1
        )
        self.stats.expired_batches += (
            self.immutable.expired_batches - before
        )
        self._recompute_filter_range()

    # ------------------------------------------------------------------
    # State migration.  Only ever invoked at a merge boundary, where the
    # mutable window is empty (``on_boundary`` drained it), so the
    # shard's complete partitioned state is exactly its live immutable
    # merge batches — self-contained (values + tids per sorted run) and
    # already expressible in the checkpoint wire format.
    def export_immutable(self) -> List[dict]:
        """Serialize every live immutable batch as plain data."""
        assert len(self.mutable) == 0, "export requires a drained window"
        return [batch_state(batch.batch) for batch in self.immutable.batches]

    def clear_immutable(self) -> None:
        """Drop all immutable state (it now lives with the coordinator)."""
        self.immutable.batches.clear()
        self._recompute_filter_range()

    def import_immutable(self, batch_states: Sequence[dict]) -> None:
        """Adopt re-sliced immutable state, ascending by interval id."""
        assert len(self.immutable) == 0, "import into a cleared shard only"
        for state in sorted(batch_states, key=lambda s: s["batch_id"]):
            merge_batch = batch_from_state(state)
            self.immutable.append(self.batch_factory(self.query, merge_batch))
        self._recompute_filter_range()

    def _recompute_filter_range(self) -> None:
        """Exact ``[f_lo, f_hi]`` over the live stored values.

        Called with an empty mutable window (boundaries, migration), so
        the live values are exactly the immutable runs; run 1 sorts by
        the filter predicate's field, making min/max O(1) per batch.
        """
        if self._filter_pred is None:
            return
        lo = math.inf
        hi = -math.inf
        for batch in self.immutable.batches:
            values = batch.batch.left.runs[1].values
            if not len(values):
                continue
            v_lo, v_hi = float(values[0]), float(values[-1])
            if math.isnan(v_lo) or math.isnan(v_hi):
                # NaN stored values sort unpredictably (all comparisons
                # are false) and can never match anything; take the real
                # extrema so the range stays exact for real values.
                arr = np.asarray(values, dtype=np.float64)
                if np.isnan(arr).all():
                    continue
                v_lo = float(np.nanmin(arr))
                v_hi = float(np.nanmax(arr))
            lo = min(lo, v_lo)
            hi = max(hi, v_hi)
        self._f_lo = lo
        self._f_hi = hi

    # ------------------------------------------------------------------
    # Checkpointing.  Unlike migration (boundary-only, immutable-only),
    # a supervisor checkpoint can land between boundaries, so the
    # snapshot also carries the live mutable window and the prefilter
    # range — everything a fresh shard needs to continue bit-exactly.
    def state(self) -> dict:
        """Snapshot this shard's complete two-tier state as plain data."""
        return {
            "mutable": component_tuples(self.mutable),
            "immutable": [
                batch_state(batch.batch) for batch in self.immutable.batches
            ],
            "expired_batches": self.immutable.expired_batches,
            "prefiltered_probes": self.prefiltered_probes,
            "f_lo": self._f_lo,
            "f_hi": self._f_hi,
            "stats": {
                "tuples_processed": self.stats.tuples_processed,
                "matches_emitted": self.stats.matches_emitted,
                "merges": self.stats.merges,
                "expired_batches": self.stats.expired_batches,
                "mutable_matches": self.stats.mutable_matches,
                "immutable_matches": self.stats.immutable_matches,
            },
        }

    def restore_from(self, state: dict) -> None:
        """Rebuild from a :meth:`state` snapshot (fresh instance only)."""
        assert len(self.mutable) == 0 and len(self.immutable) == 0, (
            "restore_from requires a freshly constructed shard"
        )
        for entry in state["mutable"]:
            self.mutable.insert(
                StreamTuple(
                    entry["tid"],
                    entry["stream"],
                    entry["values"],
                    entry["event_time"],
                )
            )
        for batch in state["immutable"]:
            self.immutable.append(
                self.batch_factory(self.query, batch_from_state(batch))
            )
        self.immutable.expired_batches = state["expired_batches"]
        self.prefiltered_probes = state["prefiltered_probes"]
        # The snapshot's range covers the mutable window too, so restore
        # it verbatim instead of recomputing from the immutable runs.
        self._f_lo = state["f_lo"]
        self._f_hi = state["f_hi"]
        stats = state["stats"]
        self.stats.tuples_processed = stats["tuples_processed"]
        self.stats.matches_emitted = stats["matches_emitted"]
        self.stats.merges = stats["merges"]
        self.stats.expired_batches = stats["expired_batches"]
        self.stats.mutable_matches = stats["mutable_matches"]
        self.stats.immutable_matches = stats["immutable_matches"]

    # ------------------------------------------------------------------
    def mutable_size(self) -> int:
        return len(self.mutable)

    def immutable_size(self) -> int:
        return self.immutable.total_tuples()

    def memory_bits(self) -> int:
        return self.mutable.memory_bits() + self.immutable.memory_bits()


class ShardSPOJoinOperator(Operator):
    """Joiner PE hosting one shard of the range-sharded SPO-Join.

    Runs identically on the simulated engine and as a worker-process PE
    under the parallel executor (the input protocol — shard batches
    interleaved with merge markers on a FIFO link — is the same).
    Emits one ``partial_batch`` record per shard sub-batch it answers.

    Migration protocol (adaptive repartitioning): on a
    :class:`RepartitionMarker` naming this shard as affected, the
    joiner exports its immutable state via ``ctx.migrate_out`` (the
    mutable window is empty — the boundary's merge marker, FIFO-ordered
    just before, drained it), clears it, and *buffers* every subsequent
    payload until the coordinator's :class:`MigrateIn` delivers the
    re-sliced state this shard owns under the new cuts; the buffer then
    replays in arrival order.  Unaffected shards are untouched — their
    tuple sets are identical under both partitions.

    Checkpointable: the worker supervisor snapshots the shard at merge
    boundaries and after a crash restores a fresh instance from the
    last snapshot plus a replay of the logged deliveries.
    :meth:`checkpoint_ready` defers snapshots while a migration is in
    flight — the shard's state is then split between the executor's
    migration board and the held-payload buffer, and only becomes
    self-contained again once ``MigrateIn`` lands.
    """

    checkpointable = True

    def __init__(
        self,
        query: QuerySpec,
        window: WindowSpec,
        sub_intervals: int = 1,
        evaluator: str = "bit",
        use_offsets: bool = True,
        bptree_order: int = 64,
        covered_shortcut: bool = True,
    ) -> None:
        self.join = ShardSPOJoin(
            query,
            window,
            sub_intervals=sub_intervals,
            evaluator=evaluator,
            use_offsets=use_offsets,
            bptree_order=bptree_order,
            covered_shortcut=covered_shortcut,
        )
        self._migrating_epoch: Optional[int] = None
        self._held: List = []
        #: Completed migrations / tuples shipped out / tuples adopted.
        self.migrations = 0
        self.migrated_out = 0
        self.migrated_in = 0

    def process(self, payload, ctx) -> None:
        ctx.mark("joiner")
        if isinstance(payload, MigrateIn):
            self._migrate_in(payload, ctx)
            return
        if self._migrating_epoch is not None:
            # State is in flight; preserve arrival order until it lands.
            self._held.append(payload)
            return
        if isinstance(payload, RepartitionMarker):
            if ctx.pe_index in payload.affected:
                self._migrate_out(payload, ctx)
            return
        if isinstance(payload, MergeMarker):
            self.join.on_boundary(payload.boundary_id)
            if ctx.observing:
                ctx.observe_event(
                    "merge", stage="shard", boundary=payload.boundary_id
                )
            return
        batch: ShardBatch = payload
        results = self.join.process_shard_batch(
            batch.probes, batch.stores, batch.stores_before
        )
        # One batched partial per shard sub-batch, not one record per
        # probe: three parallel lists keep the per-probe overhead (and
        # the pickling cost on the worker->parent wire) amortized.
        ctx.record(
            "partial_batch",
            {
                "tids": [tid for tid, __, __ in results],
                "matches": [sorted(found) for __, found, __ in results],
                "event_times": [et for __, __, et in results],
            },
        )

    def _migrate_out(self, marker: RepartitionMarker, ctx) -> None:
        states = self.join.export_immutable()
        self.migrated_out += sum(
            len(s["left"]["tids"]) for s in states
        )
        self.join.clear_immutable()
        self._migrating_epoch = marker.epoch
        ctx.migrate_out(
            {
                "epoch": marker.epoch,
                "shard": ctx.pe_index,
                "affected": list(marker.affected),
                "expected": len(marker.affected),
                "new_cuts": list(marker.new_cuts),
                "batches": states,
            }
        )
        if ctx.observing:
            ctx.observe_event(
                "migrate_out", epoch=marker.epoch, batches=len(states)
            )

    def _migrate_in(self, payload: MigrateIn, ctx) -> None:
        if payload.epoch != self._migrating_epoch:
            raise RuntimeError(
                f"shard {ctx.pe_index} got MigrateIn epoch {payload.epoch} "
                f"while migrating epoch {self._migrating_epoch}"
            )
        self.join.import_immutable(payload.batches)
        self.migrated_in += sum(
            len(s["left"]["tids"]) for s in payload.batches
        )
        self.migrations += 1
        self._migrating_epoch = None
        if ctx.observing:
            ctx.observe_event(
                "migrate_in", epoch=payload.epoch, batches=len(payload.batches)
            )
        # Replay everything that arrived while the state was in flight,
        # in order.  A nested repartition inside the backlog re-enters
        # the buffering path via process().
        held, self._held = self._held, []
        for pending in held:
            self.process(pending, ctx)

    def flush(self, ctx) -> None:
        if self._migrating_epoch is not None or self._held:
            raise RuntimeError(
                "shard joiner flushed with a state migration in flight"
            )

    def checkpoint_ready(self) -> bool:
        return self._migrating_epoch is None and not self._held

    def snapshot_state(self):
        # Only called when checkpoint_ready(): self._migrating_epoch is
        # None and self._held is empty, so the join owns all state.
        assert self._migrating_epoch is None and not self._held
        return {
            "join": self.join.state(),
            "migrations": self.migrations,
            "migrated_out": self.migrated_out,
            "migrated_in": self.migrated_in,
        }

    def restore_state(self, state) -> None:
        self.join.restore_from(state["join"])
        self._migrating_epoch = None
        self._held = []
        self.migrations = state["migrations"]
        self.migrated_out = state["migrated_out"]
        self.migrated_in = state["migrated_in"]


def merge_partial_records(records: Sequence[Record]) -> List[Record]:
    """Fold per-shard ``partial_batch`` records into canonical
    ``result`` records (one per stamped tuple, sorted match union).

    Non-partial records pass through unchanged; merged results are
    appended in tid order, so the output is deterministic regardless of
    shard count, worker count, or collection order.  Every stamped tuple
    probes at least one shard, so exactly one ``result`` record per
    tuple comes out — the same record shape and multiset the
    single-process :class:`~repro.joins.topologies.SPOJoinerOperator`
    produces.
    """
    merged: Dict[int, List] = {}
    out: List[Record] = []
    for record in records:
        if record.name != "partial_batch":
            out.append(record)
            continue
        payload = record.payload
        for tid, matches, event_time in zip(
            payload["tids"], payload["matches"], payload["event_times"]
        ):
            entry = merged.get(tid)
            if entry is None:
                merged[tid] = [set(matches), event_time, record]
            else:
                entry[0].update(matches)
                # Keep the latest completion stamp: the result is "done"
                # only once the last shard has answered.
                if record.completion_time > entry[2].completion_time:
                    entry[2] = record
    for tid in sorted(merged):
        matches, event_time, last = merged[tid]
        out.append(
            Record(
                "result",
                {
                    "tid": tid,
                    "matches": sorted(matches),
                    "event_time": event_time,
                },
                last.completion_time,
                last.origin_time,
                dict(last.marks),
            )
        )
    return out


def reduce_sharded_result(result: RunResult) -> RunResult:
    """Replace a sharded run's partial records with merged ``result``
    records, in place; returns the same :class:`RunResult` for
    chaining.  After reduction, ``result.result_fingerprint()`` is
    directly comparable with a single-process run's."""
    result.records = merge_partial_records(result.records)
    return result


def reslice_exports(exports: Sequence[dict]) -> Dict[int, List[dict]]:
    """Re-slice affected shards' exported state by the new cuts.

    ``exports`` holds one blob per affected shard (the payloads the
    joiners passed to ``ctx.migrate_out`` for one epoch).  Per merge
    interval, every fragment row is re-homed by its run-0 value — run 0
    sorts by the partition field, and a sorted run is fully described by
    its (values, tids) pairs, so filtering rows and merging the
    per-shard fragments back into (value, tid) order reconstructs
    exactly the interval state each shard would have built had the new
    cuts applied from the start.  Tuple movement is closed within the
    affected set (:meth:`RangeShards.diff`), which the re-homing
    asserts.  Returns ``{shard: [batch states]}``, ascending by
    ``batch_id``, with empty intervals omitted.
    """
    if not exports:
        return {}
    ref = exports[0]
    shards = RangeShards(ref["new_cuts"])
    affected = sorted(ref["affected"])
    affected_arr = np.asarray(affected, dtype=np.int64)
    by_interval: Dict[int, List[MergeBatch]] = {}
    for blob in exports:
        for state in blob["batches"]:
            by_interval.setdefault(state["batch_id"], []).append(
                batch_from_state(state)
            )
    out: Dict[int, List[dict]] = {shard: [] for shard in affected}
    for batch_id in sorted(by_interval):
        fragments = by_interval[batch_id]
        num_runs = len(fragments[0].left.runs)
        # (values, tids) pieces per target shard per run.
        pieces: Dict[int, List[List[Tuple[np.ndarray, np.ndarray]]]] = {
            shard: [[] for __ in range(num_runs)] for shard in affected
        }
        for fragment in fragments:
            runs = fragment.left.runs
            vals0 = np.asarray(runs[0].values, dtype=np.float64)
            tids0 = np.asarray(runs[0].tids, dtype=np.int64)
            owner = shards.owner_of(vals0)
            if not bool(np.isin(owner, affected_arr).all()):
                raise RuntimeError(
                    "repartition moved a tuple outside the affected set"
                )
            for shard in affected:
                mask = owner == shard
                if not mask.any():
                    continue
                pieces[shard][0].append((vals0[mask], tids0[mask]))
                owned = np.sort(tids0[mask])
                for r in range(1, num_runs):
                    run = fragment.left.runs[r]
                    tids_r = np.asarray(run.tids, dtype=np.int64)
                    keep = np.isin(tids_r, owned)
                    pieces[shard][r].append(
                        (
                            np.asarray(run.values, dtype=np.float64)[keep],
                            tids_r[keep],
                        )
                    )
        for shard in affected:
            if not pieces[shard][0]:
                continue
            runs_out: List[SortedRun] = []
            for r in range(num_runs):
                parts = pieces[shard][r]
                vals = np.concatenate([p[0] for p in parts])
                tids = np.concatenate([p[1] for p in parts])
                # Fragments are each (value, tid)-sorted; a global
                # stable lexsort restores the run invariant.
                order = np.lexsort((tids, vals))
                runs_out.append(
                    SortedRun(
                        vals[order].tolist(), tids[order].tolist()
                    )
                )
            merge_batch = MergeBatch(
                batch_id, _side_from_runs(runs_out), None, {}
            )
            out[shard].append(batch_state(merge_batch))
    return out
