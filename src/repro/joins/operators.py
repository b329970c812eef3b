"""Operators of the distributed SPO-Join topology (Figure 3 of the paper).

The pipeline decomposes Algorithm 1 across the simulated engine:

* **router** (:class:`~repro.dspe.router.RouterOperator`, parallelism 1) —
  stamps monotone tuple ids and broadcasts each tuple to the predicate PEs
  of the mutable component and to every PO-Join PE of the immutable one;
* **predicate PEs** (:class:`PredicateOperator`, one bolt per predicate) —
  each holds the B+-tree indexes ``I_r`` / ``I_s`` for *its* field, probes
  the opposite stream's tree into a bit array (or hash set), inserts the
  tuple, and hash-partitions the partial result by probe id to the logical
  operator; at the merging threshold it drains its trees, computes the
  offset arrays (Algorithm 3) for its predicate, ships them to the owning
  PO-Join PE, and ships the sorted runs to the dedicated permutation PE;
* **permutation PE** (:class:`PermutationOperator`) — pairs the two
  fields' runs per stream and merge interval, computes the permutation
  array (Algorithm 2), and forwards runs + permutation to the owning
  PO-Join PE;
* **logical PEs** (:class:`LogicalOperator`) — AND the per-predicate
  partials behind the Section 4.3 provenance hash table and emit the
  mutable component's join results;
* **PO-Join PEs** (:class:`POJoinOperator`) — assemble merge parts into
  immutable batches through the Section 4.3 (immutable) hash table,
  buffer data tuples while a merge is in flight (the flag-tuple protocol),
  probe the linked batches for every tuple, and manage window expiry under
  one of the two state strategies of Section 4.2.

Merge parts are routed to PO-Join PEs by ``merge_id % |PEs|`` — the
deterministic equivalent of the paper's round-robin distribution, which
guarantees all parts of one merge meet on the same PE.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..core.arena import ArenaSlice
from ..core.bitset import BitSet
from ..core.iejoin import compute_offset_array, compute_permutation
from ..core.immutable import get_backend
from ..core.merge import MergeBatch, MergeSide
from ..core.pojoin import POJoinList
from ..core.query import QuerySpec
from ..core.tuples import StreamTuple
from ..core.window import MergePolicy, WindowKind, WindowSpec
from ..dspe.cache import CacheClient, DistributedCache
from ..dspe.engine import TupleBatch
from ..dspe.topology import Operator
from ..indexes.bptree import BPlusTree
from ..indexes.sorted_run import SortedRun

__all__ = [
    "SPOConfig",
    "PredicateOperator",
    "PermutationOperator",
    "LogicalOperator",
    "POJoinOperator",
    "PartialMsg",
    "PartialBatchMsg",
    "OffsetMsg",
    "RunsMsg",
    "PermMsg",
]

_STATE_KEY = "spo_tuple_count"


class SPOConfig:
    """Shared configuration for all operators of one SPO topology."""

    def __init__(
        self,
        query: QuerySpec,
        window: WindowSpec,
        sub_intervals: int = 1,
        evaluator: str = "bit",
        num_pojoin_pes: int = 1,
        use_offsets: bool = True,
        batch_factory=None,
        immutable_backend: Optional[str] = None,
        backend_options: Optional[dict] = None,
        state_strategy: str = "rr",
        cache_sync_interval: float = 0.05,
        left_stream: str = "R",
        num_threads: int = 1,
        use_provenance: bool = True,
        bptree_order: int = 64,
        batch_size: int = 1,
        flush_timeout: Optional[float] = None,
        faults=None,
        recovery=None,
        fault_seed: Optional[int] = None,
        obs=None,
        flow=None,
    ) -> None:
        if state_strategy not in ("rr", "dc"):
            raise ValueError("state_strategy must be 'rr' or 'dc'")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.query = query
        self.window = window
        self.policy = MergePolicy(window, sub_intervals)
        self.evaluator = evaluator
        self.num_pojoin_pes = num_pojoin_pes
        self.use_offsets = use_offsets
        # Immutable-tier engine: an explicit batch_factory wins;
        # otherwise the named backend ("memory" default) is resolved
        # through the registry in repro.core.immutable.
        if batch_factory is not None and immutable_backend is not None:
            raise ValueError(
                "pass either batch_factory or immutable_backend, not both"
            )
        self.immutable_backend = (
            immutable_backend if immutable_backend is not None else "memory"
        )
        self.backend_options = dict(backend_options or {})
        if batch_factory is None:
            batch_factory = get_backend(self.immutable_backend).batch_factory(
                use_offsets=use_offsets, **self.backend_options
            )
        else:
            self.immutable_backend = "custom"
        self.batch_factory = batch_factory
        self.state_strategy = state_strategy
        self.cache = DistributedCache()
        self.cache_sync_interval = cache_sync_interval
        self.left_stream = left_stream
        self.num_threads = num_threads
        self.use_provenance = use_provenance
        self.bptree_order = bptree_order
        # Micro-batching: the router accumulates this many tuples per
        # TupleBatch (cut early at merge boundaries); 1 = tuple-at-a-time.
        self.batch_size = batch_size
        self.flush_timeout = flush_timeout
        # Fault injection / recovery (repro.dspe.faults / .recovery):
        # carried here so one config object describes a whole chaos run;
        # run_spo / run_topology forward them to the Engine, which also
        # mirrors any scheduled cache-partition windows into
        # ``self.cache.partitions``.
        self.faults = faults
        self.recovery = recovery
        self.fault_seed = fault_seed
        # Observability (repro.obs.Observer): forwarded to the Engine by
        # run_spo like the fault knobs, so one config describes an
        # instrumented run too.
        self.obs = obs
        # Overload protection (repro.dspe.flow.FlowConfig): bounded PE
        # queues with block/shed/degrade policies, forwarded like the
        # fault knobs.
        self.flow = flow

    @property
    def two_stream(self) -> bool:
        return not self.query.is_self_join

    def probe_is_left(self, t: StreamTuple) -> bool:
        if not self.two_stream:
            return True
        return t.stream == self.left_stream

    @property
    def global_max_batches(self) -> int:
        """Batches retained across *all* PO-Join PEs before expiry."""
        return self.policy.max_batches


class _MergeClock:
    """Deterministic merge-boundary detection shared by all operators.

    Every operator that consumes the router broadcast advances an
    identical copy of this clock, so epoch numbers (merge ids) agree
    everywhere without extra coordination messages.
    """

    __slots__ = ("policy", "kind", "_count", "_next_time", "epoch")

    def __init__(self, policy: MergePolicy) -> None:
        self.policy = policy
        self.kind = policy.window.kind
        self._count = 0.0
        self._next_time: Optional[float] = None
        self.epoch = 0

    def advance(self, t: StreamTuple) -> bool:
        """Returns True when this tuple closes a merge interval."""
        return self.tick(t.event_time)

    def tick(self, event_time: float) -> bool:
        """:meth:`advance` from the event time alone (column scans)."""
        if self.kind is WindowKind.COUNT:
            self._count += 1
            if self._count >= self.policy.delta:
                self._count = 0
                self.epoch += 1
                return True
            return False
        if self._next_time is None:
            self._next_time = event_time + self.policy.delta
            return False
        if event_time >= self._next_time:
            self._next_time += self.policy.delta
            self.epoch += 1
            return True
        return False

    def copy(self) -> "_MergeClock":
        """An independent clock with identical state (for lookahead)."""
        clone = _MergeClock(self.policy)
        clone._count = self._count
        clone._next_time = self._next_time
        clone.epoch = self.epoch
        return clone


# ----------------------------------------------------------------------
# Message payloads between operators
# ----------------------------------------------------------------------
class PartialMsg:
    """Per-predicate partial result shipped to the logical operator."""

    __slots__ = ("probe_tid", "pred_idx", "epoch", "side", "partial", "event_time")

    def __init__(
        self, probe_tid, pred_idx, epoch, side, partial, event_time=0.0
    ) -> None:
        self.probe_tid = probe_tid
        self.pred_idx = pred_idx
        self.epoch = epoch
        #: Which stream's window the partial refers to ("left"/"right").
        self.side = side
        self.partial = partial
        self.event_time = event_time


class PartialBatchMsg:
    """One predicate PE's partials for a whole router batch.

    Both predicate PEs receive identical router-cut batches, so their
    batch messages carry the same probe tids in the same order;
    ``probe_tid`` (the first entry's) therefore hash-routes the two
    messages of one batch to the same logical PE, exactly as the scalar
    per-tuple partials would.
    """

    __slots__ = ("pred_idx", "entries")

    def __init__(self, pred_idx: int, entries: List[PartialMsg]) -> None:
        self.pred_idx = pred_idx
        self.entries = entries

    @property
    def probe_tid(self) -> int:
        return self.entries[0].probe_tid


class OffsetMsg:
    """Algorithm 3 output for one predicate of one merge interval."""

    __slots__ = ("merge_id", "pred_idx", "lr", "rl")

    def __init__(self, merge_id, pred_idx, lr, rl) -> None:
        self.merge_id = merge_id
        self.pred_idx = pred_idx
        self.lr = lr  # offsets of the left run's keys inside the right run
        self.rl = rl  # and the reverse direction


class RunsMsg:
    """Sorted runs of one (merge, side, predicate), bound for the perm PE."""

    __slots__ = ("merge_id", "side", "pred_idx", "run")

    def __init__(self, merge_id, side, pred_idx, run: SortedRun) -> None:
        self.merge_id = merge_id
        self.side = side
        self.pred_idx = pred_idx
        self.run = run


class PermMsg:
    """Algorithm 2 output plus the runs, bound for a PO-Join PE."""

    __slots__ = ("merge_id", "side", "runs", "permutation")

    def __init__(self, merge_id, side, runs, permutation) -> None:
        self.merge_id = merge_id
        self.side = side
        self.runs = runs
        self.permutation = permutation


# ----------------------------------------------------------------------
# Predicate operator (mutable component, Figure 4)
# ----------------------------------------------------------------------
class _FieldWindow:
    """One stream's B+-tree for one field, with slot bookkeeping.

    Under the bit evaluator the tree payload is the tuple's *slot* so
    probes flip bit positions directly; under the hash baseline it is the
    tuple id the result hash table is keyed by.
    """

    __slots__ = ("tree", "arrival", "order", "use_slots", "_nan_slots")

    def __init__(self, order: int, use_slots: bool) -> None:
        self.order = order
        self.use_slots = use_slots
        self.tree = BPlusTree(order)
        self.arrival: List[int] = []
        self._nan_slots: List[int] = []

    def insert(self, value: float, tid: int) -> None:
        slot = len(self.arrival)
        payload = slot if self.use_slots else tid
        self.arrival.append(tid)
        # A NaN key can never satisfy a comparison, but inserting it
        # would corrupt the tree's ordering invariant (every descent
        # comparison against it is false), misplacing later real keys.
        # The slot still counts — bit positions must track arrival order
        # — so the key is parked and re-attached at drain time.
        if value == value:
            self.tree.insert(value, payload)
        else:
            self._nan_slots.append(slot)

    def drain_run(self) -> SortedRun:
        """Extract the sorted run (slot payloads mapped back to ids)."""
        arrival = self.arrival
        if self.use_slots:
            entries = ((value, arrival[slot]) for value, slot in self.tree.items())
        else:
            entries = self.tree.items()
        run = SortedRun.from_sorted_entries(entries)
        # NaN keys ride at the tail in arrival order — exactly where a
        # stable sort places them — so the two predicates' runs of one
        # merge stay the same length and permutation/offset arrays align.
        for slot in self._nan_slots:
            run.values.append(float("nan"))
            run.tids.append(arrival[slot])
        self.tree = BPlusTree(self.order)
        self.arrival = []
        self._nan_slots = []
        return run


class PredicateOperator(Operator):
    """Mutable-part PE for one predicate (``PE_1`` / ``PE_2`` in Fig. 3)."""

    def __init__(self, config: SPOConfig, pred_idx: int) -> None:
        self.config = config
        self.pred_idx = pred_idx
        self.pred = config.query.predicates[pred_idx]
        self.clock = _MergeClock(config.policy)
        use_slots = config.evaluator == "bit"
        self.windows: Dict[str, _FieldWindow] = {
            "left": _FieldWindow(config.bptree_order, use_slots)
        }
        if config.two_stream:
            self.windows["right"] = _FieldWindow(config.bptree_order, use_slots)
        self._merge_id = 0

    # -- helpers --------------------------------------------------------
    def _own_side(self, t: StreamTuple) -> str:
        if not self.config.two_stream:
            return "left"
        return "left" if t.stream == self.config.left_stream else "right"

    def _opposite_side(self, t: StreamTuple) -> str:
        if not self.config.two_stream:
            return "left"
        return "right" if t.stream == self.config.left_stream else "left"

    def _own_field(self, side: str) -> int:
        # Stored tuples of a self join play the predicate's right role.
        if self.config.query.is_self_join:
            return self.pred.right_field
        return (
            self.pred.left_field if side == "left" else self.pred.right_field
        )

    # -- processing -----------------------------------------------------
    def process(self, payload, ctx) -> None:
        if isinstance(payload, TupleBatch):
            self.process_batch(payload, ctx)
            return
        self._process_one(payload, ctx)

    def _process_one(self, t: StreamTuple, ctx) -> None:
        ctx.mark("joiner")
        if ctx.observing:
            # Operator-cost split (probe vs. insert): timestamps bracket
            # the real work; the observe calls themselves are excluded
            # from the charged service by the engine's overhead ledger.
            t0 = time.perf_counter()  # repro: allow-wallclock
            partial = self._partial_for(t)
            t1 = time.perf_counter()  # repro: allow-wallclock
            self._insert(t)
            t2 = time.perf_counter()  # repro: allow-wallclock
            ctx.emit(partial, stream="partial")
            ctx.observe_cost("mutable_probe", t1 - t0)
            ctx.observe_cost("mutable_insert", t2 - t1)
        else:
            ctx.emit(self._partial_for(t), stream="partial")
            self._insert(t)
        if self.clock.advance(t):
            self._merge(ctx)

    def process_batch(self, batch: TupleBatch, ctx) -> None:
        """Probe + insert a router batch; one PartialBatchMsg downstream.

        The router cuts batches at merge boundaries, so the fast path
        assumes at most the *last* tuple closes a merge interval — every
        entry then shares one epoch and one partial-batch message.  A
        batch that straddles a boundary anyway (a router without the cut
        hook) falls back to the scalar loop, which remains correct.
        """
        lookahead = self.clock.copy()
        fired = [lookahead.advance(t) for t in batch.tuples]
        if any(fired[:-1]):
            for t in batch.tuples:
                self._process_one(t, ctx)
            return
        ctx.mark("joiner")
        entries = []
        if ctx.observing:
            probe_s = insert_s = 0.0
            for t in batch.tuples:
                t0 = time.perf_counter()  # repro: allow-wallclock
                entries.append(self._partial_for(t))
                t1 = time.perf_counter()  # repro: allow-wallclock
                self._insert(t)
                probe_s += t1 - t0
                insert_s += time.perf_counter() - t1  # repro: allow-wallclock
            ctx.observe_cost("mutable_probe", probe_s)
            ctx.observe_cost("mutable_insert", insert_s)
        else:
            for t in batch.tuples:
                entries.append(self._partial_for(t))
                self._insert(t)
        self.clock = lookahead
        ctx.emit(PartialBatchMsg(self.pred_idx, entries), stream="partial")
        if fired and fired[-1]:
            self._merge(ctx)

    def _partial_for(self, t: StreamTuple) -> PartialMsg:
        probe_is_left = self.config.probe_is_left(t)
        opposite = self.windows[self._opposite_side(t)]
        value = t.values[self.pred.probing_field(probe_is_left)]
        # A NaN probe satisfies no comparison; skipping the tree walk also
        # matters for correctness — probe_bounds would hand range_search
        # NaN bounds, against which its stop condition never fires.
        is_nan = value != value
        if self.config.evaluator == "bit":
            partial = BitSet(len(opposite.arrival))
            if not is_nan:
                buf = partial._bytes  # inlined O(1) flip per match
                for lo, hi, lo_inc, hi_inc in self.pred.probe_bounds(
                    value, probe_is_left
                ):
                    for __, slot in opposite.tree.range_search(
                        lo, hi, lo_inc, hi_inc
                    ):
                        buf[slot >> 3] |= 1 << (slot & 7)
        else:
            # Naive baseline: a hash table of matched tuples (Section 2.4).
            partial = {}
            if not is_nan:
                for lo, hi, lo_inc, hi_inc in self.pred.probe_bounds(
                    value, probe_is_left
                ):
                    for stored_value, tid in opposite.tree.range_search(
                        lo, hi, lo_inc, hi_inc
                    ):
                        partial[tid] = stored_value
        return PartialMsg(
            t.tid,
            self.pred_idx,
            self.clock.epoch,
            self._opposite_side(t),
            partial,
            t.event_time,
        )

    def _insert(self, t: StreamTuple) -> None:
        own_side = self._own_side(t)
        own = self.windows[own_side]
        own.insert(t.values[self._own_field(own_side)], t.tid)

    def _merge(self, ctx) -> None:
        observing = ctx.observing
        t0 = time.perf_counter() if observing else 0.0  # repro: allow-wallclock
        merge_id = self._merge_id
        self._merge_id += 1
        left_run = self.windows["left"].drain_run()
        ctx.emit(RunsMsg(merge_id, "left", self.pred_idx, left_run), stream="runs")
        if self.config.two_stream:
            right_run = self.windows["right"].drain_run()
            ctx.emit(
                RunsMsg(merge_id, "right", self.pred_idx, right_run),
                stream="runs",
            )
            # Algorithm 3, both directions, computed where the trees live.
            lr = compute_offset_array(left_run.values, right_run.values)
            rl = compute_offset_array(right_run.values, left_run.values)
            ctx.emit(OffsetMsg(merge_id, self.pred_idx, lr, rl), stream="merge")
        if observing:
            ctx.observe_cost("merge", time.perf_counter() - t0)  # repro: allow-wallclock
            ctx.observe_event(
                "merge", merge_id=merge_id, stage="predicate", pred=self.pred_idx
            )


# ----------------------------------------------------------------------
# Permutation operator (dedicated intermediate PEs)
# ----------------------------------------------------------------------
class PermutationOperator(Operator):
    """Pairs the two field runs of a stream and computes Algorithm 2."""

    def __init__(self, config: SPOConfig) -> None:
        self.config = config
        self._pending: Dict[Tuple[int, str], Dict[int, SortedRun]] = {}

    def process(self, payload, ctx) -> None:
        msg: RunsMsg = payload
        num_preds = len(self.config.query.predicates)
        if num_preds == 1:
            ctx.emit(
                PermMsg(msg.merge_id, msg.side, [msg.run], None), stream="merge"
            )
            return
        key = (msg.merge_id, msg.side)
        pending = self._pending.setdefault(key, {})
        pending[msg.pred_idx] = msg.run
        if len(pending) < num_preds:
            return
        del self._pending[key]
        runs = [pending[i] for i in range(num_preds)]
        permutation = compute_permutation(runs[0], runs[1])
        ctx.emit(
            PermMsg(msg.merge_id, msg.side, runs, permutation), stream="merge"
        )


# ----------------------------------------------------------------------
# Logical operator (Section 4.3, mutable part)
# ----------------------------------------------------------------------
class LogicalOperator(Operator):
    """ANDs per-predicate partials; provenance-protected by default.

    The operator reconstructs slot-to-id mappings from the router
    broadcast (both predicate PEs see tuples in the same order, so bit
    positions are reproducible), keeping the previous epoch around for
    partials that straddle a merge boundary.
    """

    KEEP_EPOCHS = 3

    def __init__(self, config: SPOConfig) -> None:
        self.config = config
        self.clock = _MergeClock(config.policy)
        # (side, epoch) -> arrival-ordered tids.
        self._arrivals: Dict[Tuple[str, int], List[int]] = {}
        # Provenance table: probe tid -> {pred_idx: PartialMsg}.
        self._table: Dict[int, Dict[int, PartialMsg]] = {}
        # Overwrite mode (Figure 18): pred_idx -> PartialMsg.
        self._slots: Dict[int, PartialMsg] = {}
        # Partials whose bit arrays reference slots of broadcast tuples
        # this PE has not observed yet (a fast predicate PE can outrun the
        # router link); they wait here until the arrival list catches up.
        self._deferred: List[Tuple[int, List[PartialMsg], bool]] = []
        self.emitted = 0
        self.incorrect = 0

    def _side_of(self, t: StreamTuple) -> str:
        if not self.config.two_stream:
            return "left"
        return "left" if t.stream == self.config.left_stream else "right"

    def process(self, payload, ctx) -> None:
        if isinstance(payload, StreamTuple):
            self._observe(payload)
            self._flush_deferred(ctx)
            return
        if isinstance(payload, TupleBatch):
            self.process_batch(payload, ctx)
            return
        if isinstance(payload, PartialBatchMsg):
            for entry in payload.entries:
                self._accept_partial(entry, ctx)
            return
        self._accept_partial(payload, ctx)

    def process_batch(self, batch: TupleBatch, ctx) -> None:
        """Observe a router batch's arrivals in order, then retry deferred."""
        for t in batch.tuples:
            self._observe(t)
        self._flush_deferred(ctx)

    def _accept_partial(self, msg: PartialMsg, ctx) -> None:
        if self.config.use_provenance:
            pending = self._table.setdefault(msg.probe_tid, {})
            pending[msg.pred_idx] = msg
            if len(pending) < len(self.config.query.predicates):
                return
            del self._table[msg.probe_tid]
            self._emit(ctx, msg.probe_tid, list(pending.values()), correct=True)
        else:
            self._slots[msg.pred_idx] = msg
            if len(self._slots) < len(self.config.query.predicates):
                return
            parts = list(self._slots.values())
            self._slots = {}
            tids = {p.probe_tid for p in parts}
            self._emit(ctx, msg.probe_tid, parts, correct=len(tids) == 1)

    def _observe(self, t: StreamTuple) -> None:
        key = (self._side_of(t), self.clock.epoch)
        self._arrivals.setdefault(key, []).append(t.tid)
        if self.clock.advance(t):
            floor = self.clock.epoch - self.KEEP_EPOCHS
            for old in [k for k in self._arrivals if k[1] < floor]:
                del self._arrivals[old]

    def _ready(self, parts: List[PartialMsg]) -> bool:
        """True when every referenced slot's tuple has been observed."""
        for part in parts:
            if isinstance(part.partial, BitSet):
                arrivals = self._arrivals.get((part.side, part.epoch), ())
                if part.partial.size > len(arrivals):
                    return False
        return True

    def _emit(self, ctx, probe_tid: int, parts: List[PartialMsg], correct: bool) -> None:
        if not self._ready(parts):
            self._deferred.append((probe_tid, parts, correct))
            return
        self._emit_now(ctx, probe_tid, parts, correct)
        self._flush_deferred(ctx)

    def _flush_deferred(self, ctx) -> None:
        """Emit deferred results whose slots have since been observed."""
        while self._deferred and self._ready(self._deferred[0][1]):
            tid, pending, ok = self._deferred.pop(0)
            self._emit_now(ctx, tid, pending, ok)

    def _emit_now(
        self, ctx, probe_tid: int, parts: List[PartialMsg], correct: bool
    ) -> None:
        matches = self._intersect(parts)
        if self.config.query.is_self_join:
            matches = [m for m in matches if m != probe_tid]
        self.emitted += 1
        if not correct:
            self.incorrect += 1
        ctx.record(
            "mutable_result",
            {
                "tid": probe_tid,
                "matches": matches,
                "correct": correct,
                "event_time": parts[0].event_time,
            },
        )

    def _intersect(self, parts: List[PartialMsg]) -> List[int]:
        first = parts[0].partial
        if isinstance(first, BitSet):
            combined = first
            for part in parts[1:]:
                combined = combined.intersect(part.partial)
            arrivals = self._arrivals.get((parts[0].side, parts[0].epoch), [])
            return [
                arrivals[slot]
                for slot in combined.iter_set()
                if slot < len(arrivals)
            ]
        # Hash-table partials: walk the smallest result set and test
        # membership in the others.
        tables = sorted((p.partial for p in parts), key=len)
        smallest, rest = tables[0], tables[1:]
        return sorted(
            tid for tid in smallest if all(tid in table for table in rest)
        )


# ----------------------------------------------------------------------
# PO-Join operator (immutable component)
# ----------------------------------------------------------------------
class POJoinOperator(Operator):
    """A PO-Join PE: linked immutable batches + merge assembly + expiry."""

    def __init__(self, config: SPOConfig) -> None:
        self.config = config
        self.list = POJoinList(config.query, max_batches=None)
        # Section 4.3 (immutable): merge parts buffered by merge id.
        self._assembly: Dict[int, Dict[str, object]] = {}
        # Flag-tuple protocol (Section 3.4): this PE detects every merge
        # boundary in the broadcast stream itself; when a boundary's batch
        # is owned here, tuples queue until that batch is assembled, then
        # drain against the newly merged structure.
        self._clock = _MergeClock(config.policy)
        self._awaited: set = set()
        # Batches fully assembled before this PE's clock saw their merge
        # boundary (merge parts can outrun the broadcast): linked only
        # once the boundary passes, so in-flight tuples never probe a
        # batch that logically follows them.
        self._early: Dict[int, MergeBatch] = {}
        self._queue: Deque[StreamTuple] = deque()
        self._tuples_seen = 0
        self._cache_client = CacheClient(config.cache, config.cache_sync_interval)
        self._pe_index = 0
        self._num_pes = 1

    def setup(self, ctx) -> None:
        self._pe_index = ctx.pe_index
        self._num_pes = ctx.num_pes
        if ctx.observing:
            # Cache syncs fire inside this PE's own reads, so the shared
            # context's current PE is always this one when the hook runs.
            self._cache_client.on_sync = (
                lambda as_of, evicted, size: ctx.observe_event(
                    "cache_sync", as_of=as_of, evicted=evicted, keys=size
                )
            )

    # -- merge part bookkeeping -----------------------------------------
    def _parts_needed(self) -> int:
        if not self.config.two_stream:
            return 1  # one PermMsg
        return 2 + len(self.config.query.predicates)  # 2 perms + offsets

    def process(self, payload, ctx) -> None:
        if isinstance(payload, StreamTuple):
            self._tuples_seen += 1
            if self.config.state_strategy == "dc":
                self._expire_from_cache(ctx)
            if self._awaited:
                # Queued tuples remember how many merge intervals had
                # closed when they arrived, so the drain cannot probe a
                # batch merged after them.
                self._queue.append((payload, self._clock.epoch))
                self._advance_clock(payload)
                return
            ctx.mark("joiner")
            makespan = self._probe(payload, ctx)
            # Algorithm 4: |cores| threads share the linked list, so the
            # PE is occupied for the schedule's makespan, not the serial
            # sum of per-batch costs.
            ctx.charge(makespan)
            if ctx.observing:
                # The makespan IS this PE's charged service, so it is
                # also what the cost split reports for the probe phase.
                ctx.observe_cost("immutable_probe", makespan)
            self._advance_clock(payload)
            return
        if isinstance(payload, TupleBatch):
            self.process_batch(payload, ctx)
            return
        self._accept_merge_part(payload, ctx)

    def process_batch(self, batch: TupleBatch, ctx) -> None:
        """Probe a router batch against the linked list in batched runs.

        A *run* is a sub-slice ``batch.tuples[start:k]`` probed with one
        ``probe_all_batch`` call; the run is flushed before any state
        change the scalar path would interleave — a merge boundary (the
        boundary may link an early batch, changing what later tuples may
        see) or the start of flag-tuple queueing — so every tuple probes
        exactly the list state it would have seen tuple-at-a-time.  The
        clock scans the event-time column, so a merge-free batch is
        probed without building a single per-tuple view.
        """
        if self.config.state_strategy == "dc":
            # Scalar mode reads the cache per tuple; all tuples of a
            # batch share one service instant, so one read is identical.
            self._expire_from_cache(ctx)
        tuples = batch.tuples
        total_makespan = 0.0
        probed_any = False
        start = 0  # the open run is tuples[start:k]
        for k, event_time in enumerate(tuples.event_time_values().tolist()):
            self._tuples_seen += 1
            if self._awaited:
                if start < k:
                    total_makespan += self._probe_run(tuples[start:k], ctx)
                start = k + 1
                self._queue.append((tuples[k], self._clock.epoch))
                if self._clock.tick(event_time):
                    self._on_boundary()
                continue
            if not probed_any:
                ctx.mark("joiner")
                probed_any = True
            if self._clock.tick(event_time):
                total_makespan += self._probe_run(tuples[start : k + 1], ctx)
                start = k + 1
                self._on_boundary()
        if start < len(tuples):
            total_makespan += self._probe_run(tuples[start:], ctx)
        if probed_any:
            ctx.charge(total_makespan)
            if ctx.observing:
                ctx.observe_cost("immutable_probe", total_makespan)

    def _probe_run(self, run: ArenaSlice, ctx) -> float:
        if self.config.two_stream:
            flags = run.stream_flags(self.config.left_stream).tolist()
        else:
            flags = [True] * len(run)
        outcome = self.list.probe_all_batch(
            run, flags, self.config.num_threads
        )
        for tid, event_time, matches in zip(
            run.tids_list(),
            run.event_time_values().tolist(),
            outcome.matches.rows(),
        ):
            ctx.record(
                "immutable_result",
                {
                    "tid": tid,
                    "matches": matches,
                    "event_time": event_time,
                    "pe": self._pe_index,
                },
            )
        return outcome.makespan

    def _advance_clock(self, t: StreamTuple) -> None:
        """Detect merge boundaries; start queueing when we own the batch."""
        if self._clock.advance(t):
            self._on_boundary()

    def _on_boundary(self) -> None:
        merge_id = self._clock.epoch - 1
        if merge_id % self._num_pes == self._pe_index:
            if merge_id in self._early:
                # The batch already assembled; it becomes visible now.
                self._link_batch(self._early.pop(merge_id))
            else:
                self._awaited.add(merge_id)

    def _probe(
        self, t: StreamTuple, ctx, batch_id_lt: Optional[int] = None
    ) -> float:
        probe_is_left = self.config.probe_is_left(t)
        outcome = self.list.probe_all(
            t, probe_is_left, self.config.num_threads, batch_id_lt
        )
        ctx.record(
            "immutable_result",
            {
                "tid": t.tid,
                "matches": outcome.matches,
                "event_time": t.event_time,
                "pe": self._pe_index,
            },
        )
        return outcome.makespan

    def _accept_merge_part(self, payload, ctx) -> None:
        if isinstance(payload, PermMsg):
            merge_id = payload.merge_id
            slot_key = f"perm_{payload.side}"
        elif isinstance(payload, OffsetMsg):
            merge_id = payload.merge_id
            slot_key = f"offset_{payload.pred_idx}"
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected merge part {type(payload)!r}")
        parts = self._assembly.setdefault(merge_id, {})
        parts[slot_key] = payload
        if len(parts) < self._parts_needed():
            return
        del self._assembly[merge_id]
        self._build_batch(merge_id, parts, ctx)
        self._awaited.discard(merge_id)
        self._drain_queue(ctx)

    def _build_batch(self, merge_id: int, parts: Dict[str, object], ctx) -> None:
        observing = ctx.observing
        t0 = time.perf_counter() if observing else 0.0  # repro: allow-wallclock
        left_perm: PermMsg = parts["perm_left"]  # type: ignore[assignment]
        left = MergeSide(
            left_perm.runs, left_perm.permutation, sorted(left_perm.runs[0].tids)
        )
        right = None
        offsets: Dict[Tuple[int, str], object] = {}
        if self.config.two_stream:
            right_perm: PermMsg = parts["perm_right"]  # type: ignore[assignment]
            right = MergeSide(
                right_perm.runs,
                right_perm.permutation,
                sorted(right_perm.runs[0].tids),
            )
            for idx in range(len(self.config.query.predicates)):
                off: OffsetMsg = parts[f"offset_{idx}"]  # type: ignore[assignment]
                offsets[(idx, "lr")] = off.lr
                offsets[(idx, "rl")] = off.rl
        merge_batch = MergeBatch(merge_id, left, right, offsets)
        ctx.record("merge_built", {"merge_id": merge_id, "pe": self._pe_index})
        if observing:
            ctx.observe_cost("merge", time.perf_counter() - t0)  # repro: allow-wallclock
            ctx.observe_event("merge", merge_id=merge_id, stage="pojoin")
        if merge_id >= self._clock.epoch:
            # Parts outran the broadcast: hold the batch until this PE's
            # clock passes the merge boundary.
            self._early[merge_id] = merge_batch
            return
        self._link_batch(merge_batch)

    def _link_batch(self, merge_batch: MergeBatch) -> None:
        batch = self.config.batch_factory(self.config.query, merge_batch)
        self.list.append(batch)
        if self.config.state_strategy == "rr":
            # Strategy A: local window state advances only now.
            self._expire_by_merge_id(merge_batch.batch_id)

    def _drain_queue(self, ctx) -> None:
        """Probe the queued tuples whose merge intervals have all linked.

        A tuple queued at epoch ``limit`` joins with the batches below
        ``limit``, so it can go as soon as no awaited merge precedes
        ``limit``.  Holding it until *nothing* is awaited would let the
        links of later merges expire batches it still has to see when
        merge parts run more than one interval late.
        """
        horizon = min(self._awaited, default=None)
        drained = 0
        while self._queue and (
            horizon is None or self._queue[0][1] <= horizon
        ):
            t, limit = self._queue.popleft()
            self._probe(t, ctx, batch_id_lt=limit)
            drained += 1
        if drained:
            ctx.record("queue_drained", {"count": drained})

    # -- expiry / state management (Section 4.2) -------------------------
    def _expire_by_merge_id(self, newest_merge_id: int) -> None:
        frontier = newest_merge_id - self.config.global_max_batches + 1
        while self.list.batches and self.list.batches[0].batch_id < frontier:
            self.list.expire_oldest()

    def _expire_from_cache(self, ctx) -> None:
        count = self._cache_client.read(_STATE_KEY, ctx.now)
        if count is None:
            return
        # One merge interval of slack keeps tuples that were already in
        # flight when the cache advanced from losing in-window results;
        # the residual false positives are the ones the paper accepts for
        # strategy B ("though it may still introduce expired tuple
        # results", Section 4.2).
        frontier = int(
            (count - self.config.window.length) / self.config.policy.delta
        )
        while self.list.batches and self.list.batches[0].batch_id < frontier:
            self.list.expire_oldest()
