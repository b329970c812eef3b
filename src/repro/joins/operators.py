"""Operators of the distributed SPO-Join topology (Figure 3 of the paper).

The pipeline decomposes Algorithm 1 across the simulated engine:

* **router** (:class:`~repro.dspe.router.RouterOperator`, parallelism 1) —
  stamps monotone tuple ids and broadcasts each tuple to the predicate PEs
  of the mutable component and to every PO-Join PE of the immutable one;
* **predicate PEs** (:class:`PredicateOperator`, one bolt per predicate) —
  each keeps *its* field per stream as a column in slot order, probes a
  router batch against the opposite stream's column into a slot-keyed
  bit partial (or hash tables), inserts the batch, and hash-partitions
  one partial message per run by its first probe id to the logical
  operator; at the merging threshold it drains its columns into sorted
  runs, computes the offset arrays (Algorithm 3) for its predicate, ships
  them to the owning PO-Join PE, and ships the runs to the dedicated
  permutation PE;
* **permutation PE** (:class:`PermutationOperator`) — pairs the two
  fields' runs per stream and merge interval, computes the permutation
  array (Algorithm 2), and forwards runs + permutation to the owning
  PO-Join PE;
* **logical PEs** (:class:`LogicalOperator`) — AND the per-predicate
  partials behind the Section 4.3 provenance hash table and map slots to
  tuple ids through the slot map each partial carries, emitting the
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

import numpy as np

from ..core.arena import ArenaSlice
from ..core.iejoin import compute_offset_array, compute_permutation
from ..core.immutable import get_backend
from ..core.merge import MergeBatch, MergeSide
from ..core.mutable import extend_sorted_run
from ..core.pojoin import POJoinList
from ..core.pojoin_numpy import batch_probe_intervals
from ..core.predicates import BandPredicate, Op
from ..core.query import QuerySpec
from ..core.tuples import StreamTuple
from ..core.window import MergePolicy, WindowKind, WindowSpec
from ..dspe.cache import CacheClient, DistributedCache
from ..dspe.engine import TupleBatch
from ..dspe.topology import Operator
from ..indexes.sorted_run import SortedRun

__all__ = [
    "SPOConfig",
    "PredicateOperator",
    "PermutationOperator",
    "LogicalOperator",
    "POJoinOperator",
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


# ----------------------------------------------------------------------
# Message payloads between operators
# ----------------------------------------------------------------------
class PartialBatchMsg:
    """One predicate PE's partials for one router run (row ``i`` is probe
    ``probes[i]``), carrying their own slot map.

    Bit evaluator: ``partial`` holds one ``row << 32 | slot`` key per set
    bit; ``windows`` are views of the PE's tid columns (left, right) as
    of this run, and ``on_left[i]`` says whether row ``i``'s slots index
    the left one (``None``: a self join's single window).  Hash baseline:
    one ``{tid: value}`` dict per row.  Both predicate PEs cut identical
    runs, so ``probe_tid`` routes their messages to one logical PE.
    """

    __slots__ = ("pred_idx", "probes", "event_times", "partial", "windows", "on_left")

    def __init__(
        self, pred_idx, probes, event_times, partial, windows=(), on_left=None
    ) -> None:
        self.pred_idx = pred_idx
        self.probes: List[int] = probes
        self.event_times: List[float] = event_times
        self.partial = partial
        self.windows = windows
        self.on_left: Optional[np.ndarray] = on_left

    @property
    def probe_tid(self) -> int:
        return self.probes[0]


def _gather(columns, on_left, rows, slots) -> np.ndarray:
    """``columns[window][slot]`` per entry, from the window its row probed
    (``on_left[row]``; ``None``: the single window of a self join)."""
    if on_left is None:
        return columns[0][slots]
    left, right = columns
    side = on_left[rows]
    out = np.empty(len(slots), dtype=left.dtype)
    out[side] = left[slots[side]]
    out[~side] = right[slots[~side]]
    return out


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
#: Unsorted-tail length at which a window folds into its sorted run;
#: below it, new tuples are probed by one vectorised comparison instead
#: of being re-sorted every batch.
_FOLD_AT = 256

_SLOT_MASK = (1 << 32) - 1

#: ``probe op stored`` for each operator, applied to the unsorted tail.
_UFUNCS = {
    Op.LT: np.less,
    Op.LE: np.less_equal,
    Op.GT: np.greater,
    Op.GE: np.greater_equal,
    Op.EQ: np.equal,
    Op.NE: np.not_equal,
}

_EMPTY = np.zeros(0, dtype=np.int64)


class _Window:
    """One stream's predicate field and tids in arrival (slot) order.

    The column buffers are written only past ``size`` and grow by copy,
    so a view shipped downstream stays valid as that run's slot map.
    ``run`` is the incremental sorted run ``(values, slots, m)`` over the
    first ``m`` slots (:func:`extend_sorted_run`); the slots after it are
    the unsorted tail.
    """

    __slots__ = ("_values", "_tids", "size", "run")

    def __init__(self) -> None:
        self._values = np.empty(_FOLD_AT, dtype=np.float64)
        self._tids = np.empty(_FOLD_AT, dtype=np.int64)
        self.size = 0
        self.run: tuple = (self._values[:0], _EMPTY, 0)

    @property
    def values(self) -> np.ndarray:
        return self._values[: self.size]

    @property
    def tids(self) -> np.ndarray:
        return self._tids[: self.size]

    def append(self, values: np.ndarray, tids: np.ndarray) -> None:
        n = self.size
        self.size = end = n + len(values)
        if end > len(self._tids):
            self._values = np.resize(self._values, 2 * end)
            self._tids = np.resize(self._tids, 2 * end)
        self._values[n:end] = values
        self._tids[n:end] = tids

    def drain_run(self) -> SortedRun:
        """The window as a sorted run: ``(value, tid)`` order, ties by
        slot, NaN keys last in arrival order."""
        values, slots, __ = extend_sorted_run(self.run, self.values)
        tids = self.tids[slots]
        run = SortedRun(values.tolist(), tids.tolist())
        run.cache_arrays(values, tids)
        return run


class PredicateOperator(Operator):
    """Mutable-part PE for one predicate (``PE_1`` / ``PE_2`` in Fig. 3)."""

    def __init__(self, config: SPOConfig, pred_idx: int) -> None:
        self.config = config
        self.pred_idx = pred_idx
        self.pred = config.query.predicates[pred_idx]
        self.clock = _MergeClock(config.policy)
        self.windows = self._fresh_windows()
        self._merge_id = 0
        op = self.pred.op
        self._tail_ops = {True: _UFUNCS[op], False: _UFUNCS[op.flipped]}

    def _fresh_windows(self) -> List[_Window]:
        return [_Window() for __ in range(2 if self.config.two_stream else 1)]

    def _columns(self, payload):
        """``(tids, event times, left-field, right-field, is_left)`` of a
        router batch; a lone tuple is a one-row batch."""
        pred, left = self.pred, self.config.left_stream
        cross = len(self.windows) == 2
        if isinstance(payload, TupleBatch):
            rows = payload.tuples
            return (
                rows.tid_values(),
                rows.event_time_values().tolist(),
                rows.field_values(pred.left_field),
                rows.field_values(pred.right_field),
                rows.stream_flags(left) if cross else None,
            )
        t: StreamTuple = payload
        values = np.array(
            (t.values[pred.left_field], t.values[pred.right_field]),
            dtype=np.float64,
        )
        return (
            np.array((t.tid,), dtype=np.int64),
            [t.event_time],
            values[:1],
            values[1:],
            np.array((t.stream == left,)) if cross else None,
        )

    # -- processing -----------------------------------------------------
    def process(self, payload, ctx) -> None:
        """Probe + insert a batch; one :class:`PartialBatchMsg` per run.

        Runs end at merge boundaries.  The router cuts batches there, so
        a batch is one run; one that straddles a boundary anyway is split.
        """
        ctx.mark("joiner")
        columns = self._columns(payload)
        times = columns[1]
        start = 0
        for k, event_time in enumerate(times):
            if self.clock.tick(event_time):
                self._run(ctx, [c if c is None else c[start : k + 1] for c in columns])
                self._merge(ctx)
                start = k + 1
        if start:
            columns = [c if c is None else c[start:] for c in columns]
        if start < len(times):
            self._run(ctx, columns)

    def _run(self, ctx, columns) -> None:
        # Operator-cost split (insert vs. probe): timestamps bracket the
        # real work; the observe calls themselves are excluded from the
        # charged service by the engine's overhead ledger.
        observing = ctx.observing
        tids, times, left_values, right_values, is_left = columns
        t0 = time.perf_counter() if observing else 0.0  # repro: allow-wallclock
        plan = self._insert(tids, left_values, right_values, is_left)
        t1 = time.perf_counter() if observing else 0.0  # repro: allow-wallclock
        ctx.emit(self._partial(tids, times, is_left, plan), stream="partial")
        if observing:
            t2 = time.perf_counter()  # repro: allow-wallclock
            ctx.observe_cost("mutable_probe", t2 - t1)
            ctx.observe_cost("mutable_insert", t1 - t0)

    def _insert(self, tids, left_values, right_values, is_left):
        """Append a run to its windows; returns the probe plan: per
        window, ``(window, rows probing it, their probe values, slot
        bounds, probe_is_left)``, a row's bound being the window's size
        when it arrived."""
        for window in self.windows:
            if window.size - window.run[2] >= _FOLD_AT:
                window.run = extend_sorted_run(window.run, window.values)
        if is_left is None:
            # Self join: stored tuples play the predicate's right role.
            (window,) = self.windows
            rows = np.arange(len(tids))
            plan = [(window, rows, left_values, window.size + rows, True)]
            window.append(right_values, tids)
            return plan
        # R rows probe the right window and are stored in the left one,
        # S rows the reverse.  Only the other side's rows of this run land
        # in the probed window, and row j of a side arrived behind
        # ``rows[j] - j`` of them; with none, no probe needs a bound.
        left, right = self.windows
        r_rows, s_rows = is_left.nonzero()[0], (~is_left).nonzero()[0]
        plan, stores = [], []
        for rows, values, flag, own, other, other_rows in (
            (r_rows, left_values, True, left, right, s_rows),
            (s_rows, right_values, False, right, left, r_rows),
        ):
            if len(rows):
                row_tids = tids
                if len(other_rows):
                    values, row_tids = values[rows], tids[rows]
                    bounds = other.size + rows - np.arange(len(rows))
                else:
                    bounds = None
                plan.append((other, rows, values, bounds, flag))
                stores.append((own, values, row_tids))
        for own, values, row_tids in stores:
            own.append(values, row_tids)
        return plan

    def _partial(self, tids, times, is_left, plan) -> PartialBatchMsg:
        probes = tids.tolist()
        keys = [key for entry in plan for key in self._hits(*entry)]
        keys = keys[0] if len(keys) == 1 else np.concatenate(keys or [_EMPTY])
        on_left = None if is_left is None else ~is_left
        if self.config.evaluator == "bit":
            windows = [w.tids for w in self.windows]
            return PartialBatchMsg(
                self.pred_idx, probes, times, keys, windows, on_left
            )
        # Naive baseline (Section 2.4): per probe, a hash table of the
        # matched tuples, keyed by tid, from the same interval search.
        rows, slots = keys >> 32, keys & _SLOT_MASK
        tids = _gather([w.tids for w in self.windows], on_left, rows, slots)
        values = _gather([w.values for w in self.windows], on_left, rows, slots)
        tables: List[Dict[int, float]] = [{} for __ in probes]
        for row, tid, value in zip(rows.tolist(), tids.tolist(), values.tolist()):
            tables[row][tid] = value
        return PartialBatchMsg(self.pred_idx, probes, times, tables)

    def _hits(self, window, rows, probe_values, bounds, probe_is_left) -> list:
        """``row << 32 | slot`` keys of the stored tuples satisfying the
        predicate: one :func:`batch_probe_intervals` call on the sorted
        run, one comparison on the tail.  Probe ``j`` sees only slots
        below ``bounds[j]`` (the run ends below all of them; ``None``: no
        bound), which replays probe-then-insert."""
        keys = []
        row_keys = rows << 32
        run_values, run_slots, m = window.run
        if m:
            for lo, hi in batch_probe_intervals(
                self.pred, probe_values, run_values, probe_is_left
            ):
                counts = np.maximum(hi - lo, 0)
                ends = counts.cumsum()
                total = int(ends[-1])
                if total:
                    # CSR expansion: positions lo[j] .. hi[j] of probe j.
                    starts = (lo - ends + counts).repeat(counts)
                    keys.append(
                        row_keys.repeat(counts)
                        | run_slots[np.arange(total) + starts]
                    )
        n = window.size
        if n > m:
            # The run's arithmetic (bands compare against probe -/+ width),
            # so run and tail hits agree; NaN on either side matches nothing.
            pred, probe, stored = self.pred, probe_values[:, None], window._values[m:n]
            if isinstance(pred, BandPredicate):
                lo, hi = probe - pred.width, probe + pred.width
                if pred.inclusive:
                    hit = (lo <= stored) & (stored <= hi)
                else:
                    hit = (lo < stored) & (stored < hi)
            else:
                hit = self._tail_ops[probe_is_left](probe, stored)
                if pred.op is Op.NE:
                    hit &= (probe == probe) & (stored == stored)
            if bounds is not None:
                hit &= np.arange(m, n) < bounds[:, None]
            r, c = hit.nonzero()
            keys.append(row_keys[r] | (c + m))
        return keys

    def _merge(self, ctx) -> None:
        observing = ctx.observing
        t0 = time.perf_counter() if observing else 0.0  # repro: allow-wallclock
        merge_id = self._merge_id
        self._merge_id += 1
        runs = [window.drain_run() for window in self.windows]
        # Fresh windows: in-flight partials keep viewing the old columns.
        self.windows = self._fresh_windows()
        ctx.emit(RunsMsg(merge_id, "left", self.pred_idx, runs[0]), stream="runs")
        if self.config.two_stream:
            left_run, right_run = runs
            ctx.emit(
                RunsMsg(merge_id, "right", self.pred_idx, right_run),
                stream="runs",
            )
            # Algorithm 3, both directions, computed where the windows live.
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

    Partials carry their own slot maps, so a run's results need only its
    messages: the provenance table pairs them by first probe tid.
    Without provenance (Figure 18) messages overwrite each other by
    predicate index, and a row is ``correct`` iff every message names
    the same probe in it.
    """

    def __init__(self, config: SPOConfig) -> None:
        self.config = config
        self._num_preds = len(config.query.predicates)
        # Provenance table: first probe tid -> {pred_idx: message}.
        self._table: Dict[int, Dict[int, PartialBatchMsg]] = {}
        # Overwrite mode (Figure 18): pred_idx -> latest message.
        self._slots: Dict[int, PartialBatchMsg] = {}

    def process(self, payload, ctx) -> None:
        msg: PartialBatchMsg = payload
        if self.config.use_provenance:
            pending = self._table.setdefault(msg.probe_tid, {})
            pending[msg.pred_idx] = msg
            if len(pending) < self._num_preds:
                return
            del self._table[msg.probe_tid]
            parts = list(pending.values())
            correct = [True] * len(msg.probes)
        else:
            self._slots[msg.pred_idx] = msg
            if len(self._slots) < self._num_preds:
                return
            parts = list(self._slots.values())
            self._slots = {}
            correct = [
                all(part.probes[i] == msg.probes[i] for part in parts)
                for i in range(min(len(part.probes) for part in parts))
            ]
        probes = msg.probes[: len(correct)]
        event_times = parts[0].event_times
        for i, matches in enumerate(self._intersect(parts, probes)):
            ctx.record(
                "mutable_result",
                {
                    "tid": probes[i],
                    "matches": matches,
                    "correct": correct[i],
                    "event_time": event_times[i],
                },
            )

    def _intersect(self, parts, probes: List[int]) -> List[List[int]]:
        """Per row, the ascending tids every part's partial names."""
        self_join = self.config.query.is_self_join
        first = parts[0]
        if not isinstance(first.partial, np.ndarray):
            # Hash-table partials: walk the smallest result set and test
            # membership in the others.
            out = []
            for i, probe_tid in enumerate(probes):
                tables = sorted((part.partial[i] for part in parts), key=len)
                out.append(
                    sorted(
                        tid
                        for tid in tables[0]
                        if all(tid in table for table in tables[1:])
                        and not (self_join and tid == probe_tid)
                    )
                )
            return out
        keys = first.partial
        for part in parts[1:]:
            keys = np.intersect1d(keys, part.partial, assume_unique=True)
        if len(parts) == 1:
            keys = np.sort(keys)
        rows = keys >> 32
        tids = _gather(first.windows, first.on_left, rows, keys & _SLOT_MASK)
        if self_join:
            keep = tids != np.asarray(probes)[rows]
            rows, tids = rows[keep], tids[keep]
        ends = np.cumsum(np.bincount(rows, minlength=len(probes))).tolist()
        flat = tids.tolist()
        return [flat[a:b] for a, b in zip([0] + ends, ends)]


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
