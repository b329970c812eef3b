"""Baseline distributed join topologies.

The paper compares distributed SPO-Join against:

* **Chain index (CI)** [BiStream] — the window's slide intervals are
  spread over joiner PEs as chained B+-tree sub-indexes; every tuple is
  broadcast and each PE searches all of its local sub-indexes
  (Figures 11a/11c).
* **Split join (SJ)** — storage is round-robin partitioned; every probe is
  broadcast and nested-loop evaluated against each PE's share
  (Figures 11b/11d).
* **Broadcast hash join (BCHJ)** — every PE stores the full window; each
  probe is evaluated by one PE, nested-loop (Figures 11b/11d).
* **Hash join** — Storm's native equality join: tuples hash-partitioned by
  key, O(1) table maintenance (Figures 22/23).

All run on the same simulated engine, router, and source format as
SPO-Join so their records are directly comparable.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from ..core.checkpoint import checkpoint as checkpoint_join
from ..core.checkpoint import restore as restore_join
from ..core.query import QuerySpec
from ..core.spojoin import SPOJoin
from ..core.tuples import StreamTuple
from ..core.window import WindowSpec
from ..dspe.engine import Engine, RunResult, TupleBatch
from ..dspe.partitioning import Grouping, RangeShards
from ..dspe.router import RawTuple, RouterOperator
from ..dspe.topology import Operator, Topology
from ..indexes.bptree import BPlusTree

__all__ = [
    "ChainJoinerOperator",
    "NLJJoinerOperator",
    "HashJoinerOperator",
    "SPOJoinerOperator",
    "build_chain_topology",
    "build_nlj_topology",
    "build_hash_join_topology",
    "build_spo_local_topology",
    "build_spo_sharded_topology",
    "run_topology",
]


class _BatchedJoiner(Operator):
    """Joiner base: accepts single tuples or router micro-batches.

    The baselines have no batched algorithm (that is the point of the
    comparison), so a :class:`TupleBatch` is processed as a loop over
    :meth:`_process_one` — results are identical to tuple-at-a-time and
    the service time is still measured once per message.
    """

    def process(self, payload, ctx) -> None:
        if isinstance(payload, TupleBatch):
            for t in payload.tuples:
                self._process_one(t, ctx)
            return
        self._process_one(payload, ctx)

    def _process_one(self, t: StreamTuple, ctx) -> None:
        raise NotImplementedError


class _SideRouting:
    """Shared left/right routing for two-stream queries."""

    def __init__(self, query: QuerySpec, left_stream: str = "R") -> None:
        self.query = query
        self.left_stream = left_stream
        self.two_stream = not query.is_self_join

    def probe_is_left(self, t: StreamTuple) -> bool:
        if not self.two_stream:
            return True
        return t.stream == self.left_stream

    def own_key(self, t: StreamTuple) -> str:
        if not self.two_stream:
            return "left"
        return "left" if t.stream == self.left_stream else "right"

    def opposite_key(self, t: StreamTuple) -> str:
        if not self.two_stream:
            return "left"
        return "right" if t.stream == self.left_stream else "left"

    def own_field(self, side: str, pred) -> int:
        # Stored tuples of a self join play the predicate's right role.
        if self.query.is_self_join:
            return pred.right_field
        return pred.left_field if side == "left" else pred.right_field


class ChainJoinerOperator(_BatchedJoiner, _SideRouting):
    """One joiner PE of the distributed chain-index join.

    Slide intervals are assigned to PEs round-robin (slide ``s`` is stored
    by PE ``s mod n``); probes are broadcast, and each PE searches every
    sub-index it holds — the chain-index tax the paper measures.
    """

    checkpointable = True

    def __init__(
        self,
        query: QuerySpec,
        window: WindowSpec,
        order: int = 64,
        left_stream: str = "R",
    ) -> None:
        _SideRouting.__init__(self, query, left_stream)
        self.window = window
        self.order = order
        self._total_subs = max(1, round(window.length / window.slide))
        self._pe_index = 0
        self._num_pes = 1
        self._tuples_seen = 0
        # Sub-indexes keyed by global slide index: one B+-tree per
        # predicate field per stored slide interval.  A PE only stores the
        # slides assigned to it (slide s -> PE s mod n), but expiry is by
        # global slide age so the union over PEs is exactly the window.
        sides = ["left", "right"] if self.two_stream else ["left"]
        self._subs: Dict[str, Dict[int, List[BPlusTree]]] = {
            side: {} for side in sides
        }

    def setup(self, ctx) -> None:
        self._pe_index = ctx.pe_index
        self._num_pes = ctx.num_pes

    def snapshot_state(self):
        # Trees flatten to sorted (value, tid) pair lists; ties are
        # tid-ordered so bulk_load accepts them on restore (match sets
        # are tid sets, so intra-value order is immaterial).
        return {
            "tuples_seen": self._tuples_seen,
            "subs": {
                side: {
                    str(slide_idx): [
                        [list(entry) for entry in sorted(tree.items())]
                        for tree in trees
                    ]
                    for slide_idx, trees in slides.items()
                }
                for side, slides in self._subs.items()
            },
        }

    def restore_state(self, state) -> None:
        self._tuples_seen = state["tuples_seen"]
        self._subs = {side: {} for side in self._subs}
        for side, slides in state["subs"].items():
            for key, trees in slides.items():
                self._subs[side][int(key)] = [
                    BPlusTree.bulk_load(
                        [(value, tid) for value, tid in entries], self.order
                    )
                    for entries in trees
                ]

    def _process_one(self, t: StreamTuple, ctx) -> None:
        ctx.mark("joiner")
        probe_is_left = self.probe_is_left(t)
        combined: Optional[set] = None
        for pred_idx, pred in enumerate(self.query.predicates):
            value = t.values[pred.probing_field(probe_is_left)]
            matched = set()
            # The chain-index tax: every sub-index is searched.
            for sub_trees in self._subs[self.opposite_key(t)].values():
                tree = sub_trees[pred_idx]
                for lo, hi, lo_inc, hi_inc in pred.probe_bounds(
                    value, probe_is_left
                ):
                    for __, tid in tree.range_search(lo, hi, lo_inc, hi_inc):
                        matched.add(tid)
            combined = matched if combined is None else combined & matched
            if not combined:
                combined = set()
                break
        matches = sorted(combined or ())
        if self.query.is_self_join:
            matches = [m for m in matches if m != t.tid]
        ctx.record(
            "result",
            {"tid": t.tid, "matches": matches, "event_time": t.event_time},
        )

        # Store only when the current slide interval belongs to this PE.
        slide = max(1, int(self.window.slide))
        slide_idx = self._tuples_seen // slide
        self._tuples_seen += 1
        if slide_idx % self._num_pes == self._pe_index:
            own_side = self.own_key(t)
            subs = self._subs[own_side].setdefault(
                slide_idx,
                [BPlusTree(self.order) for __ in self.query.predicates],
            )
            for pred_idx, pred in enumerate(self.query.predicates):
                subs[pred_idx].insert(
                    t.values[self.own_field(own_side, pred)], t.tid
                )
        # Coarse expiry at slide boundaries: drop sub-indexes that have
        # left the window entirely.
        if self._tuples_seen % slide == 0:
            floor = slide_idx - (self._total_subs - 2)
            for side_subs in self._subs.values():
                for idx in [i for i in side_subs if i < floor]:
                    del side_subs[idx]


class NLJJoinerOperator(_BatchedJoiner, _SideRouting):
    """Split join / broadcast hash join joiner PE (nested loop).

    ``mode="sj"``: stores every ``n``-th tuple, probes everything.
    ``mode="bchj"``: stores everything, probes every ``n``-th tuple.
    """

    checkpointable = True

    def __init__(
        self,
        query: QuerySpec,
        window: WindowSpec,
        mode: str = "sj",
        left_stream: str = "R",
    ) -> None:
        if mode not in ("sj", "bchj"):
            raise ValueError("mode must be 'sj' or 'bchj'")
        _SideRouting.__init__(self, query, left_stream)
        self.window = window
        self.mode = mode
        self._pe_index = 0
        self._num_pes = 1
        sides = ["left", "right"] if self.two_stream else ["left"]
        self._slides: Dict[str, Deque[List[StreamTuple]]] = {
            side: deque([[]]) for side in sides
        }
        self._tuples_seen = 0

    def setup(self, ctx) -> None:
        self._pe_index = ctx.pe_index
        self._num_pes = ctx.num_pes

    def snapshot_state(self):
        return {
            "tuples_seen": self._tuples_seen,
            "slides": {
                side: [
                    [
                        [t.tid, t.stream, list(t.values), t.event_time]
                        for t in slide
                    ]
                    for slide in slides
                ]
                for side, slides in self._slides.items()
            },
        }

    def restore_state(self, state) -> None:
        self._tuples_seen = state["tuples_seen"]
        for side, slides in state["slides"].items():
            self._slides[side] = deque(
                [
                    StreamTuple(tid, stream, values, event_time)
                    for tid, stream, values, event_time in slide
                ]
                for slide in slides
            )

    def _process_one(self, t: StreamTuple, ctx) -> None:
        ctx.mark("joiner")
        should_probe = (
            self.mode == "sj" or t.tid % self._num_pes == self._pe_index
        )
        if should_probe:
            probe_is_left = self.probe_is_left(t)
            matches: List[int] = []
            for slide in self._slides[self.opposite_key(t)]:
                for stored in slide:
                    if probe_is_left:
                        ok = self.query.matches(t, stored)
                    else:
                        ok = self.query.matches(stored, t)
                    if ok:
                        matches.append(stored.tid)
            ctx.record(
                "result",
                {"tid": t.tid, "matches": matches, "event_time": t.event_time},
            )

        should_store = (
            self.mode == "bchj" or t.tid % self._num_pes == self._pe_index
        )
        if should_store:
            self._slides[self.own_key(t)][-1].append(t)
        self._tuples_seen += 1
        if self._tuples_seen % max(1, int(self.window.slide)) == 0:
            max_slides = max(1, round(self.window.length / self.window.slide))
            for slides in self._slides.values():
                slides.append([])
                while len(slides) > max_slides:
                    slides.popleft()


class SPOJoinerOperator(Operator):
    """A joiner PE hosting one complete (local) SPO-Join operator.

    The fully distributed SPO topology (:mod:`repro.joins.spo`) spreads
    Algorithm 1 over predicate/logical/permutation/PO-Join PEs whose
    intermediate state is not individually checkpointable.  This
    operator instead runs the whole two-tier :class:`~repro.core.
    spojoin.SPOJoin` inside a single joiner PE — the deployment the
    paper's recovery discussion assumes — so its state snapshots via
    :func:`repro.core.checkpoint.checkpoint` and the chaos experiments
    can crash and restore it.
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
        left_stream: str = "R",
        right_stream: str = "S",
        num_threads: int = 1,
        degrade_under_pressure: bool = False,
        immutable_backend: str = "memory",
        backend_options: Optional[Dict] = None,
    ) -> None:
        self.query = query
        #: When True the joiner follows the engine's backpressure signal
        #: (``ctx.pressure``, set by a ``policy="degrade"`` flow config):
        #: under pressure the join answers from the mutable tier only
        #: and defers merges; on release it catches up with one merge.
        self.degrade_under_pressure = degrade_under_pressure
        self.join = SPOJoin(
            query,
            window,
            sub_intervals=sub_intervals,
            evaluator=evaluator,
            use_offsets=use_offsets,
            bptree_order=bptree_order,
            left_stream=left_stream,
            right_stream=right_stream,
            num_threads=num_threads,
            backend=immutable_backend,
            backend_options=backend_options,
        )

    def setup(self, ctx) -> None:
        if ctx.observing:
            # Expose the local join's operator-cost split (mutable vs.
            # immutable probe, insert, merge) through the observer; merge
            # phases also land in the event log.  setup() runs again
            # after a crash-restart, reattaching the hook to the fresh
            # operator instance.
            def hook(category, seconds, **fields):
                ctx.observe_cost(category, seconds, **fields)
                if category == "merge":
                    ctx.observe_event("merge", stage="local_spo", **fields)

            self.join.phase_hook = hook

    def process(self, payload, ctx) -> None:
        ctx.mark("joiner")
        if self.degrade_under_pressure and ctx.pressure != self.join.degraded:
            pending = self.join.deferred_merges
            self.join.set_degraded(ctx.pressure)
            if ctx.observing:
                if ctx.pressure:
                    ctx.observe_event("degrade_on")
                else:
                    ctx.observe_event("degrade_off", caught_up=pending)
        degraded = self.join.degraded
        stamps: Iterable[Tuple[int, float, List[int]]]
        if isinstance(payload, TupleBatch):
            batch = payload.tuples
            # The record boundary: the join's CSR result becomes
            # per-tuple Python lists here, once per router batch.
            stamps = zip(
                batch.tids_list(),
                batch.event_time_values().tolist(),
                self.join.process_many(batch).rows(),
            )
        else:
            matches = [match for __, match in self.join.process(payload)]
            stamps = [(payload.tid, payload.event_time, matches)]
        for tid, event_time, matches in stamps:
            entry = {
                "tid": tid,
                "matches": sorted(matches),
                "event_time": event_time,
            }
            if degraded:
                # Mark partial answers (immutable probes were skipped) so
                # downstream consumers can distinguish them; the payload
                # shape under normal operation is unchanged.
                entry["degraded"] = True
            ctx.record("result", entry)

    def snapshot_state(self):
        return checkpoint_join(self.join)

    def restore_state(self, state) -> None:
        # Restore runs after setup() on a restart; carry the observer
        # hook over to the restored join instance.
        hook = self.join.phase_hook
        self.join = restore_join(self.query, state)
        self.join.phase_hook = hook


class HashJoinerOperator(Operator, _SideRouting):
    """Native hash join joiner PE (equality predicates, Figures 22/23).

    Tuples reach this PE hash-partitioned by join key, so probe and store
    are both local; maintenance is O(1) per tuple plus slide-granular
    table drops.
    """

    def __init__(
        self, query: QuerySpec, window: WindowSpec, left_stream: str = "R"
    ) -> None:
        _SideRouting.__init__(self, query, left_stream)
        if any(pred.op.value != "=" for pred in query.predicates):
            raise ValueError("hash join requires equality predicates")
        self.window = window
        self._pred = query.predicates[0]
        sides = ["left", "right"] if self.two_stream else ["left"]
        # Tables keyed by *global* slide index (router id // slide), so a
        # PE that only sees its hash share still expires correctly.
        self._slides: Dict[str, Dict[int, Dict[float, List[int]]]] = {
            side: {} for side in sides
        }

    def process(self, payload, ctx) -> None:
        t: StreamTuple = payload
        ctx.mark("joiner")
        slide = max(1, int(self.window.slide))
        max_slides = max(1, round(self.window.length / self.window.slide))
        cur_slide = t.tid // slide
        floor = cur_slide - max_slides + 1
        # Slide-granular expiry: drop whole tables older than the window
        # (the hash join's only maintenance cost).
        for tables in self._slides.values():
            for idx in [i for i in tables if i < floor]:
                del tables[idx]

        probe_is_left = self.probe_is_left(t)
        key = t.values[self._pred.probing_field(probe_is_left)]
        matches: List[int] = []
        for table in self._slides[self.opposite_key(t)].values():
            matches.extend(table.get(key, ()))
        if self.query.is_self_join:
            matches = [m for m in matches if m != t.tid]
        ctx.record(
            "result",
            {"tid": t.tid, "matches": matches, "event_time": t.event_time},
        )
        own_key = (
            t.values[self._pred.stored_field(not probe_is_left)]
            if self.two_stream
            else key
        )
        own = self._slides[self.own_key(t)].setdefault(cur_slide, {})
        own.setdefault(own_key, []).append(t.tid)


# ----------------------------------------------------------------------
# Topology builders
#
# Leaf (joiner) factories are functools.partial objects, not lambdas:
# the parallel executor pickles leaf factories into worker processes
# under the "spawn"/"forkserver" start methods, and lambdas don't
# pickle.  Parent-side bolts (routers) may keep closures.
# ----------------------------------------------------------------------
def _base(source, batch_size: int = 1) -> Topology:
    topo = Topology()
    topo.add_spout("source", source)
    topo.add_bolt(
        "router",
        lambda: RouterOperator(batch_size=batch_size),
        parallelism=1,
        inputs=[("source", Grouping.shuffle())],
    )
    return topo


def build_chain_topology(
    source: Iterable[Tuple[float, RawTuple]],
    query: QuerySpec,
    window: WindowSpec,
    joiner_pes: int = 4,
    batch_size: int = 1,
) -> Topology:
    topo = _base(source, batch_size)
    topo.add_bolt(
        "joiner",
        functools.partial(ChainJoinerOperator, query, window),
        parallelism=joiner_pes,
        inputs=[("router", Grouping.broadcast())],
    )
    return topo


def build_nlj_topology(
    source: Iterable[Tuple[float, RawTuple]],
    query: QuerySpec,
    window: WindowSpec,
    mode: str = "sj",
    joiner_pes: int = 4,
    batch_size: int = 1,
) -> Topology:
    topo = _base(source, batch_size)
    topo.add_bolt(
        "joiner",
        functools.partial(NLJJoinerOperator, query, window, mode=mode),
        parallelism=joiner_pes,
        inputs=[("router", Grouping.broadcast())],
    )
    return topo


def build_spo_local_topology(
    source: Iterable[Tuple[float, RawTuple]],
    query: QuerySpec,
    window: WindowSpec,
    batch_size: int = 1,
    **join_kwargs,
) -> Topology:
    """Router + one checkpointable SPO joiner PE (the chaos-test shape).

    ``join_kwargs`` forward to :class:`SPOJoinerOperator` (sub_intervals,
    evaluator, immutable_backend, bptree_order, ...).
    """
    topo = _base(source, batch_size)
    topo.add_bolt(
        "joiner",
        functools.partial(SPOJoinerOperator, query, window, **join_kwargs),
        parallelism=1,
        inputs=[("router", Grouping.broadcast())],
    )
    return topo


def build_spo_sharded_topology(
    source: Iterable[Tuple[float, RawTuple]],
    query: QuerySpec,
    window: WindowSpec,
    num_shards: int,
    batch_size: int = 1,
    cuts: Optional[List[float]] = None,
    sub_intervals: int = 1,
    balance=None,
    **join_kwargs,
) -> Topology:
    """Range-sharded SPO-Join: shard router + one joiner PE per shard.

    The shared-nothing shape of the parallel subsystem: the router stamps
    tuples, drives the global merge clock, and splits each micro-batch
    into per-shard store/probe sub-batches; each joiner PE holds one
    shard's mutable + immutable state.  Shard batches route directly to
    their shard's PE; merge markers broadcast to all shards.  The shard
    PEs are the topology's leaves, so under
    :class:`~repro.parallel.ParallelExecutor` they become the worker
    processes while the router stays in the parent.

    ``cuts`` are the ``num_shards - 1`` interior range boundaries
    (default: uniform over ``[0, 1]``, the synthetic workloads' value
    domain); a :class:`~repro.parallel.balance.BalanceConfig` as
    ``balance`` turns on skew-adaptive repartitioning with live state
    migration; ``join_kwargs`` forward to
    :class:`~repro.parallel.spo_shard.ShardSPOJoinOperator`.
    """
    from ..parallel.shards import ShardRouterOperator
    from ..parallel.spo_shard import ShardSPOJoinOperator

    shards = (
        RangeShards(cuts) if cuts is not None else RangeShards.uniform(num_shards)
    )
    if shards.num_shards != num_shards:
        raise ValueError(
            f"cuts imply {shards.num_shards} shards, expected {num_shards}"
        )
    topo = Topology()
    topo.add_spout("source", source)
    topo.add_bolt(
        "router",
        lambda: ShardRouterOperator(
            query,
            window,
            shards,
            sub_intervals=sub_intervals,
            batch_size=batch_size,
            balance=balance,
        ),
        parallelism=1,
        inputs=[("source", Grouping.shuffle())],
    )
    topo.add_bolt(
        "joiner",
        functools.partial(
            ShardSPOJoinOperator,
            query,
            window,
            sub_intervals=sub_intervals,
            **join_kwargs,
        ),
        parallelism=num_shards,
        input_streams=[
            ("router", Grouping.direct(lambda b: b.shard), "shards"),
            ("router", Grouping.broadcast(), "control"),
        ],
    )
    return topo


def build_hash_join_topology(
    source: Iterable[Tuple[float, RawTuple]],
    query: QuerySpec,
    window: WindowSpec,
    joiner_pes: int = 4,
    batch_size: int = 1,
) -> Topology:
    if batch_size != 1:
        # The hash join's grouping partitions *tuples* by join key; a
        # batch would be routed by its first tuple's key and break the
        # partitioning contract, so batching is rejected rather than
        # silently producing wrong results.
        raise ValueError("hash join topology requires batch_size=1")
    pred = query.predicates[0]
    topo = _base(source)
    topo.add_bolt(
        "joiner",
        functools.partial(HashJoinerOperator, query, window),
        parallelism=joiner_pes,
        inputs=[
            ("router", Grouping.hash_by(lambda t: t.values[pred.left_field]))
        ],
    )
    return topo


def run_topology(topo: Topology, num_nodes: int = 2, **kwargs) -> RunResult:
    return Engine(topo, num_nodes=num_nodes, **kwargs).run()
