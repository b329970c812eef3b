"""SPO-Join: the two-tier stream inequality join operator (Algorithm 1).

``SPOJoin`` is the single-process embodiment of the paper's design: every
incoming tuple

1. probes the *mutable* component (opposite stream's B+-trees, bit-array
   intersection) and the *immutable* component (the linked list of PO-Join
   batches);
2. is inserted into its own stream's mutable B+-trees;
3. advances the merge-interval counter, and at the merging threshold
   ``delta`` the mutable window is merged — sorted runs off the B+-tree
   leaves, permutation arrays (Algorithm 2), offset arrays (Algorithm 3) —
   into a new immutable batch, with coarse-grained expiry of the oldest
   batch once the sliding window has passed it.

The distributed variant (``repro.joins.spo``) splits these responsibilities
across router, predicate, logical, permutation, and PO-Join processing
elements of the simulated stream processing engine; this class keeps the
same data structures and algorithms in one object, which is what the
microbenches (insertion cost, match rate, window split) measure.
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .arena import ArenaSlice
from .matches import MatchBatch, Pair
from .merge import build_merge_batch_from_runs
from .mutable import MutableComponent
from .pojoin import POJoinBatch, POJoinList
from .query import QuerySpec
from .tuples import StreamTuple
from .window import MergePolicy, WindowKind, WindowSpec

__all__ = ["SPOJoin", "JoinStats"]


class JoinStats:
    """Counters exposed by :class:`SPOJoin` for the benches."""

    __slots__ = (
        "tuples_processed",
        "matches_emitted",
        "merges",
        "expired_batches",
        "mutable_matches",
        "immutable_matches",
        "degraded_tuples",
        "deferred_merges",
    )

    def __init__(self) -> None:
        self.tuples_processed = 0
        self.matches_emitted = 0
        self.merges = 0
        self.expired_batches = 0
        self.mutable_matches = 0
        self.immutable_matches = 0
        #: Tuples answered from the mutable component only (degraded
        #: mode skipped their immutable probe).
        self.degraded_tuples = 0
        #: Merge-clock firings deferred while degraded (cumulative; the
        #: pending count lives on ``SPOJoin.deferred_merges``).
        self.deferred_merges = 0


class SPOJoin:
    """Stream permutation- and offset-based inequality join.

    Parameters
    ----------
    query:
        The join query (Q1/Q2/Q3 shapes, or an equi-join).
    window:
        Sliding window ``W_L`` / slide ``W_s``.
    sub_intervals:
        1 uses ``delta = W_s``; ``k > 1`` divides the slide into ``k``
        merge sub-intervals (the paper's large-slide strategy,
        ``delta = W_s / |PEs_PO-Join|``).
    evaluator:
        ``"bit"`` (paper) or ``"hash"`` (baseline) for the mutable part.
    use_offsets:
        Seed immutable probes with the stored offset arrays (cross joins).
    left_stream / right_stream:
        Stream names routed to each side of a cross join.
    """

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
        batch_factory=None,
        backend: Optional[str] = None,
        backend_options: Optional[dict] = None,
    ) -> None:
        # Checked here, not only in POJoinList.probe_all*: by the time a
        # batched probe reaches the list, the sub-batch is already in
        # the mutable window.
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        self.query = query
        self.window = window
        self.policy = MergePolicy(window, sub_intervals)
        self.evaluator = evaluator
        self.use_offsets = use_offsets
        self.bptree_order = bptree_order
        self.left_stream = left_stream
        self.right_stream = right_stream
        self.num_threads = num_threads

        self.mutable_left = MutableComponent(
            query, side="left", evaluator=evaluator, order=bptree_order
        )
        # Self and band joins probe their own window; cross and equi joins
        # keep a second mutable component for the opposite stream.
        self.mutable_right: Optional[MutableComponent] = None
        if not query.is_self_join:
            self.mutable_right = MutableComponent(
                query, side="right", evaluator=evaluator, order=bptree_order
            )
        # batch_factory lets baselines (e.g. the CSS-tree immutable join,
        # or the pure-python scalar POJoinBatch) reuse this two-tier
        # skeleton with a different frozen structure.  The default comes
        # from the immutable-backend registry: "memory" is the
        # numpy-vectorized PO-Join batch, whose probe_batch carries the
        # batch-first hot path; "sql" answers probes with indexed range
        # queries in an embedded database.
        if batch_factory is not None and backend is not None:
            raise ValueError("pass either batch_factory or backend, not both")
        self.backend = backend if backend is not None else "memory"
        self.backend_options = dict(backend_options or {})
        if batch_factory is None:
            from .immutable import get_backend

            batch_factory = get_backend(self.backend).batch_factory(
                use_offsets=use_offsets, **self.backend_options
            )
        else:
            self.backend = "custom"
        self.batch_factory = batch_factory
        self.immutable = POJoinList(query, max_batches=self.policy.max_batches)

        self.stats = JoinStats()
        self._merge_counter = 0.0
        self._next_batch_id = 0
        self._next_merge_time: Optional[float] = None
        #: Graceful degradation (overload pressure, see repro.dspe.flow):
        #: while degraded the join answers from the mutable component
        #: only (no immutable probes) and defers merges past the delta
        #: threshold, trading merge stalls and immutable-match
        #: completeness for bounded per-tuple latency.  Deferred merge
        #: firings are counted in ``deferred_merges`` and collapsed into
        #: one catch-up merge when degradation ends.
        self.degraded = False
        self.deferred_merges = 0
        #: Observability hook: when set, called as ``hook(category,
        #: seconds, **fields)`` with the operator-cost split the paper's
        #: breakdowns use — ``mutable_probe`` / ``immutable_probe`` /
        #: ``mutable_insert`` (measured wall seconds) and ``merge``
        #: (wall seconds, with ``batch_id``).  ``None`` (the default)
        #: keeps the hot path free of timestamping.
        self.phase_hook = None

    # ------------------------------------------------------------------
    @property
    def is_two_stream(self) -> bool:
        return self.mutable_right is not None

    def _probe_is_left(self, t: StreamTuple) -> bool:
        """Role the probing tuple plays in the predicates."""
        if not self.is_two_stream:
            return True  # self join: new tuple is the left operand
        return t.stream == self.left_stream

    # ------------------------------------------------------------------
    def process(self, t: StreamTuple) -> List[Pair]:
        """Run one tuple through Algorithm 1; returns (probe, match) pairs."""
        probe_is_left = self._probe_is_left(t)
        matches: List[int] = []

        # (2) inequality join against the opposite mutable window ...
        if self.is_two_stream:
            opposite = (
                self.mutable_right if probe_is_left else self.mutable_left
            )
        else:
            opposite = self.mutable_left
        assert opposite is not None
        hook = self.phase_hook
        t0 = time.perf_counter() if hook is not None else 0.0  # repro: allow-wallclock
        mutable_matches = opposite.evaluate(t, probe_is_left)
        if hook is not None:
            hook("mutable_probe", time.perf_counter() - t0)  # repro: allow-wallclock
        matches.extend(mutable_matches)
        self.stats.mutable_matches += len(mutable_matches)

        # ... and against every immutable PO-Join batch.  Degraded mode
        # answers from the mutable tier only: the immutable probe is the
        # per-tuple cost that scales with window size, so shedding it
        # bounds service time while the queue is saturated.
        if not self.degraded:
            outcome = self.immutable.probe_all(
                t, probe_is_left, self.num_threads
            )
            if hook is not None:
                hook("immutable_probe", outcome.makespan)
            matches.extend(outcome.matches)
            self.stats.immutable_matches += len(outcome.matches)
        else:
            self.stats.degraded_tuples += 1

        # (3) insert into its own stream's mutable index structures.
        own = self.mutable_left
        if self.is_two_stream and not probe_is_left:
            own = self.mutable_right
        assert own is not None
        t1 = time.perf_counter() if hook is not None else 0.0  # repro: allow-wallclock
        own.insert(t)
        if hook is not None:
            hook("mutable_insert", time.perf_counter() - t1)  # repro: allow-wallclock

        # (4-12) merge-interval bookkeeping.
        self._advance_merge_clock(t)

        self.stats.tuples_processed += 1
        self.stats.matches_emitted += len(matches)
        return [(t.tid, m) for m in matches]

    # ------------------------------------------------------------------
    # Micro-batched processing (the batch-first hot path)
    # ------------------------------------------------------------------
    def process_many(
        self, tuples: Union[ArenaSlice, Sequence[StreamTuple]]
    ) -> MatchBatch:
        """Run a micro-batch through Algorithm 1 in amortized passes.

        Produces exactly ``process(t)`` concatenated over ``tuples`` —
        same pairs, same order, same stats and merge schedule — as one
        :class:`~repro.core.matches.MatchBatch`: CSR arrays with one row
        per input tuple that read as a lazy sequence of ``(probe_tid,
        match_tid)`` pairs (``len`` is the match count; indexing,
        slicing, iteration and ``==`` against a pair list work), so no
        Python object is built per match.  The immutable probe is paid
        once per (sub-batch, PO-Join batch) and the mutable probe once
        per (sub-batch, B+-tree).  Merges cannot happen mid-batch, so
        the input is cut into sub-batches at the positions where the
        merge clock fires; within a sub-batch the immutable list is
        frozen and the mutable window only grows, which the slot-bounded
        batched evaluation accounts for.

        A plain tuple sequence is stamped into an :class:`ArenaSlice`
        once here; everything below consumes slices only.
        """
        if not isinstance(tuples, ArenaSlice):
            tuples = ArenaSlice.of(tuples)
        parts: List[MatchBatch] = []
        i, n = 0, len(tuples)
        while i < n:
            j, fired = self._scan_boundary(tuples, i)
            parts.append(self._process_subbatch(tuples[i:j]))
            if fired:
                self._merge_or_defer()
            i = j
        return MatchBatch.concat(parts)

    def _scan_boundary(
        self, tuples: ArenaSlice, start: int
    ) -> Tuple[int, bool]:
        """Advance the merge clock until it fires or the batch ends.

        Returns ``(end, fired)`` where ``tuples[start:end]`` is the next
        merge-free sub-batch; ``fired`` means a merge is due immediately
        after it.  The clock state is updated exactly as
        :meth:`_advance_merge_clock` would have, minus the merge itself.
        """
        if self.window.kind is WindowKind.COUNT:
            for k in range(start, len(tuples)):
                self._merge_counter += 1
                if self._merge_counter >= self.policy.delta:
                    self._merge_counter = 0
                    return k + 1, True
            return len(tuples), False
        times = tuples.event_time_values()
        for k in range(start, len(tuples)):
            event_time = float(times[k])
            if self._next_merge_time is None:
                self._next_merge_time = event_time + self.policy.delta
            elif event_time >= self._next_merge_time:
                self._next_merge_time += self.policy.delta
                return k + 1, True
        return len(tuples), False

    def _process_subbatch(self, sub: ArenaSlice) -> MatchBatch:
        if not self.is_two_stream:
            flags = [True] * len(sub)
        else:
            flags = sub.stream_flags(self.left_stream).tolist()
        hook = self.phase_hook
        t0 = time.perf_counter() if hook is not None else 0.0  # repro: allow-wallclock
        matches = self._mutable_batch(sub, flags)
        if hook is not None:
            # The batched mutable pass interleaves probe and insert;
            # report it under one combined category rather than a split
            # the code cannot honestly measure.
            hook("mutable_probe_insert", time.perf_counter() - t0)  # repro: allow-wallclock
        stats = self.stats
        mutable_matches = len(matches)
        stats.mutable_matches += mutable_matches
        if not self.degraded:
            outcome = self.immutable.probe_all_batch(
                sub, flags, self.num_threads
            )
            if hook is not None:
                hook("immutable_probe", outcome.makespan)
            matches = MatchBatch.interleave([matches, *outcome.parts])
            stats.immutable_matches += len(matches) - mutable_matches
        else:
            stats.degraded_tuples += len(sub)
        stats.tuples_processed += len(sub)
        stats.matches_emitted += len(matches)
        return matches

    def _mutable_batch(self, sub: ArenaSlice, flags: List[bool]) -> MatchBatch:
        """Probe + insert a merge-free sub-batch against the mutable tier.

        Bit evaluator: insert everything up front, then replay each
        probe bounded to the opposite window's size at its own arrival —
        slot order equals arrival order, so the bound restores exact
        tuple-at-a-time visibility (including self-exclusion).  The hash
        evaluator has no slot order, so it interleaves scalar steps.
        """
        if self.evaluator != "bit":
            rows: List[Sequence[int]] = []
            for t, flag in zip(sub, flags):
                opposite = self._opposite_of(flag)
                rows.append(opposite.evaluate(t, flag))
                self._own_of(flag).insert(t)
            return MatchBatch.from_rows(sub.tid_values(), rows)
        if not self.is_two_stream:
            window = self.mutable_left
            pre = len(window)
            window.insert_many(sub)
            return window.evaluate_batch(
                sub, flags, range(pre, pre + len(sub))
            )
        assert self.mutable_right is not None
        bounds: List[int] = []
        seen_left = seen_right = 0
        pre_left, pre_right = len(self.mutable_left), len(self.mutable_right)
        for flag in flags:
            if flag:  # left tuple probes the right window
                bounds.append(pre_right + seen_right)
                seen_left += 1
            else:
                bounds.append(pre_left + seen_left)
                seen_right += 1
        left_idx = [i for i, f in enumerate(flags) if f]
        right_idx = [i for i, f in enumerate(flags) if not f]
        self.mutable_left.insert_many(sub.take(left_idx))
        self.mutable_right.insert_many(sub.take(right_idx))
        groups = []
        for window, flag_value, idx in (
            (self.mutable_right, True, left_idx),
            (self.mutable_left, False, right_idx),
        ):
            if not idx:
                continue
            found = window.evaluate_batch(
                sub.take(idx),
                [flag_value] * len(idx),
                [bounds[i] for i in idx],
            )
            groups.append((idx, found))
        return MatchBatch.scatter(sub.tid_values(), groups)

    def _opposite_of(self, probe_is_left: bool) -> MutableComponent:
        if not self.is_two_stream:
            return self.mutable_left
        assert self.mutable_right is not None
        return self.mutable_right if probe_is_left else self.mutable_left

    def _own_of(self, probe_is_left: bool) -> MutableComponent:
        if not self.is_two_stream or probe_is_left:
            return self.mutable_left
        assert self.mutable_right is not None
        return self.mutable_right

    # ------------------------------------------------------------------
    def set_degraded(self, flag: bool) -> None:
        """Enter or leave overload-degraded mode.

        Entering stops immutable probes and merge firings.  Leaving with
        merge firings pending collapses them into a *single* catch-up
        merge — the deferred firings all wanted to freeze the same
        accumulated mutable window, so one merge restores the two-tier
        invariant without replaying each missed interval.
        """
        if flag == self.degraded:
            return
        self.degraded = flag
        if not flag and self.deferred_merges:
            self.deferred_merges = 0
            self.merge()

    def _merge_or_defer(self) -> None:
        """Fire the merge clock, unless degraded (then count the firing)."""
        if self.degraded:
            self.deferred_merges += 1
            self.stats.deferred_merges += 1
            return
        self.merge()

    def _advance_merge_clock(self, t: StreamTuple) -> None:
        if self.window.kind is WindowKind.COUNT:
            self._merge_counter += 1
            if self._merge_counter >= self.policy.delta:
                self._merge_or_defer()
                self._merge_counter = 0
        else:
            if self._next_merge_time is None:
                self._next_merge_time = t.event_time + self.policy.delta
            elif t.event_time >= self._next_merge_time:
                self._merge_or_defer()
                self._next_merge_time += self.policy.delta

    def merge(self) -> Optional[POJoinBatch]:
        """Merge the mutable window(s) into a new immutable batch."""
        if len(self.mutable_left) == 0 and (
            self.mutable_right is None or len(self.mutable_right) == 0
        ):
            return None
        hook = self.phase_hook
        t0 = time.perf_counter() if hook is not None else 0.0  # repro: allow-wallclock
        left_runs = self.mutable_left.drain_runs()
        right_runs = (
            self.mutable_right.drain_runs()
            if self.mutable_right is not None
            else None
        )
        merge_batch = build_merge_batch_from_runs(
            self._next_batch_id, self.query, left_runs, right_runs
        )
        self._next_batch_id += 1
        batch = self.batch_factory(self.query, merge_batch)
        before = self.immutable.expired_batches
        self.immutable.append(batch)
        self.stats.expired_batches += self.immutable.expired_batches - before
        self.stats.merges += 1
        if hook is not None:
            hook(
                "merge",
                time.perf_counter() - t0,  # repro: allow-wallclock
                batch_id=merge_batch.batch_id,
            )
        return batch

    def run(self, tuples) -> "Iterator[Tuple[StreamTuple, List[int]]]":
        """Stream an iterable through the join, yielding per-tuple results.

        Yields ``(tuple, matched_tids)`` pairs; tuples with no matches are
        included (empty list), so the output aligns 1:1 with the input.
        """
        for t in tuples:
            yield t, [m for __, m in self.process(t)]

    # ------------------------------------------------------------------
    # Introspection for the benches
    # ------------------------------------------------------------------
    def mutable_size(self) -> int:
        size = len(self.mutable_left)
        if self.mutable_right is not None:
            size += len(self.mutable_right)
        return size

    def immutable_size(self) -> int:
        return self.immutable.total_tuples()

    def memory_bits(self) -> int:
        """Mutable indexes (Eq. 1) plus immutable arrays (Eq. 2)."""
        bits = self.mutable_left.memory_bits()
        if self.mutable_right is not None:
            bits += self.mutable_right.memory_bits()
        bits += self.immutable.memory_bits()
        return bits

    def index_overhead_bits(self) -> int:
        """Index structures beyond the raw window payload.

        Mutable B+-trees count in full (they duplicate the stream into
        index form, Eq. 1); the immutable tier contributes only its
        permutation and offset arrays (Eq. 2) — the sorted runs *are* the
        window data.  This is the accounting behind Figure 13, where
        PIM-tree keeps full tree indexes on both tiers.
        """
        bits = self.mutable_left.memory_bits()
        if self.mutable_right is not None:
            bits += self.mutable_right.memory_bits()
        bits += self.immutable.index_overhead_bits()
        return bits
