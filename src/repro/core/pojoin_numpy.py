"""Vectorized PO-Join batch (engineering extension, not in the paper).

The Figure-5 probe is three array operations — locate an interval in the
second-field run, scatter bits through the permutation array, scan a
region of the first-field order — all of which vectorize.  This module
provides :class:`VectorPOJoinBatch`, a drop-in replacement for
:class:`~repro.core.pojoin.POJoinBatch` whose probe uses numpy:

* ``np.searchsorted`` for the interval bounds,
* boolean-mask fancy indexing for the permutation scatter,
* ``np.nonzero`` over the offset-delimited region for the final scan.

It is the default immutable representation behind the
:class:`~repro.core.immutable.ImmutableBatch` protocol.  Beyond the
scalar-compatible ``probe``, it implements ``probe_batch``: the interval
bounds of a whole micro-batch of probes are found with *one*
``np.searchsorted`` per predicate (a length-B batch pays one numpy call
instead of B), and the permutation scatter reuses a single boolean mask
across the batch, resetting only the touched region between probes.

Results are bit-for-bit identical to the scalar batch (asserted by the
test suite); throughput is typically several times higher in CPython,
which is what a production deployment of this design would ship.

The optional *covered-interval shortcut* (``covered_shortcut=True``)
serves the range-sharded parallel path (:mod:`repro.parallel`): when a
probe's first-predicate interval spans the whole stored run — the common
case for every non-boundary shard, whose entire value range satisfies
the predicate — the matches are exactly the second predicate's interval,
read off the second sorted run in O(answer) time with no permutation
scatter.  The match *set* is identical to the reference path but the
match *order* within a probe's list may differ (second-run order instead
of first-run order), so the shortcut is opt-in and stays off for the
protocol-conformant default, which must equal the scalar probe
element-wise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .arena import ArenaSlice
from .matches import MatchBatch
from .merge import MergeBatch, MergeSide
from .predicates import BandPredicate, Op
from .query import QuerySpec
from .tuples import StreamTuple

__all__ = ["VectorPOJoinBatch", "batch_probe_intervals"]


def batch_probe_intervals(
    pred,
    probe_values: np.ndarray,
    stored_sorted: np.ndarray,
    probe_is_left: bool,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Satisfying half-open position intervals for a *batch* of probes.

    The vectorized twin of :meth:`Predicate.probe_intervals`: one
    ``np.searchsorted`` over all probe values at once, returning one or
    two ``(lo, hi)`` array pairs where ``lo[j]:hi[j]`` is probe ``j``'s
    interval.  Shared by the immutable ``probe_batch`` and the mutable
    component's batched evaluation.
    """
    probe_values = np.asarray(probe_values, dtype=np.float64)
    stored_sorted = np.asarray(stored_sorted, dtype=np.float64)
    n = len(stored_sorted)
    if len(probe_values) == 0:
        # Zero-length probe batch: one well-formed empty interval pair,
        # so callers that iterate (lo, hi) pairs see no probes rather
        # than a broadcasting error.
        empty = np.zeros(0, dtype=np.int64)
        return [(empty, empty)]
    # Comparisons with NaN are false: NaN stored entries sort last and
    # are clipped off every scan, and NaN probes get empty intervals.
    if n and np.isnan(stored_sorted[-1]):
        n = int(np.searchsorted(stored_sorted, np.inf, side="right"))
    nan_probes: Optional[np.ndarray] = None
    if np.isnan(probe_values).any():
        nan_probes = np.isnan(probe_values)

    def close(pairs: List[Tuple[np.ndarray, np.ndarray]]):
        if nan_probes is not None:
            for lo, hi in pairs:
                hi[nan_probes] = lo[nan_probes]
        return pairs

    if isinstance(pred, BandPredicate):
        lo_vals = probe_values - pred.width
        hi_vals = probe_values + pred.width
        if pred.inclusive:
            lo = np.searchsorted(stored_sorted[:n], lo_vals, side="left")
            hi = np.searchsorted(stored_sorted[:n], hi_vals, side="right")
        else:
            lo = np.searchsorted(stored_sorted[:n], lo_vals, side="right")
            hi = np.searchsorted(stored_sorted[:n], hi_vals, side="left")
        return close([(lo, hi)])
    op = pred.op if probe_is_left else pred.op.flipped
    left = np.searchsorted(stored_sorted[:n], probe_values, side="left")
    right = np.searchsorted(stored_sorted[:n], probe_values, side="right")
    full = np.full(len(probe_values), n, dtype=left.dtype)
    zero = np.zeros(len(probe_values), dtype=left.dtype)
    if op is Op.LT:
        return close([(right, full)])
    if op is Op.LE:
        return close([(left, full)])
    if op is Op.GT:
        return close([(zero, left)])
    if op is Op.GE:
        return close([(zero, right)])
    if op is Op.EQ:
        return close([(left, right)])
    return close([(zero, left), (right, full)])


def _holds(
    pred,
    probe_values: np.ndarray,
    stored_values: np.ndarray,
    probe_is_left: bool,
) -> np.ndarray:
    """``pred.holds`` over aligned probe / stored value arrays."""
    if probe_is_left:
        left, right = probe_values, stored_values
    else:
        left, right = stored_values, probe_values
    if isinstance(pred, BandPredicate):
        lo, hi = left - pred.width, left + pred.width
        if pred.inclusive:
            return (lo <= right) & (right <= hi)
        return (lo < right) & (right < hi)
    op = pred.op
    if op is Op.LT:
        return left < right
    if op is Op.GT:
        return left > right
    if op is Op.LE:
        return left <= right
    if op is Op.GE:
        return left >= right
    if op is Op.NE:
        return left != right
    return left == right


class _VectorSide:
    """One stream's runs and permutation as numpy arrays."""

    __slots__ = (
        "values",
        "tids",
        "permutation",
        "size",
        "merge_side",
        "_columns",
    )

    def __init__(self, side: MergeSide) -> None:
        self.merge_side = side
        # Shared (not copied) with the runs' cached columns: the merge
        # path pre-caches the argsorted arena columns on each run, so
        # linking a batch is copy-free and the columns are stored — and
        # accounted — exactly once.
        self.values = [run.values_array() for run in side.runs]
        self.tids = [run.tids_array() for run in side.runs]
        self.permutation = (
            np.asarray(side.permutation, dtype=np.int64)
            if side.permutation is not None
            else None
        )
        self.size = len(side)
        self._columns: Dict[int, np.ndarray] = {}

    def column(self, pred_idx: int) -> np.ndarray:
        """Values of predicate ``pred_idx``'s field by first-run position.

        Residual predicates of 3+-predicate queries filter matches found
        as first-run positions; built on first use, like the scalar
        batch's ``values_of`` maps.
        """
        column = self._columns.get(pred_idx)
        if column is None:
            # Every run holds the same tuple ids, once each.
            column = np.empty(self.size, dtype=np.float64)
            column[np.argsort(self.tids[0], kind="stable")] = self.values[
                pred_idx
            ][np.argsort(self.tids[pred_idx], kind="stable")]
            self._columns[pred_idx] = column
        return column


class VectorPOJoinBatch:
    """Numpy-backed immutable batch with the scalar batch's semantics.

    ``use_offsets`` is accepted for interface parity with
    :class:`~repro.core.pojoin.POJoinBatch`; the numpy probe seeds its
    searches with ``np.searchsorted`` directly, which plays the role the
    stored offset arrays play in the scalar probe, so the flag does not
    change the search path (results are identical either way).
    """

    __slots__ = (
        "query",
        "batch",
        "use_offsets",
        "covered_shortcut",
        "_left",
        "_right",
    )

    def __init__(
        self,
        query: QuerySpec,
        batch: MergeBatch,
        use_offsets: bool = True,
        covered_shortcut: bool = False,
    ) -> None:
        self.query = query
        self.batch = batch
        self.use_offsets = use_offsets
        self.covered_shortcut = covered_shortcut
        self._left = _VectorSide(batch.left)
        self._right = _VectorSide(batch.right) if batch.right is not None else None

    # ------------------------------------------------------------------
    @property
    def batch_id(self) -> int:
        return self.batch.batch_id

    def __len__(self) -> int:
        return len(self.batch)

    def memory_bits(self) -> int:
        return self.batch.memory_bits()

    def index_overhead_bits(self) -> int:
        return self.batch.index_overhead_bits()

    # ------------------------------------------------------------------
    def _stored(self, probe_is_left: bool) -> _VectorSide:
        if self._right is None:
            return self._left
        return self._right if probe_is_left else self._left

    @staticmethod
    def _interval(
        pred, value: float, values: np.ndarray, probe_is_left: bool
    ) -> List[Tuple[int, int]]:
        """Satisfying half-open position intervals for one probe value."""
        pairs = batch_probe_intervals(
            pred, np.asarray([value], dtype=np.float64), values, probe_is_left
        )
        return [(int(lo[0]), int(hi[0])) for lo, hi in pairs]

    # ------------------------------------------------------------------
    def probe(self, probe: StreamTuple, probe_is_left: bool) -> List[int]:
        """Tuple ids stored in this batch that join with ``probe``."""
        stored = self._stored(probe_is_left)
        if stored.size == 0:
            return []
        preds = self.query.predicates
        if len(preds) == 1:
            return self._probe_single(probe, probe_is_left, stored)
        matches = self._probe_two(probe, probe_is_left, stored)
        if len(preds) > 2:
            matches = self._apply_residuals(probe, probe_is_left, stored, matches)
        return matches

    def _probe_single(
        self, probe: StreamTuple, probe_is_left: bool, stored: _VectorSide
    ) -> List[int]:
        pred = self.query.predicates[0]
        value = probe.values[pred.probing_field(probe_is_left)]
        out: List[int] = []
        for lo, hi in self._interval(pred, value, stored.values[0], probe_is_left):
            out.extend(stored.tids[0][lo:hi].tolist())
        return out

    def _probe_two(
        self, probe: StreamTuple, probe_is_left: bool, stored: _VectorSide
    ) -> List[int]:
        p1, p2 = self.query.predicates[:2]
        assert stored.permutation is not None
        mask = np.zeros(stored.size, dtype=bool)
        v2 = probe.values[p2.probing_field(probe_is_left)]
        for lo, hi in self._interval(p2, v2, stored.values[1], probe_is_left):
            if lo < hi:
                # Permutation scatter: one vectorized fancy-index store.
                mask[stored.permutation[lo:hi]] = True
        v1 = probe.values[p1.probing_field(probe_is_left)]
        out: List[int] = []
        for lo, hi in self._interval(p1, v1, stored.values[0], probe_is_left):
            if lo < hi:
                hits = np.nonzero(mask[lo:hi])[0]
                if hits.size:
                    out.extend(stored.tids[0][lo + hits].tolist())
        return out

    def _apply_residuals(
        self,
        probe: StreamTuple,
        probe_is_left: bool,
        stored: _VectorSide,
        matches: List[int],
    ) -> List[int]:
        for pred_idx in range(2, len(self.query.predicates)):
            if not matches:
                return matches
            pred = self.query.predicates[pred_idx]
            probe_value = probe.values[pred.probing_field(probe_is_left)]
            values = stored.merge_side.values_of(pred_idx)
            if probe_is_left:
                matches = [
                    tid for tid in matches if pred.holds(probe_value, values[tid])
                ]
            else:
                matches = [
                    tid for tid in matches if pred.holds(values[tid], probe_value)
                ]
        return matches

    # ------------------------------------------------------------------
    # Batched probing (the batch-first hot path)
    # ------------------------------------------------------------------
    def probe_batch(
        self, probes: ArenaSlice, flags: Sequence[bool]
    ) -> MatchBatch:
        """Matches of a micro-batch, interval bounds batched per predicate.

        Probes are grouped by ``probe_is_left`` (each group shares one
        stored side and one operator direction) and each group's bounds
        are computed with a single ``np.searchsorted`` per predicate.
        Row ``i`` of the result equals ``probe(probes[i], flags[i])``.
        """
        groups = []
        for flag in (True, False):
            indices = [j for j, f in enumerate(flags) if bool(f) == flag]
            stored = self._stored(flag)
            if not indices or stored.size == 0:
                continue
            if len(indices) == len(probes):
                return self._probe_group(probes, flag, stored)
            found = self._probe_group(probes.take(indices), flag, stored)
            groups.append((indices, found))
        return MatchBatch.scatter(probes.tid_values(), groups)

    def _probe_group(
        self, group: ArenaSlice, flag: bool, stored: _VectorSide
    ) -> MatchBatch:
        """Probe one role's tuples: positions in the first-field run are
        collected per probe, tuple ids gathered once for the group."""
        preds = self.query.predicates
        probe_tids = group.tid_values()
        tids0 = stored.tids[0]
        p1 = preds[0]
        v1 = group.field_values(p1.probing_field(flag))
        b1 = batch_probe_intervals(p1, v1, stored.values[0], flag)
        if len(preds) == 1:
            return MatchBatch.interleave(
                [MatchBatch.from_ranges(probe_tids, lo, hi, tids0) for lo, hi in b1]
            )

        p2 = preds[1]
        assert stored.permutation is not None
        v2 = group.field_values(p2.probing_field(flag))
        b2 = batch_probe_intervals(p2, v2, stored.values[1], flag)
        perm = stored.permutation
        if (
            self.covered_shortcut
            and len(preds) == 2
            and len(b1) == 1
            and len(b2) == 1
        ):
            return self._probe_group_covered(probe_tids, b1[0], b2[0], stored)
        first = [(lo.tolist(), hi.tolist()) for lo, hi in b1]
        second = [(lo.tolist(), hi.tolist()) for lo, hi in b2]
        # One mask reused across the batch; only the scattered region is
        # reset between probes, so each probe costs O(|its intervals|).
        mask = np.zeros(stored.size, dtype=bool)
        found: List[np.ndarray] = []
        counts: List[int] = []
        for j in range(len(probe_tids)):
            touched: List[np.ndarray] = []
            for los, his in second:
                lo, hi = los[j], his[j]
                if lo < hi:
                    region = perm[lo:hi]
                    mask[region] = True
                    touched.append(region)
            count = 0
            if touched:
                for los, his in first:
                    lo, hi = los[j], his[j]
                    if lo < hi:
                        hits = mask[lo:hi].nonzero()[0]
                        if len(hits):
                            hits += lo
                            found.append(hits)
                            count += len(hits)
                for region in touched:
                    mask[region] = False
            counts.append(count)
        if not found:
            return MatchBatch.empty(probe_tids)
        positions = np.concatenate(found)
        matches = MatchBatch.from_counts(probe_tids, counts, tids0[positions])
        for pred_idx in range(2, len(preds)):
            pred = preds[pred_idx]
            probe_values = np.repeat(
                group.field_values(pred.probing_field(flag)), matches.counts
            )
            keep = _holds(
                pred, probe_values, stored.column(pred_idx)[positions], flag
            )
            positions = positions[keep]
            matches = matches.select(keep)
        return matches

    def _probe_group_covered(
        self,
        probe_tids: np.ndarray,
        b1: Tuple[np.ndarray, np.ndarray],
        b2: Tuple[np.ndarray, np.ndarray],
        stored: _VectorSide,
    ) -> MatchBatch:
        """Two-predicate probe group with the covered-interval shortcut.

        A probe whose first-predicate interval is the whole run reads its
        matches straight off the second sorted run (and symmetrically for
        a whole-run second interval): both predicates reduce to one, so
        the answer is one contiguous tid slice — O(answer), no scatter.
        Partially covered probes (the boundary-shard case) fall back to
        the permutation scatter, with the mask reset after each probe.
        """
        lo1, hi1 = b1
        lo2, hi2 = b2
        size = stored.size
        tids0 = stored.tids[0]
        perm = stored.permutation
        live = (lo1 < hi1) & (lo2 < hi2)
        whole1 = live & (lo1 == 0) & (hi1 == size)
        whole2 = live & ~whole1 & (lo2 == 0) & (hi2 == size)
        # A probe outside a class gets the empty range [lo, lo) in it.
        parts = [
            MatchBatch.from_ranges(
                probe_tids, lo2, np.where(whole1, hi2, lo2), stored.tids[1]
            ),
            MatchBatch.from_ranges(
                probe_tids, lo1, np.where(whole2, hi1, lo1), tids0
            ),
        ]
        partial = (live & ~whole1 & ~whole2).nonzero()[0].tolist()
        if partial:
            mask = np.zeros(size, dtype=bool)
            found: List[np.ndarray] = []
            counts = [0] * len(probe_tids)
            for j in partial:
                start = int(lo1[j])
                region = perm[int(lo2[j]) : int(hi2[j])]
                mask[region] = True
                hits = mask[start : int(hi1[j])].nonzero()[0]
                mask[region] = False
                hits += start
                found.append(hits)
                counts[j] = len(hits)
            parts.append(
                MatchBatch.from_counts(
                    probe_tids, counts, tids0[np.concatenate(found)]
                )
            )
        return MatchBatch.interleave(parts)
