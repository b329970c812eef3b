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

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .arena import ArenaSlice
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


class _VectorSide:
    """One stream's runs and permutation as numpy arrays."""

    __slots__ = ("values", "tids", "permutation", "size", "merge_side")

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
    ) -> List[List[int]]:
        """Per-probe match lists, interval bounds batched per predicate.

        Probes are grouped by ``probe_is_left`` (each group shares one
        stored side and one operator direction) and each group's bounds
        are computed with a single ``np.searchsorted`` per predicate.
        """
        results: List[List[int]] = [[] for __ in range(len(probes))]
        left_idx = [j for j, f in enumerate(flags) if f]
        right_idx = [j for j, f in enumerate(flags) if not f]
        for indices, flag in ((left_idx, True), (right_idx, False)):
            if not indices:
                continue
            stored = self._stored(flag)
            if stored.size == 0:
                continue
            self._probe_group(
                probes.take(indices), flag, stored, results, indices
            )
        return results

    def _probe_group(
        self,
        group: ArenaSlice,
        flag: bool,
        stored: _VectorSide,
        results: List[List[int]],
        indices: List[int],
    ) -> None:
        preds = self.query.predicates
        if len(preds) == 1:
            pred = preds[0]
            field = pred.probing_field(flag)
            pvals = group.field_values(field)
            bounds = batch_probe_intervals(pred, pvals, stored.values[0], flag)
            tids0 = stored.tids[0]
            for j, out_idx in enumerate(indices):
                out: List[int] = []
                for lo_a, hi_a in bounds:
                    lo, hi = int(lo_a[j]), int(hi_a[j])
                    if lo < hi:
                        out.extend(tids0[lo:hi].tolist())
                results[out_idx] = out
            return

        p1, p2 = preds[:2]
        assert stored.permutation is not None
        f1, f2 = p1.probing_field(flag), p2.probing_field(flag)
        v1 = group.field_values(f1)
        v2 = group.field_values(f2)
        b1 = batch_probe_intervals(p1, v1, stored.values[0], flag)
        b2 = batch_probe_intervals(p2, v2, stored.values[1], flag)
        perm = stored.permutation
        tids0 = stored.tids[0]
        if (
            self.covered_shortcut
            and len(preds) == 2
            and len(b1) == 1
            and len(b2) == 1
        ):
            self._probe_group_covered(
                b1[0], b2[0], stored, tids0, perm, results, indices
            )
            return
        # One mask reused across the batch; only the scattered region is
        # reset between probes, so each probe costs O(|its intervals|).
        mask = np.zeros(stored.size, dtype=bool)
        for j, out_idx in enumerate(indices):
            touched: List[np.ndarray] = []
            for lo_a, hi_a in b2:
                lo, hi = int(lo_a[j]), int(hi_a[j])
                if lo < hi:
                    region = perm[lo:hi]
                    mask[region] = True
                    touched.append(region)
            out: List[int] = []
            for lo_a, hi_a in b1:
                lo, hi = int(lo_a[j]), int(hi_a[j])
                if lo < hi:
                    hits = np.nonzero(mask[lo:hi])[0]
                    if hits.size:
                        out.extend(tids0[lo + hits].tolist())
            for region in touched:
                mask[region] = False
            if len(preds) > 2:
                out = self._apply_residuals(group[j], flag, stored, out)
            results[out_idx] = out

    def _probe_group_covered(
        self,
        b1: Tuple[np.ndarray, np.ndarray],
        b2: Tuple[np.ndarray, np.ndarray],
        stored: _VectorSide,
        tids0: np.ndarray,
        perm: np.ndarray,
        results: List[List[int]],
        indices: List[int],
    ) -> None:
        """Two-predicate probe group with the covered-interval shortcut.

        A probe whose first-predicate interval is the whole run reads its
        matches straight off the second sorted run (and symmetrically for
        a whole-run second interval): both predicates reduce to one, so
        the answer is one contiguous tid slice — O(answer), no scatter.
        Partially covered probes (the boundary-shard case) fall back to
        the permutation scatter, with the mask reset after each probe.
        """
        lo1_a, hi1_a = b1
        lo2_a, hi2_a = b2
        tids1 = stored.tids[1]
        size = stored.size
        mask: np.ndarray = None  # type: ignore[assignment]  # lazy
        for j, out_idx in enumerate(indices):
            lo1, hi1 = int(lo1_a[j]), int(hi1_a[j])
            lo2, hi2 = int(lo2_a[j]), int(hi2_a[j])
            if lo1 >= hi1 or lo2 >= hi2:
                continue  # results[out_idx] stays []
            if lo1 == 0 and hi1 == size:
                results[out_idx] = tids1[lo2:hi2].tolist()
                continue
            if lo2 == 0 and hi2 == size:
                results[out_idx] = tids0[lo1:hi1].tolist()
                continue
            if mask is None:
                mask = np.zeros(size, dtype=bool)
            region = perm[lo2:hi2]
            mask[region] = True
            hits = np.nonzero(mask[lo1:hi1])[0]
            if hits.size:
                results[out_idx] = tids0[lo1 + hits].tolist()
            mask[region] = False
