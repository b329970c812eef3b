"""Alternative immutable structures for the two-tier join baselines.

The paper's Figures 7-10 compare SPO-Join's immutable PO-Join against an
immutable **CSS-tree join** in two flavours: *bit-based* (range results
intersected through a bit array over the batch's slots) and *hash-based*
(intersected through hash sets).  Both freeze the same merge output as
PO-Join; the difference is purely the probe structure:

* the CSS variants answer each predicate with a CSS-tree range search that
  hops linked leaf blocks, then pay a second structure's search plus an
  explicit intersection;
* PO-Join answers the second predicate through the permutation array into
  a single bit array and scans one contiguous region, touching each
  candidate once.

This cost difference — block-hopping plus double materialization versus
one contiguous scan — is exactly the paper's Section 5.4 explanation for
PO-Join's win.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from ..core.arena import ArenaSlice
from ..core.bitset import BitSet
from ..core.immutable import scalar_probe_batch
from ..core.matches import MatchBatch
from ..core.merge import MergeBatch, MergeSide
from ..core.query import QuerySpec
from ..core.tuples import StreamTuple
from ..indexes.csstree import CSSTree

__all__ = ["CSSImmutableBatch"]


class _CSSSide:
    """CSS-trees over one stream's merge output plus slot bookkeeping."""

    __slots__ = ("trees", "slots", "tids")

    def __init__(self, side: MergeSide, block_size: int, fanout: int) -> None:
        self.trees = [
            CSSTree(list(run), block_size=block_size, fanout=fanout)
            for run in side.runs
        ]
        # Batch-local slots in first-field sorted order (arbitrary but
        # consistent across both predicate trees).
        self.tids = list(side.runs[0].tids) if side.runs else []
        self.slots: Dict[int, int] = {tid: i for i, tid in enumerate(self.tids)}

    def memory_bits(self) -> int:
        return sum(tree.memory_bits() for tree in self.trees)

    def __len__(self) -> int:
        return len(self.tids)


class CSSImmutableBatch:
    """One frozen merge interval indexed by per-field CSS-trees.

    Parameters
    ----------
    intersect:
        ``"bit"`` for the bit-array intersection variant, ``"hash"`` for
        hash sets — the two immutable baselines of Figures 7-9.
    """

    def __init__(
        self,
        query: QuerySpec,
        batch: MergeBatch,
        intersect: str = "bit",
        block_size: int = 32,
        fanout: int = 16,
    ) -> None:
        if intersect not in ("bit", "hash"):
            raise ValueError("intersect must be 'bit' or 'hash'")
        self.query = query
        self.intersect = intersect
        self.batch_id = batch.batch_id
        self._left = _CSSSide(batch.left, block_size, fanout)
        self._right = (
            _CSSSide(batch.right, block_size, fanout)
            if batch.right is not None
            else None
        )

    # ------------------------------------------------------------------
    def _stored_side(self, probe_is_left: bool) -> _CSSSide:
        if self._right is None:
            return self._left
        return self._right if probe_is_left else self._left

    def __len__(self) -> int:
        total = len(self._left)
        if self._right is not None:
            total += len(self._right)
        return total

    def memory_bits(self) -> int:
        bits = self._left.memory_bits()
        if self._right is not None:
            bits += self._right.memory_bits()
        return bits

    def index_overhead_bits(self) -> int:
        """CSS-trees *are* the index: the whole footprint is overhead."""
        return self.memory_bits()

    # ------------------------------------------------------------------
    def probe(self, probe: StreamTuple, probe_is_left: bool) -> List[int]:
        """Range-search every predicate's CSS-tree and intersect."""
        stored = self._stored_side(probe_is_left)
        if not stored.tids:
            return []
        if self.intersect == "bit":
            return self._probe_bit(probe, probe_is_left, stored)
        return self._probe_hash(probe, probe_is_left, stored)

    def probe_batch(
        self, probes: ArenaSlice, flags: Sequence[bool]
    ) -> MatchBatch:
        """Matches of a micro-batch; the CSS baseline probes one at a time.

        The block-hopping range search has no vectorized form — which is
        part of why the paper's PO-Join wins — so protocol conformance is
        the scalar loop.
        """
        return MatchBatch.from_rows(
            probes.tid_values(), scalar_probe_batch(self, probes, flags)
        )

    def _probe_bit(
        self, probe: StreamTuple, probe_is_left: bool, stored: _CSSSide
    ) -> List[int]:
        combined: BitSet = None  # type: ignore[assignment]
        for pred, tree in zip(self.query.predicates, stored.trees):
            bits = BitSet(len(stored.tids))
            value = probe.values[pred.probing_field(probe_is_left)]
            for lo, hi, lo_inc, hi_inc in pred.probe_bounds(value, probe_is_left):
                for __, tid in tree.range_search(lo, hi, lo_inc, hi_inc):
                    bits.set(stored.slots[tid])
            combined = bits if combined is None else combined.intersect(bits)
            if not combined.any():
                return []
        return [stored.tids[slot] for slot in combined.iter_set()]

    def _probe_hash(
        self, probe: StreamTuple, probe_is_left: bool, stored: _CSSSide
    ) -> List[int]:
        combined: Set[int] = None  # type: ignore[assignment]
        for pred, tree in zip(self.query.predicates, stored.trees):
            matched: Set[int] = set()
            value = probe.values[pred.probing_field(probe_is_left)]
            for lo, hi, lo_inc, hi_inc in pred.probe_bounds(value, probe_is_left):
                for __, tid in tree.range_search(lo, hi, lo_inc, hi_inc):
                    matched.add(tid)
            combined = matched if combined is None else combined & matched
            if not combined:
                return []
        return sorted(combined)
