"""The columnar result plane: join results in CSR form.

SPO-Join's answer to a probe is a set of *positions* in sorted arrays
(Figure 5: interval, permutation scatter, region scan).  A
:class:`MatchBatch` keeps the answers of a whole micro-batch of probes as
three ``int64`` arrays — the probing tuple ids, one row-offset per probe,
and the matched tuple ids back to back — so a batched kernel gathers
tuple ids once per call and no Python object is built per match.

Rows are in probe order; inside a row, matches keep the order the scalar
path emits them in (mutable window first, then the immutable batches in
list order).  The batch is also a lazy ``Sequence`` of ``(probe_tid,
match_tid)`` pairs, which is what tests, examples and the benchmark
harness read; :meth:`MatchBatch.rows` is the one conversion to Python
lists, made by the operators where a result becomes a record.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple, Union, overload

import numpy as np

__all__ = ["MatchBatch", "Pair"]

Pair = Tuple[int, int]

_NO_TIDS = np.zeros(0, dtype=np.int64)


def _offsets_of(counts: Union[np.ndarray, Sequence[int]]) -> np.ndarray:
    """Row offsets (length ``P + 1``) of rows with these match counts."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(counts, dtype=np.int64), out=offsets[1:])
    return offsets


def _expand(base: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Flat values ``start[r], start[r] + 1, ...`` (``counts[r]`` of them
    per row) given ``base[r] = start[r] - offsets[r]``: element ``k`` of
    row ``r`` sits at flat position ``offsets[r] + k``, so its value is
    its own position plus ``base[r]``."""
    out = np.repeat(base, counts)
    out += np.arange(total)
    return out


class MatchBatch(Sequence[Pair]):
    """Matches of ``P`` probes: ``match_tids[offsets[i]:offsets[i + 1]]``
    are the tuple ids joining with probe ``probe_tids[i]``.

    ``probe_tids`` may alias the tid column of the slice that was probed;
    the arrays are never written after construction.
    """

    __slots__ = ("probe_tids", "offsets", "match_tids")

    def __init__(
        self, probe_tids: np.ndarray, offsets: np.ndarray, match_tids: np.ndarray
    ) -> None:
        self.probe_tids = probe_tids
        self.offsets = offsets
        self.match_tids = match_tids

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, probe_tids: np.ndarray = _NO_TIDS) -> "MatchBatch":
        """No matches for any of ``probe_tids``."""
        return cls(probe_tids, np.zeros(len(probe_tids) + 1, dtype=np.int64), _NO_TIDS)

    @classmethod
    def from_counts(
        cls,
        probe_tids: np.ndarray,
        counts: Union[np.ndarray, Sequence[int]],
        match_tids: np.ndarray,
    ) -> "MatchBatch":
        """Rows of ``counts[i]`` consecutive entries of ``match_tids``."""
        return cls(probe_tids, _offsets_of(counts), match_tids)

    @classmethod
    def from_rows(
        cls, probe_tids: Union[np.ndarray, Sequence[int]], rows: Sequence[Sequence[int]]
    ) -> "MatchBatch":
        """One row per probe from per-probe match lists (the baselines
        without a vectorised probe build their result this way)."""
        flat = [tid for row in rows for tid in row]
        return cls.from_counts(
            np.asarray(probe_tids, dtype=np.int64),
            [len(row) for row in rows],
            np.asarray(flat, dtype=np.int64),
        )

    @classmethod
    def from_ranges(
        cls, probe_tids: np.ndarray, lo: np.ndarray, hi: np.ndarray, column: np.ndarray
    ) -> "MatchBatch":
        """Row ``i`` is ``column[lo[i]:hi[i]]`` (empty when ``lo >= hi``)."""
        counts = np.maximum(hi - lo, 0)
        offsets = _offsets_of(counts)
        total = int(offsets[-1])
        if total == 0:
            return cls(probe_tids, offsets, _NO_TIDS)
        return cls(probe_tids, offsets, column[_expand(lo - offsets[:-1], counts, total)])

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    @classmethod
    def interleave(cls, parts: Sequence["MatchBatch"]) -> "MatchBatch":
        """Row-wise concatenation of results over the *same* probes.

        Row ``i`` of the result is row ``i`` of ``parts[0]``, then of
        ``parts[1]``, ...: how the mutable window's matches and each
        live immutable batch's combine into one answer per probe.
        """
        live = [part for part in parts if len(part.match_tids)]
        if len(live) <= 1:
            return live[0] if live else parts[0]
        offsets = live[0].offsets + live[1].offsets
        for part in live[2:]:
            offsets += part.offsets
        out = np.empty(int(offsets[-1]), dtype=np.int64)
        fill = offsets[:-1].copy()  # next free position of every row
        for part in live:
            counts = part.counts
            base = fill - part.offsets[:-1]
            out[_expand(base, counts, len(part.match_tids))] = part.match_tids
            fill += counts
        return cls(parts[0].probe_tids, offsets, out)

    @classmethod
    def concat(cls, batches: Sequence["MatchBatch"]) -> "MatchBatch":
        """Results of consecutive probe runs, one after the other (the
        sub-batches of one ``process_many`` call across a merge)."""
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return cls.empty()
        offsets = [batches[0].offsets]
        shift = int(batches[0].offsets[-1])
        for batch in batches[1:]:
            offsets.append(batch.offsets[1:] + shift)
            shift += int(batch.offsets[-1])
        return cls(
            np.concatenate([batch.probe_tids for batch in batches]),
            np.concatenate(offsets),
            np.concatenate([batch.match_tids for batch in batches]),
        )

    @classmethod
    def scatter(
        cls,
        probe_tids: np.ndarray,
        groups: Sequence[Tuple[Sequence[int], "MatchBatch"]],
    ) -> "MatchBatch":
        """One result over ``probe_tids`` from ``(positions, part)``
        groups, ``part`` holding the rows of the probes at ascending
        ``positions`` (the two probe roles of a cross join, probed
        separately); a probe in no group gets an empty row."""
        parts = []
        for positions, part in groups:
            counts = np.zeros(len(probe_tids), dtype=np.int64)
            counts[positions] = part.counts
            parts.append(cls.from_counts(probe_tids, counts, part.match_tids))
        return cls.interleave(parts) if parts else cls.empty(probe_tids)

    def select(self, keep: np.ndarray) -> "MatchBatch":
        """Only the matches where the boolean mask ``keep`` is set."""
        if keep.all():
            return self
        kept = np.zeros(len(keep) + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        return MatchBatch(self.probe_tids, kept[self.offsets], self.match_tids[keep])

    # ------------------------------------------------------------------
    # Columnar access
    # ------------------------------------------------------------------
    @property
    def counts(self) -> np.ndarray:
        """Matches per probe."""
        return self.offsets[1:] - self.offsets[:-1]

    def probe_column(self) -> np.ndarray:
        """The probing tuple id of every match (``probe_tids`` repeated)."""
        return np.repeat(self.probe_tids, self.counts)

    def rows(self) -> List[List[int]]:
        """Per-probe match lists of Python ints: the one list conversion,
        made where results become records."""
        flat = self.match_tids.tolist()
        bounds = self.offsets.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    # ------------------------------------------------------------------
    # Lazy Sequence[(probe_tid, match_tid)]
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.match_tids)

    @overload
    def __getitem__(self, item: int) -> Pair: ...

    @overload
    def __getitem__(self, item: slice) -> List[Pair]: ...

    def __getitem__(self, item: Union[int, slice]) -> Union[Pair, List[Pair]]:
        n = len(self.match_tids)
        if isinstance(item, slice):
            at = np.arange(*item.indices(n))
            rows = self.offsets.searchsorted(at, side="right") - 1
            return list(zip(self.probe_tids[rows].tolist(), self.match_tids[at].tolist()))
        if item < 0:
            item += n
        if not 0 <= item < n:
            raise IndexError("MatchBatch index out of range")
        row = int(self.offsets.searchsorted(item, side="right")) - 1
        return int(self.probe_tids[row]), int(self.match_tids[item])

    def __iter__(self) -> Iterator[Pair]:
        return iter(zip(self.probe_column().tolist(), self.match_tids.tolist()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (MatchBatch, list)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatchBatch(probes={len(self.probe_tids)}, matches={len(self)})"
