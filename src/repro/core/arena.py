"""Columnar tuple arena: structure-of-arrays storage for stream tuples.

Tuple identifiers, event times, and each payload field live in
contiguous numpy columns, and tuples are lightweight *views* (an arena
reference plus a slot index).  A micro-batch travels router → mutable
tier → immutable probe as a zero-copy :class:`ArenaSlice` — the only
batch currency — and the vectorised join kernels read its columns
directly.

Three public pieces:

``TupleArena``
    Append-only columnar store.  One arena per router micro-batch (so
    memory is reclaimed with the batch) or per mutable component (reset
    at merge time).

``ArenaTuple``
    A ``StreamTuple`` subclass whose attributes are properties resolving
    into the arena columns.  ``isinstance(x, StreamTuple)`` call sites
    keep working unchanged; all accessors return pure-Python ``int`` /
    ``float`` / ``tuple`` so downstream fingerprints (which hash
    ``repr``) never see numpy scalar types.

``ArenaSlice``
    A window onto an arena: either a contiguous ``[start, stop)`` range
    (true zero-copy column views) or an explicit index array (a single
    vectorised gather).  Supports ``len``/iteration/indexing like a
    tuple list, plus the columnar accessors (``field_values``,
    ``tids_list``, ``stream_flags``, ``event_time_values``) the batch
    paths read.  :meth:`ArenaSlice.of` stamps a plain tuple sequence
    into a fresh arena; public entry points that accept sequences
    convert with it once, on entry.

Wire format
-----------
Arena views assume a shared in-process arena, which breaks the moment a
batch crosses a process boundary (the shared-nothing executor in
:mod:`repro.parallel` ships router batches to worker processes over
``multiprocessing`` queues).  :meth:`ArenaSlice.to_wire` serialises a
slice as its raw column arrays plus the stream dictionary — never as
per-tuple objects — and :meth:`ArenaSlice.from_wire` rebuilds a fresh
single-owner arena around those columns without per-tuple appends.
``__reduce__`` on :class:`ArenaSlice` / :class:`ArenaTuple` routes
pickling through the wire helpers (a
:class:`~repro.dspe.engine.TupleBatch` pickles through the slice it
carries), so queue transport pays one vectorised gather per column and
round-trips bit-identically.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Union, overload

import numpy as np

from .tuples import StreamTuple

__all__ = ["TupleArena", "ArenaTuple", "ArenaSlice"]

_INITIAL_CAPACITY = 64


class TupleArena:
    """Append-only structure-of-arrays store for stream tuples.

    Columns: ``tids`` (int64), ``event_times`` (float64), and a 2-D
    ``fields`` array of shape ``(num_fields, capacity)`` so each field is
    a contiguous row.  Stream names are dictionary-encoded per arena
    (``stream_names`` / int8 codes); a single-stream arena stores one
    name and no code column.

    The field count is fixed lazily by the first appended tuple, which
    lets the router build arenas without knowing the schema up front.
    """

    __slots__ = (
        "num_fields",
        "size",
        "tids",
        "event_times",
        "fields",
        "stream_names",
        "stream_codes",
        "_capacity",
    )

    def __init__(
        self,
        num_fields: Optional[int] = None,
        capacity: int = _INITIAL_CAPACITY,
    ) -> None:
        self.num_fields = num_fields
        self.size = 0
        self._capacity = max(1, capacity)
        self.tids = np.zeros(self._capacity, dtype=np.int64)
        self.event_times = np.zeros(self._capacity, dtype=np.float64)
        self.fields: Optional[np.ndarray] = None
        if num_fields is not None:
            self.fields = np.zeros(
                (num_fields, self._capacity), dtype=np.float64
            )
        self.stream_names: List[str] = []
        self.stream_codes = np.zeros(self._capacity, dtype=np.int8)

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def _ensure(self, extra: int) -> None:
        need = self.size + extra
        if need <= self._capacity:
            return
        new_cap = self._capacity
        while new_cap < need:
            new_cap *= 2
        self.tids = np.resize(self.tids, new_cap)
        self.event_times = np.resize(self.event_times, new_cap)
        self.stream_codes = np.resize(self.stream_codes, new_cap)
        if self.fields is not None:
            grown = np.zeros((self.fields.shape[0], new_cap), np.float64)
            grown[:, : self.size] = self.fields[:, : self.size]
            self.fields = grown
        self._capacity = new_cap

    def _stream_code(self, stream: str) -> int:
        try:
            return self.stream_names.index(stream)
        except ValueError:
            self.stream_names.append(stream)
            return len(self.stream_names) - 1

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(
        self,
        tid: int,
        stream: str,
        values: Sequence[float],
        event_time: float = 0.0,
    ) -> int:
        """Append one tuple; returns its slot index."""
        if self.num_fields is None:
            self.num_fields = len(values)
            self.fields = np.zeros(
                (self.num_fields, self._capacity), dtype=np.float64
            )
        elif len(values) != self.num_fields:
            raise ValueError(
                f"arena holds {self.num_fields}-field tuples, "
                f"got {len(values)} fields"
            )
        self._ensure(1)
        slot = self.size
        self.tids[slot] = tid
        self.event_times[slot] = event_time
        self.stream_codes[slot] = self._stream_code(stream)
        assert self.fields is not None
        for i, v in enumerate(values):
            self.fields[i, slot] = v
        self.size = slot + 1
        return slot

    def append_tuple(self, t: StreamTuple) -> int:
        return self.append(t.tid, t.stream, t.values, t.event_time)

    def extend(self, tuples: Iterable[StreamTuple]) -> "ArenaSlice":
        """Append many tuples; returns the slice covering them."""
        if isinstance(tuples, ArenaSlice):
            return self.extend_slice(tuples)
        start = self.size
        for t in tuples:
            self.append_tuple(t)
        return ArenaSlice(self, start, self.size)

    def extend_slice(self, sl: "ArenaSlice") -> "ArenaSlice":
        """Bulk-append another arena's slice: one vectorised copy per
        column instead of per-tuple boxing."""
        m = len(sl)
        if m == 0:
            return ArenaSlice(self, self.size, self.size)
        src = sl.arena
        if self.num_fields is None:
            self.num_fields = src.num_fields or 0
            self.fields = np.zeros(
                (self.num_fields, self._capacity), dtype=np.float64
            )
        if (src.num_fields or 0) != self.num_fields:
            raise ValueError(
                f"arena holds {self.num_fields}-field tuples, "
                f"got {src.num_fields} fields"
            )
        self._ensure(m)
        start = self.size
        self.tids[start : start + m] = sl.tid_values()
        self.event_times[start : start + m] = sl.event_time_values()
        # Remap the source's stream codes into this arena's dictionary.
        remap = np.array(
            [self._stream_code(name) for name in src.stream_names]
            or [0],
            dtype=np.int8,
        )
        if sl.index is not None:
            src_codes = src.stream_codes[sl.index]
        else:
            src_codes = src.stream_codes[sl.start : sl.stop]
        self.stream_codes[start : start + m] = remap[src_codes]
        assert self.fields is not None
        for f in range(self.num_fields):
            self.fields[f, start : start + m] = sl.field_values(f)
        self.size = start + m
        return ArenaSlice(self, start, self.size)

    @classmethod
    def from_columns(
        cls,
        tids: np.ndarray,
        event_times: np.ndarray,
        fields: Optional[np.ndarray],
        stream_names: List[str],
        stream_codes: np.ndarray,
    ) -> "TupleArena":
        """Adopt ready-made column arrays as a full arena (wire decode).

        The arrays are taken over as-is — no per-tuple appends, no
        copies — so rebuilding a shipped batch costs O(columns), not
        O(tuples).  Caller guarantees equal lengths and canonical dtypes
        (as produced by :meth:`ArenaSlice.to_wire`).
        """
        n = len(tids)
        if n == 0:
            return cls(
                num_fields=None if fields is None else int(fields.shape[0])
            )
        arena = cls.__new__(cls)
        arena.num_fields = None if fields is None else int(fields.shape[0])
        arena.size = n
        arena._capacity = n
        arena.tids = np.ascontiguousarray(tids, dtype=np.int64)
        arena.event_times = np.ascontiguousarray(
            event_times, dtype=np.float64
        )
        arena.fields = (
            None
            if fields is None
            else np.ascontiguousarray(fields, dtype=np.float64)
        )
        arena.stream_names = list(stream_names)
        arena.stream_codes = np.ascontiguousarray(
            stream_codes, dtype=np.int8
        )
        return arena

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def view(self, slot: int) -> "ArenaTuple":
        if not 0 <= slot < self.size:
            raise IndexError(f"slot {slot} out of range (size={self.size})")
        return ArenaTuple(self, slot)

    def slice(
        self, start: int = 0, stop: Optional[int] = None
    ) -> "ArenaSlice":
        if stop is None:
            stop = self.size
        return ArenaSlice(self, start, stop)

    def field(self, field_index: int) -> np.ndarray:
        """Zero-copy view of one field column over the live region."""
        if self.fields is None:
            return np.empty(0, dtype=np.float64)
        return self.fields[field_index, : self.size]

    def tid_column(self) -> np.ndarray:
        return self.tids[: self.size]

    def event_time_column(self) -> np.ndarray:
        return self.event_times[: self.size]

    def stream_of(self, slot: int) -> str:
        return self.stream_names[self.stream_codes[slot]]

    def __len__(self) -> int:
        return self.size

    def reset(self) -> None:
        """Forget all rows (capacity retained)."""
        self.size = 0
        self.stream_names = []

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_bits(self) -> int:
        """Bits of live column storage (64 per tid/time/field cell)."""
        nf = self.num_fields or 0
        return (2 + nf) * 64 * self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TupleArena(size={self.size}, num_fields={self.num_fields}, "
            f"streams={self.stream_names})"
        )


class ArenaTuple(StreamTuple):
    """Lightweight view of one arena slot, API-compatible with
    :class:`StreamTuple`.

    The parent's slots are shadowed by read-only properties that resolve
    into the arena columns on access; nothing is stored per attribute.
    Every accessor converts to pure-Python scalars so equality, hashing,
    and the engine's ``repr``-based fingerprints behave exactly as with
    materialised tuples.
    """

    __slots__ = ("arena", "slot")

    def __init__(self, arena: TupleArena, slot: int) -> None:
        # Deliberately does NOT call StreamTuple.__init__: the parent
        # slot descriptors are shadowed by the properties below.
        self.arena = arena
        self.slot = slot

    @property
    def tid(self) -> int:  # type: ignore[override]
        return int(self.arena.tids[self.slot])

    @property
    def stream(self) -> str:  # type: ignore[override]
        return self.arena.stream_of(self.slot)

    @property
    def values(self) -> tuple:  # type: ignore[override]
        fields = self.arena.fields
        if fields is None:
            return ()
        return tuple(fields[:, self.slot].tolist())

    @property
    def event_time(self) -> float:  # type: ignore[override]
        return float(self.arena.event_times[self.slot])

    def value(self, field_index: int) -> float:
        fields = self.arena.fields
        assert fields is not None
        return float(fields[field_index, self.slot])

    def materialize(self) -> StreamTuple:
        """Copy out into a plain (arena-independent) ``StreamTuple``."""
        return StreamTuple(self.tid, self.stream, self.values, self.event_time)

    def __reduce__(self):
        # Ship as a one-row wire slice so an unpickled view is again an
        # ArenaTuple (over its own tiny arena), never a boxed object.
        wire = ArenaSlice(self.arena, self.slot, self.slot + 1).to_wire()
        return (_tuple_from_wire, (wire,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArenaTuple(tid={self.tid}, stream={self.stream!r}, "
            f"values={self.values}, event_time={self.event_time})"
        )


class ArenaSlice:
    """A view over a range (or index set) of arena slots.

    Contiguous slices keep ``(start, stop)`` and return true zero-copy
    column views; ``take`` produces an indexed slice whose columns are a
    single vectorised gather.  Iteration and integer indexing yield
    :class:`ArenaTuple` views, so any code written against tuple lists
    keeps working.
    """

    __slots__ = ("arena", "start", "stop", "index", "_tuples")

    def __init__(
        self,
        arena: TupleArena,
        start: int = 0,
        stop: Optional[int] = None,
        index: Optional[np.ndarray] = None,
    ) -> None:
        self.arena = arena
        self.index = index
        if index is not None:
            self.start = 0
            self.stop = len(index)
        else:
            self.start = start
            self.stop = arena.size if stop is None else stop
        self._tuples: Optional[List[ArenaTuple]] = None

    @classmethod
    def of(cls, tuples: Sequence[StreamTuple]) -> "ArenaSlice":
        """Stamp plain tuples into a fresh arena.

        The conversion public entry points apply to a plain sequence;
        ``perf/`` times it as ``core.arena.stamp_s``.
        """
        arena = TupleArena(capacity=max(1, len(tuples)))
        return arena.extend(tuples)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.stop - self.start

    def _slot(self, i: int) -> int:
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        if self.index is not None:
            return int(self.index[i])
        return self.start + i

    @overload
    def __getitem__(self, item: int) -> ArenaTuple: ...

    @overload
    def __getitem__(self, item: slice) -> "ArenaSlice": ...

    def __getitem__(
        self, item: Union[int, slice]
    ) -> Union[ArenaTuple, "ArenaSlice"]:
        if isinstance(item, slice):
            if self.index is not None:
                return ArenaSlice(self.arena, index=self.index[item])
            start, stop, step = item.indices(len(self))
            if step != 1:
                idx = np.arange(self.start, self.stop, dtype=np.int64)[item]
                return ArenaSlice(self.arena, index=idx)
            return ArenaSlice(self.arena, self.start + start, self.start + stop)
        return ArenaTuple(self.arena, self._slot(item))

    def __iter__(self) -> Iterator[ArenaTuple]:
        return iter(self.tuples)

    @property
    def tuples(self) -> List[ArenaTuple]:
        """Materialised (cached) list of per-slot views."""
        if self._tuples is None:
            if self.index is not None:
                slots: Iterable[int] = (int(s) for s in self.index)
            else:
                slots = range(self.start, self.stop)
            self._tuples = [ArenaTuple(self.arena, s) for s in slots]
        return self._tuples

    def take(self, indices: Sequence[int]) -> "ArenaSlice":
        """Sub-slice selecting positions ``indices`` within this slice."""
        idx = np.asarray(indices, dtype=np.int64)
        if self.index is not None:
            return ArenaSlice(self.arena, index=self.index[idx])
        return ArenaSlice(self.arena, index=idx + self.start)

    # ------------------------------------------------------------------
    # Columnar accessors
    # ------------------------------------------------------------------
    def field_values(self, field_index: int) -> np.ndarray:
        """float64 column of one field across the slice (zero-copy when
        contiguous, one gather when indexed)."""
        fields = self.arena.fields
        if fields is None or len(self) == 0:
            return np.empty(0, dtype=np.float64)
        if self.index is not None:
            return fields[field_index, self.index]
        return fields[field_index, self.start : self.stop]

    def tid_values(self) -> np.ndarray:
        if self.index is not None:
            return self.arena.tids[self.index]
        return self.arena.tids[self.start : self.stop]

    def event_time_values(self) -> np.ndarray:
        if self.index is not None:
            return self.arena.event_times[self.index]
        return self.arena.event_times[self.start : self.stop]

    def tids_list(self) -> List[int]:
        """Tuple ids as pure-Python ints."""
        return self.tid_values().tolist()

    def stream_flags(self, stream: str) -> np.ndarray:
        """Boolean column: does each tuple belong to ``stream``?"""
        names = self.arena.stream_names
        if stream not in names:
            return np.zeros(len(self), dtype=bool)
        code = names.index(stream)
        if self.index is not None:
            codes = self.arena.stream_codes[self.index]
        else:
            codes = self.arena.stream_codes[self.start : self.stop]
        return codes == code

    # ------------------------------------------------------------------
    # Wire format (cross-process transport)
    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        """Serialise as detached column arrays plus the stream schema.

        The result holds *copies* compacted to this slice's rows (one
        vectorised gather per column for indexed slices), so it owns its
        memory, never references the source arena, and materialises no
        per-tuple objects.  Decode with :meth:`from_wire`.
        """
        arena = self.arena
        if self.index is not None:
            sel: Union[np.ndarray, slice] = self.index
        else:
            sel = slice(self.start, self.stop)
        codes = np.array(arena.stream_codes[sel], dtype=np.int8)
        fields = arena.fields
        return {
            "tids": np.array(arena.tids[sel], dtype=np.int64),
            "event_times": np.array(
                arena.event_times[sel], dtype=np.float64
            ),
            "fields": (
                None if fields is None else np.array(fields[:, sel])
            ),
            "stream_names": list(arena.stream_names),
            "stream_codes": codes,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "ArenaSlice":
        """Rebuild a slice (over a fresh single-owner arena) from
        :meth:`to_wire` output.  Round-trips bit-identically: every
        column compares equal element-wise with identical dtypes."""
        arena = TupleArena.from_columns(
            wire["tids"],
            wire["event_times"],
            wire["fields"],
            wire["stream_names"],
            wire["stream_codes"],
        )
        return cls(arena, 0, arena.size)

    def __reduce__(self):
        return (ArenaSlice.from_wire, (self.to_wire(),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "indexed" if self.index is not None else "contiguous"
        return f"ArenaSlice(n={len(self)}, {kind})"


def _tuple_from_wire(wire: dict) -> ArenaTuple:
    """Unpickle hook for :class:`ArenaTuple` (one-row wire slice)."""
    sl = ArenaSlice.from_wire(wire)
    return ArenaTuple(sl.arena, 0)
