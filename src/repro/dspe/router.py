"""The router component of the stream join model.

Every new tuple first passes through the router (Figure 1), which assigns
a monotonically increasing identifier based on arrival order — the time
unit that disambiguates tuples with equal event timestamps (Section 3.2)
— and forwards the tuple downstream.  Field splitting for the predicate
PEs happens at the consumers, which each read their own field of the
shared tuple; this mirrors the paper's router partitioning
``{id, R.POWER} -> PE_1`` and ``{id, R.COOL} -> PE_2`` without copying
payloads.

With ``batch_size > 1`` the router becomes the topology's batching point:
raw tuples are stamped straight into a per-batch
:class:`~repro.core.arena.TupleArena` whose slice travels downstream as a
:class:`~repro.dspe.engine.TupleBatch`, emitted when full, when the
oldest buffered tuple exceeds ``flush_timeout`` of simulated time, when
the caller-supplied ``cut_fn`` marks a tuple as a batch boundary (the SPO
topology cuts at merge boundaries so no batch spans a merge), or at end
of stream via :meth:`flush`.  Downstream PEs then pay their per-message
overhead once per batch.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core.arena import ArenaTuple, TupleArena
from ..core.tuples import StreamTuple
from .engine import TupleBatch
from .topology import Operator

__all__ = ["RouterOperator", "RawTuple"]


class RawTuple:
    """Source payload before the router stamps an identifier."""

    __slots__ = ("stream", "values", "event_time")

    def __init__(self, stream: str, values, event_time: float = 0.0) -> None:
        self.stream = stream
        self.values = values
        self.event_time = event_time


class RouterOperator(Operator):
    """Stamps router ids and emits :class:`StreamTuple` objects.

    Parallelism must be 1 so identifiers stay globally monotone (as in the
    paper, where a single router vertex orders arrivals).

    Parameters
    ----------
    batch_size:
        1 (default) emits each stamped tuple immediately — the seed's
        tuple-at-a-time behavior, byte-identical results.  ``> 1``
        accumulates tuples into :class:`TupleBatch` messages.
    flush_timeout:
        Maximum simulated age of a partial batch; on the next arrival an
        over-age buffer is flushed before the new tuple is buffered.
    cut_fn:
        ``cut_fn(tuple) -> bool`` called on each stamped tuple; ``True``
        closes the batch *with* that tuple (used to cut at merge
        boundaries).
    """

    def __init__(
        self,
        start_tid: int = 0,
        batch_size: int = 1,
        flush_timeout: Optional[float] = None,
        cut_fn: Optional[Callable[[StreamTuple], bool]] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self._next_tid = start_tid
        self.batch_size = batch_size
        self.flush_timeout = flush_timeout
        self._cut_fn = cut_fn
        #: The open batch: one arena per batch, handed over whole on
        #: flush so memory is reclaimed with the batch.
        self._arena: Optional[TupleArena] = None
        self._buffer_origins: List[float] = []
        self._buffer_opened: Optional[float] = None

    def _buffered(self) -> int:
        return self._arena.size if self._arena is not None else 0

    def process(self, payload, ctx) -> None:
        raw: RawTuple = payload
        if self.batch_size == 1:
            tuple_ = StreamTuple(
                self._next_tid, raw.stream, raw.values, raw.event_time
            )
            self._next_tid += 1
            self._on_stamped(tuple_, ctx)
            ctx.emit(tuple_)
            return
        tuple_ = self._stamp_into_batch(raw, ctx)
        cut = self._cut_fn(tuple_) if self._cut_fn is not None else False
        if cut or self._buffered() >= self.batch_size:
            self._flush_buffer(ctx)

    def _stamp_into_batch(self, raw: RawTuple, ctx) -> ArenaTuple:
        """Stamp ``raw`` into the open batch (flushing an over-age one
        first); returns the new row's view."""
        if (
            self.flush_timeout is not None
            and self._buffered()
            and ctx.now - self._buffer_opened >= self.flush_timeout
        ):
            self._flush_buffer(ctx)
        if not self._buffered():
            self._buffer_opened = ctx.now
        if self._arena is None:
            self._arena = TupleArena(capacity=self.batch_size)
        slot = self._arena.append(
            self._next_tid, raw.stream, raw.values, raw.event_time
        )
        tuple_ = self._arena.view(slot)
        self._next_tid += 1
        self._on_stamped(tuple_, ctx)
        self._buffer_origins.append(ctx.origin_time)
        return tuple_

    def _on_stamped(self, tuple_: StreamTuple, ctx) -> None:
        """Subclass hook: runs once per stamped tuple, before buffering."""

    def _flush_buffer(self, ctx) -> None:
        if not self._buffered():
            return
        if ctx.observing:
            ctx.observe_event(
                "router_flush",
                tuples=self._buffered(),
                opened=self._buffer_opened,
            )
        # The arena belongs to the emitted batch; a fresh one is opened
        # for the next batch, so memory is reclaimed with the batch
        # instead of accumulating for the whole stream.
        ctx.emit(TupleBatch(self._arena.slice(), self._buffer_origins))
        self._arena = None
        self._buffer_origins = []
        self._buffer_opened = None

    def flush(self, ctx) -> None:
        """End-of-stream hook: emit the partial tail batch, if any."""
        self._flush_buffer(ctx)

    # -- recovery -------------------------------------------------------
    #: The router is the topology's id authority: losing ``_next_tid``
    #: (or a buffered partial batch) on a crash would re-stamp ids and
    #: silently corrupt every downstream window.
    checkpointable = True

    def snapshot_state(self) -> dict:
        buffered: List[dict] = []
        arena = self._arena
        if arena is not None:
            num_fields = arena.num_fields or 0
            times = arena.event_time_column().tolist()
            buffered = [
                {
                    "tid": tid,
                    "stream": arena.stream_of(i),
                    "values": (
                        arena.fields[:num_fields, i].tolist()
                        if num_fields
                        else []
                    ),
                    "event_time": times[i],
                }
                for i, tid in enumerate(arena.tid_column().tolist())
            ]
        return {
            "next_tid": self._next_tid,
            "buffered": buffered,
            "buffer_origins": list(self._buffer_origins),
            "buffer_opened": self._buffer_opened,
        }

    def restore_state(self, state: dict) -> None:
        self._next_tid = int(state["next_tid"])
        self._arena = None
        self._buffer_origins = list(state["buffer_origins"])
        self._buffer_opened = state["buffer_opened"]
        if state["buffered"]:
            self._arena = TupleArena(capacity=self.batch_size)
            for entry in state["buffered"]:
                self._arena.append(
                    entry["tid"],
                    entry["stream"],
                    entry["values"],
                    entry["event_time"],
                )
