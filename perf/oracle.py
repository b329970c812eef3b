"""Brute-force numpy oracle for the windowed inequality joins.

Shares no code with ``repro.core``: it works on the generated columns
(:class:`perf.inputs.Columns`) and knows only the *specification* —
which earlier arrivals a tuple may see, and the predicate as an open
box over the stored tuple's two fields.

Window rule (coarse-grained expiry, ported from
``tests/conftest.py::ReferenceWindowJoin``).  Arrivals are cut into
merge intervals: a count window closes an interval every ``delta``
tuples; a time window arms a deadline ``delta`` seconds after the first
event and closes an interval with the first tuple whose event time
reaches the deadline (the deadline then advances by ``delta``).  A tuple
of interval ``k`` sees every earlier arrival of its own interval plus
the ``retained`` intervals before it, i.e. arrivals
``[starts[max(0, k - retained)], i)``; for a count window that is
``[max(0, (i // delta - retained) * delta), i)``.

Two checks are built on that:

* :meth:`Oracle.match_set` — the exact sorted match set of one tuple, by
  direct comparison against its visible range;
* :meth:`Oracle.total_matches` — the exact number of matches of a range
  of tuples, by 2-D orthogonal range counting (a vectorised merge-sort
  tree), which is what makes an exact total affordable at 10^5 tuples
  against 50k windows.  ``perf/tests`` proves the two agree.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = ["Oracle", "count_intervals", "time_intervals"]

#: Below this many tuples a partial interval is compared directly.
_DIRECT = 128


def count_intervals(n: int, delta: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(interval_of[i], starts[k])`` for a count window."""
    interval_of = np.arange(n, dtype=np.int64) // delta
    starts = np.arange(0, max(n, 1), delta, dtype=np.int64)
    return interval_of, starts


def time_intervals(
    event_times: np.ndarray, delta: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``(interval_of[i], starts[k])`` for a time window."""
    interval_of = np.zeros(len(event_times), dtype=np.int64)
    starts = [0]
    deadline: Optional[float] = None
    for i, at in enumerate(event_times.tolist()):
        interval_of[i] = len(starts) - 1
        if deadline is None:
            deadline = at + delta
        elif at >= deadline:
            deadline += delta
            starts.append(i + 1)  # the firing tuple closes its interval
    return interval_of, np.asarray(starts, dtype=np.int64)


def _box(kind: str, width: float, px, py, probe_side):
    """Open box ``(xlo, xhi, ylo, yhi)`` a stored tuple must fall in.

    ``q3``: ``probe.x > stored.x AND probe.y < stored.y``.
    ``q1``: ``R.x < S.x AND R.y > S.y``; an S probe (side 1) looks for
    stored R tuples like ``q3`` does, an R probe for the mirror image.
    ``q2``: ``|probe.x - stored.x| < w AND |probe.y - stored.y| < w``,
    written as ``probe - w < stored < probe + w`` like the program does
    so both sides round identically.
    """
    if kind == "q2":
        return px - width, px + width, py - width, py + width
    if kind == "q3":
        mirror = np.zeros(len(px), dtype=bool)
    elif kind == "q1":
        mirror = probe_side == 0
    else:
        raise ValueError(f"unknown predicate kind {kind!r}")
    return (
        np.where(mirror, px, -np.inf),
        np.where(mirror, np.inf, px),
        np.where(mirror, -np.inf, py),
        np.where(mirror, py, np.inf),
    )


def _prefix_counts(yrank_by_x: np.ndarray, pos: np.ndarray, rank: np.ndarray):
    """For each query: how many of the first ``pos`` stored tuples (in x
    order) have a y rank below ``rank``.

    Merge-sort tree, one numpy pass per level: level ``l`` holds the y
    ranks in blocks of ``2**l`` consecutive x positions, each block
    sorted.  A prefix ``[0, pos)`` is the disjoint union of one block per
    set bit of ``pos``; adding ``block * stride`` to every rank makes a
    level globally sorted, so one ``searchsorted`` serves all queries.
    """
    m = len(yrank_by_x)
    out = np.zeros(len(pos), dtype=np.int64)
    if m == 0 or len(pos) == 0:
        return out
    stride = m + 1  # ranks are 0..m-1, padding is m, queries are 0..m
    level = 0
    while (1 << level) <= m:
        size = 1 << level
        blocks = -(-m // size)
        padded = np.full(blocks * size, m, dtype=np.int64)
        padded[:m] = yrank_by_x
        keys = np.sort(padded.reshape(blocks, size), axis=1)
        keys += (np.arange(blocks, dtype=np.int64) * stride)[:, None]
        keys = keys.ravel()
        sel = np.nonzero((pos >> level) & 1)[0]
        if len(sel):
            block = (pos[sel] >> (level + 1)) << 1
            found = np.searchsorted(keys, block * stride + rank[sel], "left")
            out[sel] += found - block * size
        level += 1
    return out


def _count_in_boxes(sx, sy, xlo, xhi, ylo, yhi) -> int:
    """Pairs (stored, probe) with the stored tuple inside the probe's box."""
    if len(sx) == 0 or len(xlo) == 0:
        return 0
    by_x = np.argsort(sx, kind="stable")
    xs = sx[by_x]
    by_y = np.argsort(sy, kind="stable")
    ys = sy[by_y]
    yrank = np.empty(len(sy), dtype=np.int64)
    yrank[by_y] = np.arange(len(sy), dtype=np.int64)
    yrank_by_x = yrank[by_x]
    # Strict bounds: stored.x > xlo and stored.x < xhi, same for y.
    p_lo = np.searchsorted(xs, xlo, "right")
    p_hi = np.searchsorted(xs, xhi, "left")
    r_lo = np.searchsorted(ys, ylo, "right")
    r_hi = np.searchsorted(ys, yhi, "left")
    ok = (p_hi > p_lo) & (r_hi > r_lo)
    p_lo, p_hi, r_lo, r_hi = p_lo[ok], p_hi[ok], r_lo[ok], r_hi[ok]
    pos = np.concatenate([p_hi, p_hi, p_lo, p_lo])
    rank = np.concatenate([r_hi, r_lo, r_hi, r_lo])
    hh, hl, lh, ll = np.split(_prefix_counts(yrank_by_x, pos, rank), 4)
    return int((hh - hl - lh + ll).sum())


class Oracle:
    """Reference results for one generated stream.

    ``kind`` is ``"q1"``, ``"q2"`` or ``"q3"``; ``retained`` is the
    number of closed merge intervals a tuple still sees.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        side: np.ndarray,
        interval_of: np.ndarray,
        starts: np.ndarray,
        retained: int,
        kind: str,
        width: float = 0.0,
    ) -> None:
        self.x = x
        self.y = y
        self.side = side
        self.interval_of = interval_of
        self.starts = starts
        self.retained = retained
        self.kind = kind
        self.width = width
        self.two_stream = kind == "q1"

    def visible_from(self, i: int) -> int:
        k = int(self.interval_of[i])
        return int(self.starts[max(0, k - self.retained)])

    def _boxes(self, p_lo: int, p_hi: int):
        return _box(
            self.kind,
            self.width,
            self.x[p_lo:p_hi],
            self.y[p_lo:p_hi],
            self.side[p_lo:p_hi],
        )

    def _direct(self, s_lo: int, s_hi: int, p_lo: int, p_hi: int):
        """Boolean (probe, stored) matrix by direct comparison; a stored
        tuple only counts for probes that arrived after it."""
        xlo, xhi, ylo, yhi = (b[:, None] for b in self._boxes(p_lo, p_hi))
        sx, sy = self.x[s_lo:s_hi], self.y[s_lo:s_hi]
        hit = (sx > xlo) & (sx < xhi) & (sy > ylo) & (sy < yhi)
        hit &= np.arange(s_lo, s_hi) < np.arange(p_lo, p_hi)[:, None]
        if self.two_stream:
            hit &= self.side[s_lo:s_hi] != self.side[p_lo:p_hi, None]
        return hit

    def match_set(self, i: int) -> List[int]:
        """Sorted arrival indexes tuple ``i`` joins with."""
        lo = self.visible_from(i)
        return (np.nonzero(self._direct(lo, i, i, i + 1)[0])[0] + lo).tolist()

    # ------------------------------------------------------------------
    def total_matches(self, first: int, last: int) -> int:
        """Exact ``sum(len(match_set(i)) for i in range(first, last))``."""
        if last <= first:
            return 0
        total = 0
        ends = np.append(self.starts[1:], len(self.x))
        k_first = int(self.interval_of[first])
        k_last = int(self.interval_of[last - 1])
        for k in range(k_first, k_last + 1):
            lo, hi = int(self.starts[k]), int(ends[k])
            p_lo, p_hi = max(lo, first), min(hi, last)
            # Closed intervals this interval's tuples still see.
            s_lo = int(self.starts[max(0, k - self.retained)])
            total += self._pairs(s_lo, lo, p_lo, p_hi)
            # Earlier arrivals of the tuple's own (open) interval.
            total += self._partial(lo, hi, p_lo, p_hi)
        return total

    def _pairs(self, s_lo: int, s_hi: int, p_lo: int, p_hi: int) -> int:
        """Matches of probes ``[p_lo, p_hi)`` against all of
        ``[s_lo, s_hi)`` (every stored tuple precedes every probe)."""
        if s_hi <= s_lo or p_hi <= p_lo:
            return 0
        sx, sy = self.x[s_lo:s_hi], self.y[s_lo:s_hi]
        boxes = self._boxes(p_lo, p_hi)
        if not self.two_stream:
            return _count_in_boxes(sx, sy, *boxes)
        total = 0
        s_side, p_side = self.side[s_lo:s_hi], self.side[p_lo:p_hi]
        for probe_side in (0, 1):
            stored = s_side != probe_side
            probes = p_side == probe_side
            total += _count_in_boxes(
                sx[stored], sy[stored], *(b[probes] for b in boxes)
            )
        return total

    def _partial(self, lo: int, hi: int, p_lo: int, p_hi: int) -> int:
        """Matches of probes ``[p_lo, p_hi)`` against the arrivals of
        ``[lo, hi)`` that precede each probe (divide and conquer on
        arrival order: left half stored, right half probing)."""
        p_lo, p_hi = max(p_lo, lo), min(p_hi, hi)
        if p_hi <= p_lo:
            return 0
        if hi - lo <= _DIRECT:
            return int(self._direct(lo, hi, p_lo, p_hi).sum())
        mid = (lo + hi) // 2
        return (
            self._pairs(lo, mid, max(p_lo, mid), p_hi)
            + self._partial(lo, mid, p_lo, p_hi)
            + self._partial(mid, hi, p_lo, p_hi)
        )
