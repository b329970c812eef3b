"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

import random
from collections import deque
from typing import List

import pytest

from repro.core import JoinType, Op, QuerySpec, StreamTuple, WindowSpec, make_tuple
from repro.core.arena import ArenaTuple
from repro.core.window import MergePolicy

ALL_OPS = [Op.LT, Op.GT, Op.LE, Op.GE, Op.EQ, Op.NE]
INEQ_OPS = [Op.LT, Op.GT, Op.LE, Op.GE]


def random_tuples(
    n: int,
    stream: str = "T",
    start_tid: int = 0,
    lo: int = 0,
    hi: int = 20,
    seed: int = 0,
    num_fields: int = 2,
) -> List[StreamTuple]:
    """Small-domain random tuples (duplicates likely — the hard case)."""
    rng = random.Random(seed)
    return [
        make_tuple(
            start_tid + i,
            stream,
            *(rng.randint(lo, hi) for __ in range(num_fields)),
            event_time=i * 0.001,
        )
        for i in range(n)
    ]


def interleaved_rs(n: int, seed: int = 0, lo: int = 0, hi: int = 25) -> List[StreamTuple]:
    """A mixed R/S arrival order with router-style global ids."""
    rng = random.Random(seed)
    return [
        make_tuple(
            i,
            rng.choice(["R", "S"]),
            rng.randint(lo, hi),
            rng.randint(lo, hi),
            event_time=i * 0.001,
        )
        for i in range(n)
    ]


class NoTupleViews:
    """Context manager failing the test if any ArenaTuple is built.

    The view budget of the batch paths: columns in, columns out, no
    per-row Python object in between.
    """

    def __enter__(self):
        self._orig = ArenaTuple.__init__

        def forbidden(obj, arena, slot):
            raise AssertionError("per-tuple view materialised")

        ArenaTuple.__init__ = forbidden
        return self

    def __exit__(self, *exc):
        ArenaTuple.__init__ = self._orig
        return False


class ReferenceWindowJoin:
    """Brute-force join with SPO-Join's coarse window semantics.

    Mirrors exactly the retention policy of :class:`repro.core.SPOJoin`
    (mutable slice plus ``max_batches`` merge intervals) so algorithm
    outputs can be compared verbatim.
    """

    def __init__(self, query: QuerySpec, window: WindowSpec, sub_intervals: int = 1):
        self.query = query
        self.window = window
        policy = MergePolicy(window, sub_intervals)
        self.delta = policy.delta
        self.max_batches = policy.max_batches
        self.mutable: List[StreamTuple] = []
        self.batches: deque = deque()
        self._counter = 0.0
        self._next_merge_time = None

    def process(self, t: StreamTuple) -> List[int]:
        stored = list(self.mutable)
        for batch in self.batches:
            stored.extend(batch)
        matches = []
        for s in stored:
            if self.query.is_self_join or self.query.join_type in (
                JoinType.CROSS,
                JoinType.EQUI,
            ):
                if not self.query.is_self_join and s.stream == t.stream:
                    continue
            if not self.query.is_self_join and t.stream != "R":
                ok = self.query.matches(s, t)
            else:
                ok = self.query.matches(t, s)
            if ok:
                matches.append(s.tid)
        self.mutable.append(t)
        self._advance(t)
        return sorted(matches)

    def _advance(self, t: StreamTuple) -> None:
        from repro.core import WindowKind

        if self.window.kind is WindowKind.COUNT:
            self._counter += 1
            if self._counter >= self.delta:
                self._counter = 0
                self._merge()
        else:
            if self._next_merge_time is None:
                self._next_merge_time = t.event_time + self.delta
            elif t.event_time >= self._next_merge_time:
                self._merge()
                self._next_merge_time += self.delta

    def _merge(self) -> None:
        if not self.mutable:
            return
        self.batches.append(self.mutable)
        self.mutable = []
        while len(self.batches) > self.max_batches:
            self.batches.popleft()


@pytest.fixture
def q3_query() -> QuerySpec:
    return QuerySpec.two_inequalities("Q3", JoinType.SELF, Op.GT, Op.LT)


@pytest.fixture
def q1_query() -> QuerySpec:
    return QuerySpec.two_inequalities("Q1", JoinType.CROSS, Op.LT, Op.GT)


@pytest.fixture
def q2_query() -> QuerySpec:
    return QuerySpec.band("Q2", width=4.0)
