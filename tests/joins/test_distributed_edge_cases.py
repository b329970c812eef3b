"""Distributed SPO edge cases: band multi-PE, tiny windows, empty streams."""

import random
import time
from collections import defaultdict

import pytest

from repro.core import QuerySpec, SPOJoin, StreamTuple, WindowSpec
from repro.dspe.router import RawTuple
from repro.joins import PredicateOperator, SPOConfig, run_spo


def collect(res):
    combined = defaultdict(set)
    for name in ("mutable_result", "immutable_result"):
        for record in res.records_named(name):
            combined[record.payload["tid"]].update(record.payload["matches"])
    return combined


def local_reference(query, raws, window, sub_intervals=1):
    join = SPOJoin(query, window, sub_intervals=sub_intervals)
    return {
        i: {m for __, m in join.process(
            StreamTuple(i, raw.stream, raw.values, raw.event_time)
        )}
        for i, raw in enumerate(raws)
    }


def nan_raws():
    """300 self-join tuples, every 11th with one NaN field."""
    rng = random.Random(63)
    raws = []
    for i in range(300):
        values = [rng.random(), rng.random()]
        if i % 11 == 0:
            values[i % 2] = float("nan")
        raws.append(RawTuple("NYC", tuple(values), i * 0.001))
    return raws


class TestBandMultiPE:
    def test_band_join_three_pes_complete(self, q2_query):
        rng = random.Random(60)
        raws = [
            RawTuple("NYC", (rng.random(), rng.random()), i * 0.001)
            for i in range(400)
        ]
        window = WindowSpec.count(100, 20)
        expected = local_reference(q2_query, raws, window)
        res = run_spo(
            ((raw.event_time, raw) for raw in raws),
            SPOConfig(q2_query, window, num_pojoin_pes=3),
            num_nodes=3,
        )
        got = collect(res)
        for tid, exp in expected.items():
            assert exp <= got[tid], tid
            assert all(e < tid for e in got[tid] - exp)


class TestDegenerateInputs:
    def test_empty_source(self, q1_query):
        res = run_spo(iter([]), SPOConfig(q1_query, WindowSpec.count(10, 5)))
        assert res.records == []

    def test_single_tuple(self, q1_query):
        raws = [RawTuple("R", (1.0, 2.0), 0.0)]
        res = run_spo(
            ((raw.event_time, raw) for raw in raws),
            SPOConfig(q1_query, WindowSpec.count(10, 5)),
        )
        mutable = res.records_named("mutable_result")
        assert len(mutable) == 1
        assert mutable[0].payload["matches"] == []

    def test_window_of_one_slide(self, q1_query):
        rng = random.Random(61)
        raws = [
            RawTuple(rng.choice(["R", "S"]),
                     (rng.randint(0, 10), rng.randint(0, 10)), i * 0.001)
            for i in range(150)
        ]
        window = WindowSpec.count(30, 30)
        expected = local_reference(q1_query, raws, window)
        res = run_spo(
            ((raw.event_time, raw) for raw in raws),
            SPOConfig(q1_query, window, num_pojoin_pes=1),
        )
        got = collect(res)
        for tid, exp in expected.items():
            assert got[tid] == exp, tid

    @pytest.mark.parametrize("evaluator", ["bit", "hash"])
    def test_nan_values_distributed(self, q3_query, evaluator):
        # Regression: the predicate PEs' field windows used to index NaN
        # keys (corrupting the B+-tree ordering, so drained runs reached
        # the immutable tier mis-sorted) and NaN probe values were handed
        # to range_search as bounds its stop condition never fires on —
        # batch sizes 1 and 7 disagreed and both disagreed with the local
        # SPOJoin.  NaN now matches nothing on either side, identically
        # at every batch size.
        raws = nan_raws()
        window = WindowSpec.count(120, 30)
        expected = local_reference(q3_query, raws, window)
        per_batch = []
        for batch_size in (1, 7):
            res = run_spo(
                ((raw.event_time, raw) for raw in raws),
                SPOConfig(
                    q3_query, window, num_pojoin_pes=1,
                    evaluator=evaluator, batch_size=batch_size,
                ),
            )
            per_batch.append(collect(res))
        assert per_batch[0] == per_batch[1]
        nan_tids = {i for i in range(300) if i % 11 == 0}
        for tid, exp in expected.items():
            assert per_batch[0][tid] == exp, tid
            if tid in nan_tids:
                assert not exp
            assert not (per_batch[0][tid] & nan_tids), tid

    @pytest.mark.parametrize("batch_size", [1, 7])
    def test_host_pause_loses_no_result(self, q3_query, monkeypatch, batch_size):
        # A host pause in one predicate PE (GC, a busy neighbour) puts it
        # merge intervals behind the other.  Partials carry their own
        # slot map, so the late ones still decode: every probe gets its
        # one mutable result and the union stays exact.
        process = PredicateOperator.process
        calls = []

        def paused(self, payload, ctx):
            if self.pred_idx == 0:
                calls.append(None)
                if len(calls) == 5:
                    time.sleep(0.25)
            process(self, payload, ctx)

        monkeypatch.setattr(PredicateOperator, "process", paused)
        raws = nan_raws()
        window = WindowSpec.count(120, 30)
        res = run_spo(
            ((raw.event_time, raw) for raw in raws),
            SPOConfig(q3_query, window, num_pojoin_pes=1, batch_size=batch_size),
        )
        assert len(calls) >= 5
        mutable = sorted(
            r.payload["tid"] for r in res.records_named("mutable_result")
        )
        assert mutable == list(range(len(raws)))
        got = collect(res)
        for tid, exp in local_reference(q3_query, raws, window).items():
            assert got[tid] == exp, tid

    def test_more_pes_than_merges(self, q3_query):
        # 8 PO-Join PEs but only ~3 merges: most PEs never own a batch.
        rng = random.Random(62)
        raws = [
            RawTuple("NYC", (rng.random(), rng.random()), i * 0.001)
            for i in range(70)
        ]
        window = WindowSpec.count(60, 20)
        expected = local_reference(q3_query, raws, window)
        res = run_spo(
            ((raw.event_time, raw) for raw in raws),
            SPOConfig(q3_query, window, num_pojoin_pes=8),
            num_nodes=4,
        )
        got = collect(res)
        for tid, exp in expected.items():
            assert exp <= got[tid], tid
