"""Distributed SPO-Join topology vs the local operator."""

import random
from collections import defaultdict

import pytest

from repro.core import (
    JoinType,
    Op,
    QuerySpec,
    SPOJoin,
    StreamTuple,
    WindowSpec,
)
from repro.dspe.router import RawTuple
from repro.joins import CSSImmutableBatch, LogicalOperator, SPOConfig, run_spo

from ..conftest import ReferenceWindowJoin


def make_raws(n, streams, seed, hi=25, int_vals=True):
    rng = random.Random(seed)
    raws = []
    for i in range(n):
        if int_vals:
            values = (rng.randint(0, hi), rng.randint(0, hi))
        else:
            values = (rng.random(), rng.random())
        raws.append(RawTuple(rng.choice(streams), values, i * 0.001))
    return raws


def source_of(raws):
    def gen():
        for raw in raws:
            yield raw.event_time, raw
    return gen()


def distributed_results(res):
    combined = defaultdict(set)
    for name in ("mutable_result", "immutable_result"):
        for record in res.records_named(name):
            combined[record.payload["tid"]].update(record.payload["matches"])
    return combined


def local_results(query, raws, window, sub_intervals=1):
    join = SPOJoin(query, window, sub_intervals=sub_intervals)
    out = {}
    for i, raw in enumerate(raws):
        t = StreamTuple(i, raw.stream, raw.values, raw.event_time)
        out[i] = {m for __, m in join.process(t)}
    return out


WINDOW = WindowSpec.count(100, 20)


class TestExactness:
    """With one PO-Join PE, expiry is prompt and results are exact."""

    def test_cross_join(self, q1_query):
        raws = make_raws(500, ["R", "S"], seed=30)
        res = run_spo(source_of(raws), SPOConfig(q1_query, WINDOW, num_pojoin_pes=1))
        assert distributed_results(res) == defaultdict(
            set, local_results(q1_query, raws, WINDOW)
        )

    def test_self_join(self, q3_query):
        raws = make_raws(400, ["NYC"], seed=31, int_vals=False)
        res = run_spo(source_of(raws), SPOConfig(q3_query, WINDOW, num_pojoin_pes=1))
        assert distributed_results(res) == defaultdict(
            set, local_results(q3_query, raws, WINDOW)
        )

    def test_band_join_time_window(self, q2_query):
        raws = make_raws(400, ["NYC"], seed=32, int_vals=False)
        window = WindowSpec.time(0.1, 0.02)
        res = run_spo(source_of(raws), SPOConfig(q2_query, window, num_pojoin_pes=1))
        assert distributed_results(res) == defaultdict(
            set, local_results(q2_query, raws, window)
        )

    def test_equi_join(self):
        q = QuerySpec.equi("qe")
        rng = random.Random(33)
        raws = [
            RawTuple(rng.choice(["R", "S"]), (rng.randrange(20),), i * 0.001)
            for i in range(400)
        ]
        res = run_spo(source_of(raws), SPOConfig(q, WINDOW, num_pojoin_pes=1))
        assert distributed_results(res) == defaultdict(
            set, local_results(q, raws, WINDOW)
        )

    def test_hash_evaluator(self, q1_query, monkeypatch):
        # The logical PEs must really intersect hash-table partials, not
        # bit partials the evaluator flag failed to switch off.
        seen = []
        process = LogicalOperator.process

        def spy(self, payload, ctx):
            seen.append(type(payload.partial))
            process(self, payload, ctx)

        monkeypatch.setattr(LogicalOperator, "process", spy)
        raws = make_raws(400, ["R", "S"], seed=34)
        res = run_spo(
            source_of(raws),
            SPOConfig(q1_query, WINDOW, num_pojoin_pes=1, evaluator="hash"),
        )
        assert seen and set(seen) == {list}
        assert distributed_results(res) == defaultdict(
            set, local_results(q1_query, raws, WINDOW)
        )

    def test_css_immutable_variant(self, q1_query):
        raws = make_raws(400, ["R", "S"], seed=35)
        res = run_spo(
            source_of(raws),
            SPOConfig(
                q1_query,
                WINDOW,
                num_pojoin_pes=1,
                batch_factory=lambda q, mb: CSSImmutableBatch(q, mb),
            ),
        )
        assert distributed_results(res) == defaultdict(
            set, local_results(q1_query, raws, WINDOW)
        )


class TestMultiPE:
    """Multiple PO-Join PEs: no result is lost; extras only from expiry lag."""

    @pytest.mark.parametrize("strategy", ["rr", "dc"])
    def test_superset_with_expired_extras_only(self, q1_query, strategy):
        raws = make_raws(600, ["R", "S"], seed=36)
        res = run_spo(
            source_of(raws),
            SPOConfig(
                q1_query,
                WINDOW,
                num_pojoin_pes=3,
                state_strategy=strategy,
                cache_sync_interval=0.002,
            ),
            num_nodes=3,
        )
        got = distributed_results(res)
        expected = local_results(q1_query, raws, WINDOW)
        for tid, exp in expected.items():
            extras = got[tid] - exp
            assert exp <= got[tid], tid  # completeness
            # Any extra match must be an already-expired (older) tuple.
            assert all(e < tid for e in extras), (tid, extras)

    def test_merge_batches_round_robin_over_pes(self, q3_query):
        raws = make_raws(400, ["NYC"], seed=37, int_vals=False)
        res = run_spo(
            source_of(raws), SPOConfig(q3_query, WINDOW, num_pojoin_pes=4),
            num_nodes=4,
        )
        built = res.records_named("merge_built")
        pes = defaultdict(int)
        for record in built:
            pes[record.payload["pe"]] += 1
        assert len(pes) == 4  # all PEs received merges
        assert max(pes.values()) - min(pes.values()) <= 1

    def test_flag_queue_drains(self, q3_query):
        raws = make_raws(300, ["NYC"], seed=38, int_vals=False)
        res = run_spo(source_of(raws), SPOConfig(q3_query, WINDOW, num_pojoin_pes=1))
        drains = res.records_named("queue_drained")
        assert drains, "merge boundaries should buffer and drain tuples"
        # Every routed tuple got an immutable probe exactly once.
        probes = res.records_named("immutable_result")
        tids = sorted(r.payload["tid"] for r in probes)
        assert tids == list(range(300))


class TestCorrectnessExperiment:
    """Figure 18: provenance on/off at the logical operator."""

    @staticmethod
    def burst():
        raws = make_raws(800, ["R", "S"], seed=39)
        for raw in raws:
            raw.event_time = 0.0  # burst: everything arrives at once
        return raws

    @pytest.mark.parametrize(
        "window", [WINDOW, WindowSpec.count(800, 400)], ids=["slide20", "slide400"]
    )
    def test_without_provenance_correctness_drops(self, q1_query, window):
        # A burst arrival backlogs both predicate PEs; because their
        # service times differ, partials of different tuples interleave at
        # the logical PE — the out-of-order hazard of Section 4.3.
        res = run_spo(
            source_of(self.burst()),
            SPOConfig(q1_query, window, num_pojoin_pes=1, use_provenance=False),
            logical_pes=1,
        )
        records = res.records_named("mutable_result")
        incorrect = [r for r in records if not r.payload["correct"]]
        assert incorrect, "overwrite semantics should mispair some tuples"

    def test_with_provenance_always_correct(self, q1_query):
        raws = make_raws(400, ["R", "S"], seed=40)
        res = run_spo(
            source_of(raws),
            SPOConfig(q1_query, WINDOW, num_pojoin_pes=1, use_provenance=True),
            logical_pes=1,
        )
        records = res.records_named("mutable_result")
        assert records and all(r.payload["correct"] for r in records)
        # Exactly one mutable result per probe tuple: none lost, none twice.
        assert sorted(r.payload["tid"] for r in records) == list(range(400))

    @pytest.mark.parametrize("slide", [20, 150])
    def test_burst_recall_with_provenance(self, q1_query, slide):
        """Under a burst the predicate PEs run far behind the router; every
        probe still gets its one mutable result, and the union with the
        immutable results is the reference join's, tuple by tuple."""
        raws = self.burst()
        window = WindowSpec.count(max(100, 2 * slide), slide)
        res = run_spo(
            source_of(raws),
            SPOConfig(q1_query, window, num_pojoin_pes=1),
            logical_pes=1,
        )
        mutable = sorted(
            r.payload["tid"] for r in res.records_named("mutable_result")
        )
        assert mutable == list(range(len(raws)))
        reference = ReferenceWindowJoin(q1_query, window)
        got = distributed_results(res)
        for i, raw in enumerate(raws):
            t = StreamTuple(i, raw.stream, raw.values, raw.event_time)
            assert got[i] == set(reference.process(t)), i
