"""Router operators: id stamping, batching, cache feeding (strategy B)."""

import json

import pytest

from repro.core import QuerySpec, WindowSpec
from repro.dspe import (
    Engine,
    FlowConfig,
    Grouping,
    Operator,
    RawTuple,
    RouterOperator,
    Topology,
    TupleBatch,
)
from repro.joins import SPOConfig, SPORouterOperator
from repro.workloads import q3


class Sink(Operator):
    def process(self, payload, ctx):
        ctx.record("out", payload)


def router_topology(raws, router_factory):
    topo = Topology()
    topo.add_spout("src", ((r.event_time, r) for r in raws))
    topo.add_bolt("router", router_factory, inputs=[("src", Grouping.shuffle())])
    topo.add_bolt("sink", Sink, inputs=[("router", Grouping.broadcast())])
    return topo


class TestSPORouter:
    def test_ids_monotone_and_event_time_preserved(self):
        raws = [RawTuple("T", (float(i),), i * 0.01) for i in range(30)]
        config = SPOConfig(q3(), WindowSpec.count(10, 5))
        result = Engine(
            router_topology(raws, lambda: SPORouterOperator(config))
        ).run()
        outs = [r.payload for r in result.records_named("out")]
        assert [t.tid for t in outs] == list(range(30))
        assert all(t.event_time == pytest.approx(t.tid * 0.01) for t in outs)

    def test_dc_strategy_feeds_cache(self):
        raws = [RawTuple("T", (float(i),), i * 0.01) for i in range(20)]
        config = SPOConfig(
            q3(), WindowSpec.count(10, 5), state_strategy="dc"
        )
        Engine(router_topology(raws, lambda: SPORouterOperator(config))).run()
        # One cache write per routed tuple (Section 4.2, strategy B).
        assert config.cache.writes == 20
        assert config.cache.latest("spo_tuple_count") == 20

    def test_rr_strategy_leaves_cache_untouched(self):
        raws = [RawTuple("T", (float(i),), i * 0.01) for i in range(20)]
        config = SPOConfig(q3(), WindowSpec.count(10, 5), state_strategy="rr")
        Engine(router_topology(raws, lambda: SPORouterOperator(config))).run()
        assert config.cache.writes == 0


class TestBatchingRouter:
    def _run(self, raws, **router_kw):
        result = Engine(
            router_topology(raws, lambda: RouterOperator(**router_kw))
        ).run()
        return [r.payload for r in result.records_named("out")]

    def test_batch_size_one_emits_bare_tuples(self):
        raws = [RawTuple("T", (float(i),), i * 0.01) for i in range(5)]
        outs = self._run(raws, batch_size=1)
        assert len(outs) == 5
        assert not any(isinstance(p, TupleBatch) for p in outs)

    def test_full_batches_and_tail_flush(self):
        raws = [RawTuple("T", (float(i),), i * 0.01) for i in range(10)]
        outs = self._run(raws, batch_size=4)
        assert all(isinstance(p, TupleBatch) for p in outs)
        assert [len(b) for b in outs] == [4, 4, 2]
        # Stamped ids stay globally monotone across batches.
        tids = [t.tid for b in outs for t in b]
        assert tids == list(range(10))

    def test_batch_origin_time_is_oldest_member(self):
        raws = [RawTuple("T", (float(i),), i * 0.01) for i in range(6)]
        outs = self._run(raws, batch_size=3)
        for batch in outs:
            assert batch.origin_time == min(batch.origin_times)
            assert len(batch.origin_times) == len(batch)

    def test_cut_fn_closes_batch_early(self):
        raws = [RawTuple("T", (float(i),), i * 0.01) for i in range(9)]
        # Cut after every tuple whose id is congruent 2 mod 3.
        outs = self._run(
            raws, batch_size=100, cut_fn=lambda t: t.tid % 3 == 2
        )
        assert [len(b) for b in outs] == [3, 3, 3]

    def test_flush_timeout_limits_batch_age(self):
        raws = [RawTuple("T", (float(i),), i * 0.01) for i in range(8)]
        outs = self._run(raws, batch_size=100, flush_timeout=0.0)
        # Zero tolerance: each arrival flushes the previous buffer, so no
        # batch ever holds more than one tuple.
        assert [len(b) for b in outs] == [1] * 8

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            RouterOperator(batch_size=0)

    def test_flush_timeout_zero_with_arrivals_at_time_zero(self):
        # Every tuple arrives at simulated time 0: a zero timeout means
        # the age test (now - opened >= 0) fires on each arrival even
        # though both terms are 0.0, so no batch holds more than one.
        raws = [RawTuple("T", (float(i),), 0.0) for i in range(6)]
        outs = self._run(raws, batch_size=100, flush_timeout=0.0)
        assert [len(b) for b in outs] == [1] * 6

    def test_buffer_opened_at_time_zero_is_not_treated_as_unset(self):
        # A buffer opened at sim time 0.0 is a real open buffer: with a
        # generous timeout nothing flushes early and the tail flush
        # emits one full batch (an ``if opened:`` truthiness bug would
        # re-open the buffer and split it).
        raws = [RawTuple("T", (float(i),), 0.0) for i in range(6)]
        outs = self._run(raws, batch_size=100, flush_timeout=10.0)
        assert [len(b) for b in outs] == [6]


class SlowSink(Operator):
    def process(self, payload, ctx):
        ctx.charge(0.01)
        ctx.record("out", payload)


class TestRouterUnderBackpressure:
    def test_cut_fn_batches_survive_full_downstream_queue(self):
        # The sink's queue (capacity 1, block policy) fills immediately;
        # credit-based backpressure stalls the router mid-stream.  cut_fn
        # boundaries must still close batches at exactly every third
        # tuple and every batch must eventually be delivered, in order.
        raws = [RawTuple("T", (float(i),), 0.0) for i in range(9)]
        topo = Topology()
        topo.add_spout("src", ((r.event_time, r) for r in raws))
        topo.add_bolt(
            "router",
            lambda: RouterOperator(
                batch_size=100, cut_fn=lambda t: t.tid % 3 == 2
            ),
            inputs=[("src", Grouping.shuffle())],
        )
        topo.add_bolt(
            "sink", SlowSink, inputs=[("router", Grouping.broadcast())]
        )
        result = Engine(
            topo, flow=FlowConfig(queue_capacity=1, policy="block")
        ).run()
        outs = [r.payload for r in result.records_named("out")]
        assert [len(b) for b in outs] == [3, 3, 3]
        assert [t.tid for b in outs for t in b] == list(range(9))
        # The stall was real: at least one sender blocked on the full
        # queue, and nothing was shed.
        assert result.flow.metrics.total_blocks() > 0
        assert result.flow.metrics.total_shed_tuples() == 0


class CaptureCtx:
    """Operator context stub: collects emissions at a settable clock."""

    observing = False

    def __init__(self):
        self.now = 0.0
        self.origin_time = 0.0
        self.emitted = []

    def emit(self, payload, stream=None):
        self.emitted.append(payload)


class TestRouterCheckpoint:
    @staticmethod
    def feed(router, ctx, raws):
        for raw in raws:
            ctx.now = ctx.origin_time = raw.event_time
            router.process(raw, ctx)

    def test_buffered_partial_batch_survives_json_round_trip(self):
        raws = [
            RawTuple("S" if i % 3 == 0 else "R", (float(i), i * 0.5), i * 0.01)
            for i in range(7)
        ]
        straight, want = RouterOperator(batch_size=5), CaptureCtx()
        self.feed(straight, want, raws)
        straight.flush(want)

        crashed, before = RouterOperator(batch_size=5), CaptureCtx()
        self.feed(crashed, before, raws[:3])
        assert before.emitted == []  # three tuples sit in the open batch
        state = json.loads(json.dumps(crashed.snapshot_state()))
        resumed, got = RouterOperator(batch_size=5), CaptureCtx()
        resumed.restore_state(state)
        self.feed(resumed, got, raws[3:])
        resumed.flush(got)

        assert [len(b) for b in got.emitted] == [5, 2]
        for a, b in zip(want.emitted, got.emitted):
            assert a.tuples.tids_list() == b.tuples.tids_list()
            assert [t.stream for t in a] == [t.stream for t in b]
            assert [t.values for t in a] == [t.values for t in b]
            assert (
                a.tuples.event_time_values().tolist()
                == b.tuples.event_time_values().tolist()
            )
            assert a.origin_times == b.origin_times
