"""Overload protection: bounded queues, backpressure, shedding, retries.

Unit-level coverage of :mod:`repro.dspe.flow` plus small engine runs
that exercise each full-queue policy and the poison-tuple quarantine
path in isolation (the integration suite checks fingerprint equivalence
against the default, unbounded engine).
"""

import random

import pytest

from repro.dspe import (
    Engine,
    FlowConfig,
    Grouping,
    Operator,
    RetryPolicy,
    Topology,
)
from repro.dspe.flow import WAIT_SAMPLES, FlowController
from repro.dspe.pe import ProcessingElement


class Sink(Operator):
    def process(self, payload, ctx):
        ctx.record("out", payload)


class SlowSink(Operator):
    def __init__(self, cost=0.01):
        self.cost = cost

    def process(self, payload, ctx):
        ctx.charge(self.cost)
        ctx.record("out", payload)


def burst_topology(n, factory, at=0.0):
    """n tuples all offered at the same instant (the overload shape)."""
    topo = Topology()
    topo.add_spout("src", ((at, i) for i in range(n)))
    topo.add_bolt("work", factory, inputs=[("src", Grouping.round_robin())])
    return topo


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base=0.01, factor=2.0, max_delay=0.05, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(a, rng, 0.01) for a in range(1, 6)]
        assert delays == pytest.approx([0.01, 0.02, 0.04, 0.05, 0.05])

    def test_base_none_inherits_engine_default(self):
        policy = RetryPolicy(base=None, factor=2.0, jitter=0.0)
        rng = random.Random(0)
        assert policy.delay(1, rng, 0.03) == pytest.approx(0.03)
        assert policy.delay(2, rng, 0.03) == pytest.approx(0.06)

    def test_jitter_is_seed_deterministic(self):
        policy = RetryPolicy(base=0.01, jitter=0.25)
        a = [policy.delay(k, random.Random(7), 0.01) for k in range(1, 5)]
        b = [policy.delay(k, random.Random(7), 0.01) for k in range(1, 5)]
        c = [policy.delay(k, random.Random(8), 0.01) for k in range(1, 5)]
        assert a == b
        assert a != c
        # Jitter only ever lengthens the delay, bounded by the fraction.
        for k, d in enumerate(a, start=1):
            nominal = min(0.01 * 2.0 ** (k - 1), policy.max_delay)
            assert nominal <= d < nominal * 1.25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base": 0.0},
            {"base": -1.0},
            {"factor": 0.5},
            {"max_delay": 0.0},
            {"jitter": -0.1},
            {"jitter": 1.0},
            {"max_attempts": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0, random.Random(0), 0.01)


# ----------------------------------------------------------------------
# FlowConfig
# ----------------------------------------------------------------------
class TestFlowConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_capacity": 0},
            {"policy": "panic"},
            {"drop": "random"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FlowConfig(**kwargs)

    def test_release_depth_is_half_capacity(self):
        assert FlowConfig(queue_capacity=24).release_depth == 12
        assert FlowConfig(queue_capacity=1).release_depth == 0
        assert FlowConfig().release_depth == 0


class TestFlowController:
    def test_unbounded_setting_has_no_retry_policy(self):
        # flow=None: the one policy on record is the one in force.
        assert FlowController().config.retry is None
        assert FlowController().retry_delay(3, 0.02) == 0.02
        assert isinstance(FlowController(FlowConfig()).config.retry, RetryPolicy)

    def test_wait_sample_is_bounded_and_evenly_spread(self):
        state = FlowController().register(ProcessingElement("work", 0, 0, Sink()))
        n = 3 * WAIT_SAMPLES
        for i in range(n):
            state.record_wait(float(i))
        assert WAIT_SAMPLES // 2 <= len(state.waits) < WAIT_SAMPLES
        assert state.waits == [float(i) for i in range(0, n, state.wait_stride)]

    def test_every_serving_pe_reports_waits(self):
        result = Engine(burst_topology(20, lambda: SlowSink(0.01))).run()
        waits = result.flow.metrics.waits["work[0]"]
        assert len(waits) == 20
        assert waits == sorted(waits) and waits[-1] == pytest.approx(0.19)


# ----------------------------------------------------------------------
# block policy
# ----------------------------------------------------------------------
class TestBlockPolicy:
    def test_nothing_lost_and_wait_bounded(self):
        cost, cap, n = 0.01, 4, 20
        result = Engine(
            burst_topology(n, lambda: SlowSink(cost)),
            flow=FlowConfig(queue_capacity=cap, policy="block"),
            net_delay_local=0.0,
            net_delay_remote=0.0,
        ).run()
        outs = [r.payload for r in result.records_named("out")]
        assert outs == list(range(n))  # everything, in order
        pe = result.pes_of("work")[0]
        # Admission control bounds the queue: nothing waits longer than
        # a full queue's worth of service (small slack for the zero-cost
        # spout hop).
        assert pe.wait_max <= cap * cost * 1.01
        assert pe.queue_peak <= cap
        metrics = result.flow.metrics
        assert metrics.total_shed_tuples() == 0
        assert metrics.total_blocks() > 0
        assert metrics.total_blocked_s() > 0.0

    def test_unbounded_capacity_never_blocks(self):
        result = Engine(
            burst_topology(10, lambda: SlowSink(0.01)),
            flow=FlowConfig(queue_capacity=None, policy="block"),
        ).run()
        assert len(result.records_named("out")) == 10
        assert result.flow.metrics.total_blocks() == 0


# ----------------------------------------------------------------------
# shed policy
# ----------------------------------------------------------------------
class TestShedPolicy:
    def _run(self, drop, n=10, cap=2):
        # Default (nonzero) net delays: the whole burst arrives at the
        # sink in one instant, before its first service fires, so which
        # tuples survive is deterministic.
        return Engine(
            burst_topology(n, lambda: SlowSink(0.01)),
            flow=FlowConfig(queue_capacity=cap, policy="shed", drop=drop),
        ).run()

    def test_drop_newest_keeps_head_of_burst(self):
        result = self._run("newest")
        outs = [r.payload for r in result.records_named("out")]
        # The burst lands at once: the first `cap` fill the queue, the
        # rest are dropped on arrival.
        assert outs == [0, 1]
        assert result.flow.metrics.total_shed_tuples() == 8

    def test_drop_oldest_keeps_tail_of_burst(self):
        result = self._run("oldest")
        outs = [r.payload for r in result.records_named("out")]
        assert outs == [8, 9]
        assert result.flow.metrics.total_shed_tuples() == 8

    def test_shed_records_match_metrics_exactly(self):
        result = self._run("newest", n=17, cap=3)
        sheds = result.records_named("shed")
        metrics = result.flow.metrics
        assert len(sheds) == sum(metrics.shed_messages.values())
        assert (
            sum(r.payload["tuples"] for r in sheds)
            == metrics.total_shed_tuples()
        )
        # Conservation: every offered tuple was either served or shed.
        served = len(result.records_named("out"))
        assert served + metrics.total_shed_tuples() == 17

    def test_no_shedding_below_capacity(self):
        result = self._run("newest", n=2, cap=4)
        assert len(result.records_named("out")) == 2
        assert result.flow.metrics.total_shed_tuples() == 0
        assert not result.records_named("shed")


# ----------------------------------------------------------------------
# degrade policy (pressure signal)
# ----------------------------------------------------------------------
class PressureProbe(Operator):
    def process(self, payload, ctx):
        ctx.charge(0.01)
        ctx.record("out", {"payload": payload, "pressure": ctx.pressure})


class TestDegradePolicy:
    def test_pressure_latch_with_hysteresis(self):
        n, cap = 20, 4
        result = Engine(
            burst_topology(n, PressureProbe),
            flow=FlowConfig(queue_capacity=cap, policy="degrade"),
            net_delay_local=0.0,
            net_delay_remote=0.0,
        ).run()
        outs = [r.payload for r in result.records_named("out")]
        assert [o["payload"] for o in outs] == list(range(n))  # no loss
        flags = [o["pressure"] for o in outs]
        # The burst fills the bounded queue, so pressure rises...
        assert any(flags)
        # ... and clears only once the backlog drains to the release
        # depth: the tail of the run is served unpressured.
        assert flags[-1] is False
        metrics = result.flow.metrics
        # Admission control is the same as under block: the queue never
        # exceeds capacity and the excess burst stalls upstream instead.
        assert metrics.high_watermarks["work[0]"] <= cap
        assert sum(metrics.queue_full_events.values()) >= 1
        assert metrics.total_blocks() > 0
        assert metrics.total_shed_tuples() == 0

    def test_pressure_flag_false_without_flow_layer(self):
        result = Engine(burst_topology(5, PressureProbe)).run()
        assert all(
            o.payload["pressure"] is False for o in result.records_named("out")
        )


# ----------------------------------------------------------------------
# poison tuples -> retry -> quarantine
# ----------------------------------------------------------------------
class Poisonous(Operator):
    """Raises on one payload, forever; processes everything else."""

    def __init__(self, poison=3):
        self.poison = poison

    def process(self, payload, ctx):
        ctx.charge(0.001)
        if payload == self.poison:
            raise RuntimeError(f"poison payload {payload}")
        ctx.record("out", payload)


class TestPoisonQuarantine:
    def _run(self, max_attempts=3, n=8):
        return Engine(
            burst_topology(n, Poisonous),
            flow=FlowConfig(
                queue_capacity=4,
                policy="block",
                retry=RetryPolicy(
                    base=0.005, jitter=0.0, max_attempts=max_attempts
                ),
            ),
        ).run()

    def test_poison_is_quarantined_and_pe_survives(self):
        result = self._run(max_attempts=3)
        outs = sorted(r.payload for r in result.records_named("out"))
        assert outs == [0, 1, 2, 4, 5, 6, 7]  # everything but the poison
        assert len(result.dead_letters) == 1
        entry = result.dead_letters[0]
        assert entry.pe == "work[0]"
        assert entry.attempts == 3
        assert "poison payload 3" in entry.error
        pe = result.pes_of("work")[0]
        assert pe.crashes == 0  # quarantine, not a crash-loop
        metrics = result.flow.metrics
        assert metrics.retries == 2  # attempts 1 and 2 were retried
        assert metrics.quarantined_messages == 1

    def test_quarantine_record_emitted(self):
        result = self._run(max_attempts=2)
        records = result.records_named("quarantined")
        assert len(records) == 1
        assert records[0].payload["attempts"] == 2

    def test_max_attempts_one_quarantines_immediately(self):
        result = self._run(max_attempts=1)
        assert result.flow.metrics.retries == 0
        assert len(result.dead_letters) == 1

    def test_failure_without_flow_layer_still_raises(self):
        # flow=None configures no retry policy, so operator exceptions
        # propagate (the recovery layer or the caller deals with them).
        with pytest.raises(RuntimeError, match="poison"):
            Engine(burst_topology(5, Poisonous)).run()


# ----------------------------------------------------------------------
# spout redelivery cap
# ----------------------------------------------------------------------
class TestRedeliveryCap:
    def test_exhausted_redeliveries_surface_on_result(self):
        # With max_redeliveries=0 every lost delivery is immediately
        # exhausted: the tuple is dropped and counted, never retried.
        engine = Engine(
            burst_topology(300, Sink),
            spout_loss_rate=0.2,
            loss_seed=3,
            max_redeliveries=0,
        )
        result = engine.run()
        assert result.redeliveries_exhausted > 0
        assert result.redeliveries == 0
        served = len(result.records_named("out"))
        dropped = len(result.records_named("redelivery_exhausted"))
        assert dropped == result.redeliveries_exhausted
        assert served + dropped == 300
        # Every run has a PE-queue layer, so the drops are dead-lettered
        # even without a FlowConfig.
        assert len(result.dead_letters) == result.redeliveries_exhausted
        assert all(d.pe == "source:src" for d in result.dead_letters)

    def test_exhausted_drops_dead_letter_with_flow(self):
        engine = Engine(
            burst_topology(300, Sink),
            spout_loss_rate=0.2,
            loss_seed=3,
            max_redeliveries=0,
            flow=FlowConfig(),
        )
        result = engine.run()
        assert result.redeliveries_exhausted > 0
        assert len(result.dead_letters) == result.redeliveries_exhausted
        assert all(d.pe == "source:src" for d in result.dead_letters)

    def test_generous_cap_matches_uncapped_results(self):
        # The default cap (100) is far above what 20% loss needs, so the
        # run is lossless and the exhausted counter stays zero.
        engine = Engine(
            burst_topology(300, Sink), spout_loss_rate=0.2, loss_seed=3
        )
        result = engine.run()
        assert result.redeliveries_exhausted == 0
        assert len(result.records_named("out")) == 300

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            Engine(burst_topology(1, Sink), max_redeliveries=-1)
