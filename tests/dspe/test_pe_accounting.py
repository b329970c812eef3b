"""PE accounting: utilization, queue waits, core contention."""

import pytest

from repro.dspe import Engine, Grouping, Operator, ProcessingElement, Topology


class FixedCost(Operator):
    def __init__(self, cost):
        self.cost = cost

    def process(self, payload, ctx):
        ctx.charge(self.cost)


def burst_topology(n, factory, parallelism=1):
    topo = Topology()
    topo.add_spout("src", ((0.0, i) for i in range(n)))
    topo.add_bolt(
        "work", factory, parallelism=parallelism,
        inputs=[("src", Grouping.round_robin())],
    )
    return topo


class TestWaitAccounting:
    def test_burst_accumulates_wait(self):
        engine = Engine(
            burst_topology(10, lambda: FixedCost(0.01)),
            net_delay_local=0.0,
            net_delay_remote=0.0,
        )
        result = engine.run()
        pe = result.pes_of("work")[0]
        # Tuple k waits k * 0.01s: total = 0.45s, max = 0.09s.
        assert pe.wait_time == pytest.approx(0.45, rel=0.01)
        assert pe.wait_max == pytest.approx(0.09, rel=0.01)
        assert pe.mean_wait() == pytest.approx(0.045, rel=0.01)

    def test_idle_pe_never_waits(self):
        engine = Engine(burst_topology(0, lambda: FixedCost(0.01)))
        result = engine.run()
        pe = result.pes_of("work")[0]
        assert pe.wait_time == 0.0
        assert pe.mean_wait() == 0.0

    def test_utilization(self):
        engine = Engine(burst_topology(10, lambda: FixedCost(0.01)))
        result = engine.run()
        pe = result.pes_of("work")[0]
        assert pe.utilization(result.sim_end) == pytest.approx(1.0, rel=0.05)
        assert pe.utilization(0) == 0.0


class TestZeroProcessedGuards:
    """Direct-unit guards: a PE that served nothing reports idle."""

    def _pe(self):
        return ProcessingElement("work", 0, 0, FixedCost(0.01))

    def test_mean_wait_zero_when_nothing_processed(self):
        pe = self._pe()
        assert pe.mean_wait() == 0.0
        # Even with stale accumulated wait (e.g. from held redeliveries
        # that never got served), processed == 0 must yield 0.0, not a
        # division error or a garbage ratio.
        pe.wait_time = 1.5
        assert pe.mean_wait() == 0.0

    def test_utilization_zero_when_nothing_processed(self):
        pe = self._pe()
        assert pe.utilization(10.0) == 0.0
        assert pe.utilization(0.0) == 0.0
        assert pe.utilization(-1.0) == 0.0

    def test_utilization_counts_busy_time_without_messages(self):
        # Checkpoint overhead charges busy_time without bumping
        # processed; that time is real occupancy, not idleness.
        pe = self._pe()
        pe.busy_time = 0.5
        assert pe.utilization(10.0) == pytest.approx(0.05)


class TestCoreContention:
    def test_single_core_serializes_parallel_pes(self):
        # 4 PEs on one 1-core node: their service must serialize.
        engine = Engine(
            burst_topology(8, lambda: FixedCost(0.01), parallelism=4),
            num_nodes=1,
            cores_per_node=1,
            net_delay_local=0.0,
            net_delay_remote=0.0,
        )
        assert engine.run().sim_end == pytest.approx(0.08, rel=0.02)

    def test_plenty_of_cores_restore_parallelism(self):
        engine = Engine(
            burst_topology(8, lambda: FixedCost(0.01), parallelism=4),
            num_nodes=1,
            cores_per_node=8,
            net_delay_local=0.0,
            net_delay_remote=0.0,
        )
        assert engine.run().sim_end == pytest.approx(0.02, rel=0.05)

    def test_invalid_cores_rejected(self):
        with pytest.raises(ValueError):
            Engine(burst_topology(1, lambda: FixedCost(0.01)), cores_per_node=0)


class TestTimingValidation:
    """Inputs that would make simulated time run backwards are refused."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"time_scale": -1.0},
            {"net_delay_local": -1e-6},
            {"net_delay_remote": -1e-6},
            {"redelivery_timeout": 0.0},
            {"redelivery_timeout": -0.01},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Engine(burst_topology(1, lambda: FixedCost(0.01)), **kwargs)

    def test_zero_time_scale_accepted(self):
        # Charged costs still apply; measured costs count for nothing.
        result = Engine(
            burst_topology(3, lambda: FixedCost(0.01)),
            time_scale=0.0,
            net_delay_local=0.0,
            net_delay_remote=0.0,
        ).run()
        assert result.sim_end == pytest.approx(0.03)


class TestChargeValidation:
    def test_negative_charge_rejected(self):
        class BadCharge(Operator):
            def process(self, payload, ctx):
                ctx.charge(-1.0)

        engine = Engine(burst_topology(1, BadCharge))
        with pytest.raises(ValueError):
            engine.run()

    def test_time_scale_multiplies_measured_cost(self):
        import time

        class Busy(Operator):
            def process(self, payload, ctx):
                t0 = time.perf_counter()
                while time.perf_counter() - t0 < 0.002:
                    pass

        slow = Engine(
            burst_topology(3, Busy), time_scale=100.0,
            net_delay_local=0.0, net_delay_remote=0.0,
        ).run()
        fast = Engine(
            burst_topology(3, Busy), time_scale=1.0,
            net_delay_local=0.0, net_delay_remote=0.0,
        ).run()
        assert slow.sim_end > 10 * fast.sim_end
