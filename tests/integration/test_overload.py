"""Overload protection end-to-end: equivalence, composition, quarantine.

The flow layer's acceptance invariants:

* the default engine (``flow=None``, unbounded queues) reproduces, record
  for record, what it emitted when it still had an eager serve path of
  its own (pinned digests);
* a flow config whose capacity is never reached changes **nothing** —
  result fingerprints are bit-identical to the default engine, for
  every policy, with and without an observer attached;
* backpressure composes with the chaos/recovery subsystem (crashes under
  a bounded-queue run still recover to the failure-free results);
* a poison tuple is quarantined to the dead-letter log after
  ``max_attempts`` without crashing the PE, and the ``quarantine`` event
  reaches the exported JSONL trace.
"""

import hashlib
import json
import random

import pytest

from repro.core import WindowSpec
from repro.dspe import (
    Engine,
    FaultConfig,
    FlowConfig,
    Grouping,
    Operator,
    RecoveryConfig,
    RetryPolicy,
    Topology,
)
from repro.dspe.router import RawTuple
from repro.joins import (
    build_chain_topology,
    build_nlj_topology,
    build_spo_local_topology,
    run_topology,
)
from repro.obs import ObsConfig, Observer

WINDOW = WindowSpec.count(100, 20)


def make_raws(n, streams, seed, hi=25):
    rng = random.Random(seed)
    return [
        RawTuple(
            rng.choice(streams),
            (rng.randint(0, hi), rng.randint(0, hi)),
            i * 0.001,
        )
        for i in range(n)
    ]


def source_of(raws):
    return ((raw.event_time, raw) for raw in raws)


# A capacity far above any queue depth these runs produce: the flow
# layer is active (bounded queues, credits, pressure checks) but none of
# its interventions ever fire.
SLACK_FLOW = 10_000


def builders(q3_query, q1_query):
    """Chain, NLJ and SPO-local topologies over seeded streams 21/22/23."""
    chain_raws = make_raws(300, ["NYC"], seed=21)
    nlj_raws = make_raws(300, ["R", "S"], seed=22)
    spo_raws = make_raws(300, ["NYC"], seed=23)
    return [
        lambda: build_chain_topology(
            source_of(chain_raws), q3_query, WINDOW, joiner_pes=2
        ),
        lambda: build_nlj_topology(
            source_of(nlj_raws), q1_query, WINDOW, joiner_pes=2
        ),
        lambda: build_spo_local_topology(
            source_of(spo_raws), q3_query, WINDOW, batch_size=4
        ),
    ]


def records_digest(result):
    """SHA-256 of the ordered records, timestamps and marks included."""
    rows = [
        (
            r.name,
            repr(r.payload),
            r.completion_time,
            r.origin_time,
            sorted(r.marks.items()),
        )
        for r in result.records
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# Digests of the default engine (``flow=None``) at ``time_scale=0.0``,
# computed at commit ``ddb383f``, where ``flow=None`` still had its own
# eager serve path: every delivery was served the moment it was popped,
# bypassing the PE queue.  The single queued serve path must reproduce
# those records exactly — same order, same completion times, same marks.
GOLDEN_RECORDS = [
    "bfafb0d98b1f9585412d15bf1956ceaed3b1c1fbfa8f1b34978770a41dba060e",
    "ba3050881810932b59127fc36fa99c94b8d67bf05b270e208c9e55d606bdc973",
    "dba0fda70f898096d41eccae0e51f6ce5a1bc2a87948ecc4b3a90e594e519c6c",
]


class TestGoldenRecords:
    @pytest.mark.parametrize("index", range(3), ids=["chain", "nlj", "spo_local"])
    def test_default_engine_records_are_pinned(self, q3_query, q1_query, index):
        build = builders(q3_query, q1_query)[index]
        result = run_topology(build(), time_scale=0.0)
        assert records_digest(result) == GOLDEN_RECORDS[index]


class TestFingerprintEquivalence:
    """Unreached capacity == the default engine, bit for bit."""

    @pytest.mark.parametrize("policy", ["block", "shed", "degrade"])
    def test_all_topologies_all_policies(self, q3_query, q1_query, policy):
        for build in builders(q3_query, q1_query):
            baseline = run_topology(build())
            flow = FlowConfig(queue_capacity=SLACK_FLOW, policy=policy)
            managed = run_topology(build(), flow=flow)
            assert (
                managed.result_fingerprint() == baseline.result_fingerprint()
            )
            metrics = managed.flow.metrics
            assert metrics.total_shed_tuples() == 0
            assert metrics.total_blocks() == 0
            assert not managed.dead_letters

    def test_equivalence_holds_under_observation(self, q3_query):
        raws = make_raws(300, ["NYC"], seed=24)

        def build():
            return build_spo_local_topology(
                source_of(raws), q3_query, WINDOW, batch_size=4
            )

        baseline = run_topology(build())
        observed = run_topology(
            build(),
            flow=FlowConfig(queue_capacity=SLACK_FLOW, policy="block"),
            obs=Observer(ObsConfig(tick_interval=0.01)),
        )
        assert observed.result_fingerprint() == baseline.result_fingerprint()

    def test_degrade_joiner_unreached_pressure_is_identity(self, q3_query):
        # degrade_under_pressure wired but never triggered: the joiner
        # must behave exactly like the seed operator (no degraded
        # payload markers, same fingerprint).
        raws = make_raws(300, ["NYC"], seed=25)

        def build(**kw):
            return build_spo_local_topology(
                source_of(raws), q3_query, WINDOW, batch_size=4, **kw
            )

        baseline = run_topology(build())
        managed = run_topology(
            build(degrade_under_pressure=True),
            flow=FlowConfig(queue_capacity=SLACK_FLOW, policy="degrade"),
        )
        assert managed.result_fingerprint() == baseline.result_fingerprint()
        assert not any(
            "degraded" in r.payload for r in managed.records_named("result")
        )


class TestChaosComposition:
    """Backpressure and crash-recovery cooperate on the same run."""

    def test_crashes_under_block_policy_recover_bit_identical(self, q3_query):
        raws = make_raws(400, ["NYC"], seed=26)

        def build():
            return build_spo_local_topology(
                source_of(raws), q3_query, WINDOW, batch_size=4
            )

        baseline = run_topology(build())
        horizon = raws[-1].event_time
        crashed = run_topology(
            build(),
            faults=FaultConfig(crash_rate=3.0, horizon=horizon),
            recovery=RecoveryConfig(checkpoint_interval=0.02),
            fault_seed=11,
            flow=FlowConfig(queue_capacity=64, policy="block"),
        )
        joiner = crashed.pes_of("joiner")[0]
        assert joiner.crashes >= 1  # the chaos actually happened
        assert crashed.result_fingerprint() == baseline.result_fingerprint()
        assert crashed.flow.metrics.total_shed_tuples() == 0


class Poisonous(Operator):
    def __init__(self, poison=7):
        self.poison = poison

    def process(self, payload, ctx):
        ctx.charge(0.001)
        if payload == self.poison:
            raise RuntimeError("poison tuple")
        ctx.record("out", payload)


class TestQuarantineTrace:
    def test_quarantine_event_lands_in_exported_jsonl(self, tmp_path):
        topo = Topology()
        topo.add_spout("src", ((i * 0.001, i) for i in range(20)))
        topo.add_bolt(
            "work", Poisonous, inputs=[("src", Grouping.round_robin())]
        )
        obs = Observer(ObsConfig())
        result = Engine(
            topo,
            flow=FlowConfig(
                queue_capacity=8,
                retry=RetryPolicy(base=0.005, jitter=0.0, max_attempts=3),
            ),
            obs=obs,
        ).run()
        # Quarantined after max attempts; every other tuple served.
        assert len(result.dead_letters) == 1
        assert result.dead_letters[0].attempts == 3
        assert len(result.records_named("out")) == 19
        assert result.pes_of("work")[0].crashes == 0

        out = tmp_path / "trace.jsonl"
        obs.export_jsonl(str(out), meta={"experiment": "quarantine-test"})
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        quarantines = [
            r for r in rows if r["kind"] == "event" and r["event"] == "quarantine"
        ]
        assert len(quarantines) == 1
        assert quarantines[0]["pe"] == "work[0]"
        assert quarantines[0]["attempts"] == 3
        retries = [
            r for r in rows if r["kind"] == "event" and r["event"] == "retry"
        ]
        assert len(retries) == 2
