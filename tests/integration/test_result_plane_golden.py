"""Golden fingerprints across the columnar result plane.

Inside the join results are ``int64`` arrays; every record payload is
still lists of Python ints, byte for byte.  ``result_fingerprint`` hashes
``repr`` of the payloads and ``repr(np.int64(5))`` is not ``repr(5)``, so
one numpy scalar leaking into a ``matches`` list would fork every
fingerprint silently — the parity gates compare runs of the *same* code
with each other and would all still agree.  The constants below were
computed at the parent commit (``a5a06ae``), whose result plane was
Python lists end to end.
"""

from __future__ import annotations

from repro.core.window import WindowSpec
from repro.joins import (
    SPOConfig,
    build_spo_local_topology,
    build_spo_sharded_topology,
    build_spo_topology,
    run_spo,
    run_topology,
)
from repro.parallel import ParallelExecutor, reduce_sharded_result
from repro.workloads import cross_stream, interleave, q1, q3, self_stream, timed

N = 400
WINDOW = WindowSpec.count(150, 50)
BATCH = 7

LOCAL_Q3 = "98a5eaab0def6da5bcd1fb8afa4543a776f3deb2a1d07a070f924202fc3b27b5"
LOCAL_Q1 = "1c69439ece746775f211cdb3ea86ddbb71f146d74307b13e2c1a22095284710c"
FIG3_Q1 = "1f407c39438fbfc0b6eca9f26325233a01ee7d00fc27511724b775a61ea07769"


def self_source():
    return timed(self_stream(N, correlation=0.4, seed=7), rate=1000.0)


def cross_source():
    half = N // 2
    return timed(
        interleave(
            cross_stream(half, "R", seed=7),
            cross_stream(half, "S", is_right=True, seed=8),
        ),
        rate=1000.0,
    )


def match_lists(result, name):
    """Every per-tuple ``matches`` list of the run's ``name`` records."""
    for record in result.records:
        if record.name != name:
            continue
        matches = record.payload["matches"]
        if name == "partial_batch":  # parallel lists, one entry per probe
            yield from matches
        else:
            yield matches


def assert_plain_int_lists(result, name):
    lists = list(match_lists(result, name))
    assert any(lists), name
    for matches in lists:
        assert type(matches) is list
        assert all(type(m) is int for m in matches)


def test_local_self_join_fingerprint():
    result = run_topology(
        build_spo_local_topology(self_source(), q3(), WINDOW, batch_size=BATCH)
    )
    assert result.result_fingerprint() == LOCAL_Q3
    assert_plain_int_lists(result, "result")


def test_local_cross_join_fingerprint():
    """Two mutable windows: the two-role split and its row spreading."""
    result = run_topology(
        build_spo_local_topology(cross_source(), q1(), WINDOW, batch_size=BATCH)
    )
    assert result.result_fingerprint() == LOCAL_Q1
    assert_plain_int_lists(result, "result")


def test_two_shard_fingerprint():
    result = run_topology(
        build_spo_sharded_topology(
            self_source(), q3(), WINDOW, 2, batch_size=BATCH
        )
    )
    assert_plain_int_lists(result, "partial_batch")
    reduce_sharded_result(result)
    assert result.result_fingerprint() == LOCAL_Q3
    assert_plain_int_lists(result, "result")


def test_figure3_topology_fingerprint():
    """``POJoinOperator._probe_run`` builds its ``immutable_result``
    records from ``probe_all_batch``."""
    result = run_spo(
        cross_source(),
        SPOConfig(q1(), WINDOW, num_pojoin_pes=2, batch_size=BATCH),
    )
    assert result.result_fingerprint() == FIG3_Q1
    assert_plain_int_lists(result, "immutable_result")


def test_figure3_topology_on_workers_fingerprint():
    """The Figure-3 topology on two real worker processes: partials,
    runs and merge parts cross process boundaries pickled, and the
    results still match the simulated run's golden digest."""
    result = ParallelExecutor(
        build_spo_topology(
            cross_source(),
            SPOConfig(q1(), WINDOW, num_pojoin_pes=2, batch_size=BATCH),
        ),
        num_workers=2,
    ).run()
    assert result.result_fingerprint() == FIG3_Q1
