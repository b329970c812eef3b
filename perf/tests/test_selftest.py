"""Self-test of the benchmark of record (not collected by tier-1).

    PYTHONPATH=src python -m pytest perf/tests -q

Runs every workload at ``--scale 0.02``; under a minute on the reference
host.  It checks the benchmark, not the program: that the names it emits
are the names ``BENCHMARK.json`` declares, that the oracle catches a
planted wrong match, that tracing changes no result and leaves no
wrapper behind, and that no worker process outlives the sharded run.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os

import numpy as np
import pytest

from perf import inputs, oracle, run, single
from perf.trace import LOCAL_TARGETS
from perf.workloads import WORKLOADS

SCALE = 0.02
SEED = 3
SPEC = run.load_spec()
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


@pytest.fixture(scope="module")
def matrix() -> dict:
    return run.run_matrix(list(WORKLOADS), SEED, SCALE, repeats=1, trace=True, spec=SPEC)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_matrix_emits_the_declared_names(matrix):
    layers_seen = set()
    for name, entry in matrix["workloads"].items():
        assert list(entry["end_to_end"]) == END_TO_END, name
        assert all(row["median"] > 0 for row in entry["end_to_end"].values()), name
        layers_seen.update(entry["per_layer"])
    assert layers_seen == set(PER_LAYER)
    sim_only = matrix["workloads"]["q2_band_dist_sim"]["per_layer"]
    local = matrix["workloads"]["q3_dense_b64"]["per_layer"]
    assert "dspe.engine.overhead_share" in sim_only
    assert "dspe.engine.overhead_share" not in local


def test_every_workload_is_correct_and_checked(matrix):
    for name, entry in matrix["workloads"].items():
        assert entry["failed"] == 0 and entry["failed_share"] == 0.0, name
        assert entry["oracle_checked"] > 0, name


def test_traced_and_untraced_runs_agree(matrix):
    # One value each: the traced run saw the same input and produced the
    # same number of matches as the untraced one.
    for name, entry in matrix["workloads"].items():
        assert len(entry["input_sha256"]) == 1, name
        assert len(entry["matches_out"]) == 1, name


def test_traced_region_lands_in_named_layers(matrix):
    layers = matrix["workloads"]["q3_dense_b64"]["per_layer"]
    parts = (
        "core.arena.stamp_s",
        "core.spojoin.self_s",
        "core.mutable.insert_s",
        "core.mutable.probe_s",
        "core.pojoin.probe_s",
        "core.spojoin.merge_s",
        "driver.result_free_s",
        "driver.loop_s",
    )
    total = sum(layers[p]["value"] for p in parts)
    assert total == pytest.approx(layers["trace.region_s"]["value"], rel=1e-6)


@pytest.mark.parametrize("trace", [False, True])
def test_driver_sample_prints_every_declared_metric(trace):
    line = run.run_sample("q3_dense_b64", SEED, seconds=0.3, trace=trace, spec=SPEC)
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == (PER_LAYER if trace else END_TO_END)


def test_inputs_are_a_function_of_the_seed():
    for w in WORKLOADS.values():
        a = inputs.generate(w.shape, 500, 11, **w.shape_params)
        b = inputs.generate(w.shape, 500, 11, **w.shape_params)
        c = inputs.generate(w.shape, 500, 12, **w.shape_params)
        assert a.sha256() == b.sha256() != c.sha256()


def _small_oracle(w, n=4000):
    cols = inputs.generate(w.shape, n, SEED, **w.shape_params)
    kind, length, slide = w.window
    if kind == "count":  # a tenth of the real window keeps it quick
        intervals = oracle.count_intervals(n, int(slide) // 10)
    else:
        intervals = oracle.time_intervals(np.arange(n) / w.event_rate, slide / 10)
    return oracle.Oracle(
        cols.x, cols.y, cols.side, *intervals, w.retained, w.predicate, w.band_width
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_oracle_total_equals_sum_of_match_sets(name):
    ref = _small_oracle(WORKLOADS[name])
    first, last = 1300, 3777
    direct = sum(len(ref.match_set(i)) for i in range(first, last))
    assert direct > 0
    assert ref.total_matches(first, last) == direct


def test_planted_wrong_match_is_counted_as_failed():
    ref = _small_oracle(WORKLOADS["q3_dense_b64"])
    first, last = 1000, 3000
    sampled = {i: ref.match_set(i) for i in range(first, last, 97)}
    total = ref.total_matches(first, last)
    assert single.verify(ref, first, last, sampled, total)["mismatched"] == 0
    victim = next(i for i, got in sampled.items() if got)
    sampled[victim] = sampled[victim][:-1] + [victim]  # a tuple never matches itself
    assert single.verify(ref, first, last, sampled, total)["mismatched"] == 1
    assert single.verify(ref, first, last, sampled, total + 1)["mismatched"] == 2


def test_wrappers_are_removed_after_a_traced_run():
    def current():
        out = []
        for module, owner, attr, __, __ in LOCAL_TARGETS:
            out.append(vars(getattr(importlib.import_module(module), owner))[attr])
        return out

    before = current()
    result = single.run("q3_dense_b64", SEED, SCALE, trace=True)
    assert result["spans"] > 0 and result["failed"] == 0
    assert all(a is b for a, b in zip(before, current()))


def test_no_worker_outlives_the_sharded_run():
    result = single.run("q3_sparse_sharded_w2", SEED, SCALE)
    assert result["failed"] == 0
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # nothing left to reap either
        os.waitpid(-1, os.WNOHANG)
