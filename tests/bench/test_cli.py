"""Experiment CLI: argument handling and a smoke run."""

import pytest

from repro.bench.cli import EXPERIMENTS, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_invalid_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_run_single_experiment(self, capsys):
        assert main(["equijoin"]) == 0
        out = capsys.readouterr().out
        assert "hash join" in out
        assert "completed 1 experiment(s)" in out

    def test_experiment_set_is_the_eight_survivors(self):
        # Timing lives in perf/, gates live in tier-1: a retired
        # experiment (or an orphan BENCH.json entry for one) must not
        # come back unnoticed.
        import json
        import pathlib

        assert set(EXPERIMENTS) == {
            "throughput", "designs", "crossjoin", "equijoin",
            "trace", "report", "recovery", "overload",
        }
        bench = pathlib.Path(__file__).parents[2] / "BENCH.json"
        assert set(json.loads(bench.read_text())) <= set(EXPERIMENTS)

    @pytest.mark.parametrize(
        "option", ["--batch-size=16", "--workers=1,2", "--kill-rate=1.0"]
    )
    def test_removed_options_rejected(self, option):
        with pytest.raises(SystemExit):
            main(["--list", option])

    def test_json_out_merges_experiments(self, capsys, tmp_path):
        out_file = tmp_path / "bench.json"
        assert main(["trace", "--json-out", str(out_file)]) == 0
        assert main(["recovery", "--json-out", str(out_file)]) == 0
        capsys.readouterr()
        import json

        payload = json.loads(out_file.read_text())
        assert set(payload) == {"trace", "recovery"}

    def test_recovery_experiment(self, capsys, tmp_path):
        out_file = tmp_path / "bench_recovery.json"
        assert main(
            ["recovery", "--checkpoint-interval", "0.04",
             "--json-out", str(out_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "Recovery vs checkpoint interval" in out
        import json

        payload = json.loads(out_file.read_text())["recovery"]
        intervals = [r["checkpoint_interval_s"] for r in payload["results"]]
        assert intervals == [0.02, 0.04, 0.08]
        assert all(r["result_identical"] for r in payload["results"])
        assert all(r["divergent_records"] == 0 for r in payload["results"])
        # The chaos actually happened, at every checkpoint interval.
        assert all(r["crashes"] >= 2 for r in payload["results"])

    def test_invalid_crash_rate_rejected(self):
        with pytest.raises(SystemExit):
            main(["recovery", "--crash-rate", "-1"])

    def test_invalid_checkpoint_interval_rejected(self):
        with pytest.raises(SystemExit):
            main(["recovery", "--checkpoint-interval", "0"])

    def test_trace_experiment_reconciles_and_exports(self, capsys, tmp_path):
        import json

        trace_file = tmp_path / "trace.jsonl"
        json_file = tmp_path / "bench_trace.json"
        assert main(
            ["trace", "--trace-out", str(trace_file),
             "--json-out", str(json_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "latency waterfall" in out
        assert "Trace reconciliation" in out

        lines = [
            json.loads(line)
            for line in trace_file.read_text().splitlines()
        ]
        assert lines[0]["kind"] == "meta"
        times = [line["at"] for line in lines[1:]]
        assert times == sorted(times)
        # The acceptance bound: per-stage sums reconcile with the
        # end-to-end latency summary within 1%.
        spans = [line for line in lines if line["kind"] == "trace"]
        assert spans
        stage = sum(s["stage_total_s"] for s in spans)
        e2e = sum(s["end_to_end_s"] for s in spans)
        assert abs(stage - e2e) / e2e <= 0.01

        payload = json.loads(json_file.read_text())["trace"]
        assert payload["reconciliation"]["relative_error"] <= 0.01
        assert payload["telemetry"]["trace"]["completed"] > 0

    def test_report_experiment(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "Per-PE telemetry" in out
        assert "Event log" in out

    def test_overload_experiment(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "bench_overload.json"
        assert main(
            ["overload", "--tuples", "400", "--queue-capacity", "16",
             "--json-out", str(out_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "Overload sweep" in out

        payload = json.loads(out_file.read_text())["overload"]
        assert payload["queue_capacity"] == 16
        rows = payload["results"]
        assert {r["policy"] for r in rows} == {"block", "shed", "degrade"}
        # The deterministic half of the acceptance triangle, at every
        # offered rate: each tuple is either served or counted as shed,
        # block and degrade shed nothing, and shed really sheds at 2x
        # (the timing-sensitive p99 ordering is asserted against the
        # committed BENCH.json artifact instead).
        for r in rows:
            assert r["results"] + r["shed_tuples"] == 400
            if r["policy"] != "shed":
                assert r["shed_tuples"] == 0
        (shed_2x,) = [
            r for r in rows
            if r["policy"] == "shed" and r["offered_factor"] == 2.0
        ]
        assert shed_2x["shed_tuples"] > 0
        assert set(payload["sustainable_knee_factor"]) == {
            "block", "shed", "degrade",
        }

    def test_committed_overload_entry_meets_acceptance(self):
        # The acceptance triangle is demonstrated by the committed
        # BENCH.json entry: zero loss under block, exact shed
        # accounting, and degrade's p99 joiner queueing delay below
        # block's at 2x overload.
        import json
        import pathlib

        bench = pathlib.Path(__file__).parents[2] / "BENCH.json"
        payload = json.loads(bench.read_text())["overload"]
        n = payload["stream_tuples"]
        at_2x = {
            r["policy"]: r
            for r in payload["results"]
            if r["offered_factor"] == 2.0
        }
        assert at_2x["block"]["shed_tuples"] == 0
        assert at_2x["block"]["results"] == n
        assert at_2x["shed"]["shed_tuples"] > 0
        assert at_2x["shed"]["results"] + at_2x["shed"]["shed_tuples"] == n
        assert (
            at_2x["degrade"]["p99_joiner_wait_s"]
            < at_2x["block"]["p99_joiner_wait_s"]
        )

    def test_overload_single_policy(self, capsys):
        assert main(["overload", "--tuples", "300", "--policy", "shed"]) == 0
        out = capsys.readouterr().out
        assert "shed" in out
        assert "block " not in out

    def test_invalid_overload_flags_rejected(self):
        with pytest.raises(SystemExit):
            main(["overload", "--queue-capacity", "0"])
        with pytest.raises(SystemExit):
            main(["overload", "--source-rate", "0"])
        with pytest.raises(SystemExit):
            main(["overload", "--tuples", "0"])

    def test_recovery_trace_out_written(self, capsys, tmp_path):
        import json

        trace_file = tmp_path / "chaos.jsonl"
        assert main(["recovery", "--trace-out", str(trace_file)]) == 0
        capsys.readouterr()
        lines = trace_file.read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["experiment"] == "recovery"
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "event" in kinds
