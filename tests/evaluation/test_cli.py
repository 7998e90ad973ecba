"""Tests of the command-line interface."""

import re
import sys

import pytest

from repro.evaluation.cli import main


def _table(output):
    """``metric -> value`` rows of a bench command's two-column table."""
    cells = (re.split(r"\s{2,}", line.strip(), maxsplit=1)
             for line in output.splitlines())
    return {row[0]: row[1] for row in cells if len(row) == 2}


class TestListCommand:
    def test_lists_datasets_methods_and_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "airq" in output
        assert "deepmvi" in output
        assert "figure5" in output
        assert "blackout" in output

    def test_lists_method_kinds_tags_and_variants(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "kind" in output and "tags" in output
        assert "conventional" in output and "deep" in output
        # ablation variants appear with their display names
        assert "deepmvi-no-tt" in output
        assert "DeepMVI-NoTT" in output
        assert "variant of deepmvi" in output


class TestImputeCommand:
    def test_serves_requests_from_one_fit(self, capsys):
        code = main(["impute", "--dataset", "airq", "--scenario", "mcar",
                     "--method", "mean", "--requests", "3", "--size", "tiny"])
        assert code == 0
        output = capsys.readouterr().out
        assert "fitted 'mean' once" in output
        assert "served 3 request(s) from 1 fit" in output
        assert output.count("req-") >= 3

    def test_writes_completed_tensors(self, tmp_path, capsys):
        target = tmp_path / "completed.npz"
        code = main(["impute", "--dataset", "airq", "--method", "interpolation",
                     "--requests", "2", "--size", "tiny",
                     "--output", str(target)])
        assert code == 0
        assert target.exists()
        import numpy as np

        with np.load(target) as payload:
            assert len(payload.files) == 2


class TestGatewayBenchCommand:
    def test_load_generates_and_reports_telemetry(self, capsys):
        code = main(["gateway-bench", "--dataset", "airq", "--method",
                     "mean", "--size", "tiny", "--producers", "4",
                     "--requests", "3", "--window", "20",
                     "--max-batch-size", "4", "--workers", "1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "fitted 'mean' once" in output
        assert "requests delivered" in output and "12/12" in output
        assert "latency p95" in output
        assert "model-cache hit rate" in output
        assert "speedup vs one-at-a-time" in output

    def test_skip_baseline(self, capsys):
        code = main(["gateway-bench", "--dataset", "airq", "--method",
                     "interpolation", "--size", "tiny", "--producers", "2",
                     "--requests", "2", "--skip-baseline"])
        assert code == 0
        output = capsys.readouterr().out
        assert "baseline" not in output
        assert "4/4" in output

    def test_reject_admission_counts_each_request_once(self, capsys):
        # Eight producers share the pass's counters; frequent thread
        # switches would expose a lost update as a miscount.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            code = main(["gateway-bench", "--dataset", "airq", "--method",
                         "mean", "--size", "tiny", "--admission", "reject",
                         "--queue-depth", "1", "--producers", "8",
                         "--requests", "8", "--skip-baseline"])
        finally:
            sys.setswitchinterval(interval)
        captured = capsys.readouterr()
        rows = _table(captured.out)
        delivered, offered = rows["requests delivered"].split("/")
        assert offered == "64"
        assert int(delivered) + int(rows["requests rejected"]) == 64
        assert code == 0
        assert "Traceback" not in captured.err


class TestClusterBenchCommand:
    def test_kill_and_resend_lose_nothing(self, capsys):
        code = main(["cluster-bench", "--dataset", "airq", "--size", "tiny",
                     "--method", "mean", "--shards", "2", "--requests", "6"])
        assert code == 0
        rows = _table(capsys.readouterr().out)
        assert rows["requests delivered"] == "6/6"
        assert rows["lost"] == "0"
        assert rows["resend dedupe hits"] == "6/6"


class TestOnlineBenchCommand:
    def test_journal_records_each_transition_once(self, capsys):
        code = main(["online-bench", "--dataset", "airq", "--size", "tiny",
                     "--quiet"])
        assert code == 0
        rows = _table(capsys.readouterr().out)
        assert rows["journalled exactly once"] == "yes"


class TestRunCommand:
    def test_runs_fast_methods(self, capsys):
        code = main(["run", "--dataset", "airq", "--scenario", "mcar",
                     "--methods", "mean", "interpolation", "--size", "tiny"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Mean" in output and "LinearInterp" in output
        assert "runtimes" in output

    def test_blackout_scenario_parameters(self, capsys):
        code = main(["run", "--dataset", "airq", "--scenario", "blackout",
                     "--methods", "mean", "--size", "tiny", "--block-size", "5"])
        assert code == 0
        assert "Mean" in capsys.readouterr().out

    def test_disjoint_scenario(self, capsys):
        code = main(["run", "--dataset", "chlorine", "--scenario", "miss_disj",
                     "--methods", "svdimp", "--size", "tiny"])
        assert code == 0

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["run", "--dataset", "nope", "--scenario", "mcar",
                  "--methods", "mean"])

    def test_rejects_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestExperimentCommand:
    def test_table1_experiment(self, capsys):
        assert main(["experiment", "table1"]) == 0
        output = capsys.readouterr().out
        assert "dataset" in output
        assert "bafu" in output

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure99"])


class TestStreamCommand:
    def test_replays_a_stream_with_per_window_report(self, capsys):
        code = main(["stream", "--dataset", "airq", "--method", "mean",
                     "--scenario", "drift_outage", "--size", "tiny",
                     "--window", "24", "--streams", "2", "--refit-every", "4"])
        assert code == 0
        output = capsys.readouterr().out
        assert "windows/sec" in output
        assert "mean MAE" in output
        assert "refit" in output            # per-window table header
        assert "[0,24)" in output           # per-window spans

    def test_quiet_mode_prints_summary_only(self, capsys):
        code = main(["stream", "--dataset", "airq", "--method",
                     "interpolation", "--scenario", "periodic_outage",
                     "--size", "tiny", "--window", "24", "--quiet"])
        assert code == 0
        output = capsys.readouterr().out
        assert "windows/sec" in output
        assert "[0,24)" not in output

    def test_every_new_scenario_is_replayable(self, capsys):
        for scenario in ("drift_outage", "correlated_failure",
                         "periodic_outage"):
            assert main(["stream", "--dataset", "airq", "--method", "mean",
                         "--scenario", scenario, "--size", "tiny",
                         "--window", "24", "--quiet"]) == 0
            assert scenario in capsys.readouterr().out

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["stream", "--dataset", "airq", "--scenario", "bogus"])
