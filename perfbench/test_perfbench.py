"""The benchmark's own tests: definition, verdict, absent metrics, counts.

Runs use a tiny DeepMVI configuration and 50 ms timed phases, so the
whole file adds a few seconds to the repository's test run; the
benchmark itself always fits with ``DeepMVIConfig()`` defaults.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from repro.core.config import DeepMVIConfig  # noqa: E402

TINY = DeepMVIConfig(n_filters=4, n_heads=1, embedding_dim=4,
                     max_context_windows=8, top_l_siblings=4, max_epochs=1,
                     min_epochs=1, samples_per_epoch=32, batch_size=16)
#: timed phase of a test run, in seconds
SECONDS = 0.05


@pytest.fixture(autouse=True)
def small_runs(tmp_path, monkeypatch):
    """Runs keep their files (the cluster store) under ``tmp_path``, draw
    fewer gap masks, and verify cluster-airq over two rounds (the second
    has resends)."""
    monkeypatch.setattr(workloads, "WORKDIR", tmp_path / "work")
    monkeypatch.setattr(workloads, "MASKS", 32)
    monkeypatch.setattr(workloads, "VERIFY_MASKS", 32)
    monkeypatch.setattr(workloads.ClusterAirq, "VERIFY_ROUNDS", 2)


def traced(name: str, seed: int = 3):
    return run.run_workload(name, seed, SECONDS, True, config=TINY)


# -- the definition file ----------------------------------------------- #
def test_definition_respects_contract_limits():
    document = spec.load().document
    assert list(document) == ["command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"]
    assert set(spec.load().workloads) == set(workloads.WORKLOADS)
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= document["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in document[key]]
    assert len(names) == len(set(names))
    for entry in document["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = next(entry for entry in document["end_to_end"]
                 if entry["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"]
                                 for entry in document["end_to_end"])
    for workload in document["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert len(json.dumps(document)) < 64 * 1024


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fresh-airq",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert process.returncode != 0
    assert '"correct"' not in process.stdout


# -- measurement helpers ----------------------------------------------- #
def test_tail_keeps_ten_samples_beyond_and_caps_at_p99():
    value, percentile, samples = measure.tail(list(range(100)))
    assert (value, samples) == (89, 100)
    assert percentile == pytest.approx(90.0)
    value, percentile, _ = measure.tail(list(range(5000)))
    assert percentile == pytest.approx(99.0) and value == 4949
    # too few samples for any supported percentile: the maximum
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


# -- correctness verdict ----------------------------------------------- #
def _request(rid: str) -> workloads.Request:
    from repro.data.dimensions import Dimension

    truth = np.arange(12.0).reshape(2, 6)
    missing = np.zeros(truth.shape, dtype=bool)
    missing[0, 2] = True
    tensor = workloads.TimeSeriesTensor(
        values=np.where(missing, np.nan, truth),
        dimensions=[Dimension("series", ["a", "b"])])
    return workloads.Request(rid=rid, tensor=tensor, truth=truth,
                             missing=missing)


def _answer(request: workloads.Request, shift: float = 0.0):
    values = request.truth.copy()
    values[1, 1] += shift                 # an observed cell
    return workloads.TimeSeriesTensor(values=values,
                                      dimensions=request.tensor.dimensions)


def test_ledger_flags_wrong_id_changed_cells_and_second_answer():
    ledger = workloads.Ledger()
    first = _request("r-1")
    ledger.accept(first, "r-1", _answer(first))
    assert not ledger.violations
    ledger.accept(first, "r-1", _answer(first))
    second = _request("r-2")
    ledger.accept(second, "r-9", _answer(second))
    third = _request("r-3")
    ledger.accept(third, "r-3", _answer(third, shift=1.0))
    assert len(ledger.violations) == 3


def _changes_an_observed_cell(monkeypatch):
    from repro.core.imputer import DeepMVIImputer

    original = DeepMVIImputer.impute_many

    def changes_an_observed_cell(self, tensors):
        completed = original(self, tensors)
        for tensor in completed:
            tensor.values[np.unravel_index(
                np.argmax(tensor.mask), tensor.mask.shape)] += 1e-9
        return completed

    monkeypatch.setattr(DeepMVIImputer, "impute_many",
                        changes_an_observed_cell)


# cluster-airq's verdict has its own tests below
@pytest.mark.parametrize("name", ["fresh-airq", "stream-airq"])
def test_wrong_answer_fails_the_verdict(name, monkeypatch):
    _changes_an_observed_cell(monkeypatch)
    outcome = run.run_workload(name, 3, SECONDS, False, config=TINY,
                               setups=1)
    result = outcome["result"]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_cluster_answers_checked_against_in_process_serving(monkeypatch):
    """The shard serves the true model; this process, a shifted one."""
    start_tier = workloads.ClusterAirq.start_tier

    def start_then_diverge(self):
        start_tier(self)                  # the shard process is forked here
        _changes_an_observed_cell(monkeypatch)

    monkeypatch.setattr(workloads.ClusterAirq, "start_tier",
                        start_then_diverge)
    outcome = run.run_workload("cluster-airq", 3, SECONDS, False,
                               config=TINY, setups=1)
    assert outcome["result"]["correct"] is False
    violations = outcome["report"]["violations"]
    assert violations and all("in-process" in violation
                              for violation in violations)


def test_resend_not_from_the_ledger_fails_the_verdict(monkeypatch):
    """A ledger that stores nothing: resends are served a second time."""
    from repro.cluster.store import DurableStore

    monkeypatch.setattr(DurableStore, "commit_result",
                        lambda self, *args, **kwargs: True)
    outcome = run.run_workload("cluster-airq", 3, SECONDS, False,
                               config=TINY, setups=1)
    result = outcome["result"]
    assert result["correct"] is False
    assert any("ledger" in violation
               for violation in outcome["report"]["violations"])


# -- traced runs -------------------------------------------------------- #
def test_missing_function_is_reported_absent(monkeypatch):
    targets = tuple(
        tracer.Target(t.name, t.path + "_gone", t.info)
        if t.name == "core.lookup" else t for t in tracer.TARGETS)
    monkeypatch.setattr(tracer, "TARGETS", targets)
    outcome = traced("stream-airq")
    metrics = outcome["result"]["metrics"]
    assert outcome["result"]["correct"]
    assert metrics["core.table_lookup_us_per_req"]["value"] is None
    assert metrics["core.fast_path_hit_rate"]["value"] is None
    assert metrics["core.context_us_per_req"]["value"] > 0
    assert "core.lookup" in outcome["report"]["absent"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(name):
    first = traced(name)
    second = traced(name)
    for outcome in (first, second):
        assert outcome["result"]["correct"], outcome["report"]["violations"]
        assert list(outcome["result"]["metrics"]) == spec.load().per_layer
    for metric in spec.EXACT_COUNTS:
        one = first["result"]["metrics"][metric]["value"]
        two = second["result"]["metrics"][metric]["value"]
        assert one == two, (metric, one, two)
    metrics = first["result"]["metrics"]
    assert metrics["core.fast_path_hit_rate"]["value"] == 0.0
    assert metrics["api.fallback_batches"]["value"] == 0
    assert metrics["core.forward_cells_per_req"]["value"] > 0
    if name == "cluster-airq":
        assert metrics["cluster.ledger_hit_rate"]["value"] == 1.0
        # times that only the shard process's handed-back spans hold
        assert metrics["cluster.journal_ms_per_req"]["value"] > 0
        assert metrics["cluster.shard_serve_share"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    outcome = run.run_workload("stream-airq", 3, SECONDS, False, config=TINY,
                               setups=2)
    result = outcome["result"]
    assert result["correct"]
    assert list(result["metrics"]) == spec.load().end_to_end
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert len(outcome["report"]["setup_seconds"]) == 2


def test_self_time_subtracts_children():
    trace = tracer.Tracer(targets=())
    trace.mark("timed")
    parent = tracer.Span(1, "outer", 0)
    parent.start, parent.end = 1e9, 1e9 + 10.0
    child = tracer.Span(2, "inner", 1)
    child.start, child.end = 1e9 + 2.0, 1e9 + 5.0
    trace.spans = [parent, child]
    index = layers.SpanIndex(trace)
    assert index.self_time(parent) == pytest.approx(7.0)
    assert index.self_time(child) == pytest.approx(3.0)
