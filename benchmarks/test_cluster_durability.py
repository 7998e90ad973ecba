"""Cluster durability: exactly-once serving under shard kill/restart.

The cluster tier's claim is that sharding adds fault tolerance without
changing answers.  This benchmark proves both halves:

* **bit-identity** — one DeepMVI model is fitted once in-process, shipped
  to its owning shard as an artifact blob, and the same window-shaped
  requests are served through the single-process
  :class:`~repro.api.ImputationService` and through the 2-shard
  :class:`~repro.cluster.ClusterRouter`: the completed tensors must be
  byte-for-byte equal, before and after the kill.
* **exactly-once under SIGKILL** — :func:`repro.evaluation.drills.kill_drill`
  kills the owning shard with a full batch queued, then resends every id
  of both batches: zero lost, one ledger row per id, every resend deduped.

Reported metrics: ``cluster.exactly_once`` (1.0 iff zero lost, zero
duplicated, full dedupe — gated at face value), ``cluster.recovery_rate``
(1 / seconds to restart the killed shard and replay its journal; gated as
a rate because the regression checker treats higher as better), plus
ungated requests/sec throughput numbers for trajectory tracking.

Results land in ``benchmarks/results/cluster.{txt,json}``; full mode also
refreshes the repo-root ``BENCH_cluster.json``.  The CI bench-regression
job re-runs this file in fast mode and gates the two metrics against
``benchmarks/baselines/cluster_fast.json`` via
``benchmarks/check_regression.py``.
"""

import json
import pathlib
import time

import numpy as np

from repro.api import ImputationService
from repro.api.requests import ImputeRequest
from repro.cluster import ClusterRouter
from repro.core.config import DeepMVIConfig
from repro.data.missing import MissingScenario, apply_scenario
from repro.evaluation.drills import kill_drill, window_traffic

from benchmarks._harness import bench_dataset, emit, is_fast

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

N_SHARDS = 2
SERVING_WINDOW = 25
SCENARIO = MissingScenario("mcar", {"incomplete_fraction": 0.5,
                                    "block_size": 4})

if is_fast():
    N_REQUESTS = 16
    SERVING_CONFIG = dict(max_epochs=2, samples_per_epoch=32, patience=1,
                          batch_size=8, n_filters=4, max_context_windows=8)
else:
    N_REQUESTS = 48
    SERVING_CONFIG = dict(max_epochs=3, samples_per_epoch=128, patience=2,
                          batch_size=16, n_filters=8, max_context_windows=16)


def test_cluster_durability(results_dir, tmp_path):
    truth = bench_dataset("airq", seed=0)
    incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
    [windows] = window_traffic(incomplete, SERVING_WINDOW, N_REQUESTS)

    # Fit ONCE in-process; the cluster serves the same weights.
    local = ImputationService()
    model_id = local.fit(incomplete, method="deepmvi",
                         config=DeepMVIConfig(**SERVING_CONFIG))
    imputer = local.store.get(model_id)

    with ClusterRouter(directory=tmp_path, shards=N_SHARDS) as router:
        router.put_model(model_id, imputer, method="deepmvi")

        # -- phase A: bit-identity vs single-process serving ------------ #
        for tensor in windows:
            local.submit(ImputeRequest(model_id=model_id, data=tensor))
        local_results = local.gather()

        start = time.perf_counter()
        ids = [router.submit(tensor, model_id=model_id)
               for tensor in windows]
        remote_results = router.gather()
        healthy_elapsed = time.perf_counter() - start

        assert [r.request_id for r in remote_results] == ids
        identical = all(
            np.array_equal(remote.completed.values, local_r.completed.values)
            for remote, local_r in zip(remote_results, local_results))
        assert identical, (
            "cluster serving diverged from single-process serving — the "
            "shard must serve the same weights through the same fused path")

        # -- phase B: SIGKILL the owner with a full batch queued, then
        # resend EVERY id from both batches: the ledger must dedupe all.
        kill = kill_drill(router, model_id, windows,
                          served=list(zip(ids, windows)))
        recovery_seconds = router.recoveries[-1]["seconds"]

        # Killed-batch answers must match the healthy-batch answers for
        # the same windows: recovery changes availability, not results.
        identical_after_kill = all(
            np.array_equal(after.completed.values, before.completed.values)
            for after, before in zip(kill.results, remote_results))
        assert identical_after_kill
        exactly_once = float(kill.exactly_once)

        # -- phase C: SQL window-function analytics over the journal ---- #
        report = router.analytics(bucket_seconds=3600.0)
        completions = sum(row["completions"]
                          for row in report["p99_over_time"])
        assert completions == 2 * N_REQUESTS
        assert any(row["model_id"] == model_id
                   for row in report["per_model_qps"])
        p99_ms = report["p99_over_time"][0]["p99_seconds"] * 1e3

    metrics = {
        "cluster.exactly_once": exactly_once,
        "cluster.recovery_rate": 1.0 / max(recovery_seconds, 1e-9),
        "cluster.recovery_seconds": recovery_seconds,
        "cluster.requests_per_second": N_REQUESTS / healthy_elapsed,
        "cluster.killed_requests_per_second":
            N_REQUESTS / kill.elapsed_seconds,
        "cluster.deduped": float(kill.deduped),
        "cluster.bit_identical": float(identical and identical_after_kill),
    }
    lines = [
        f"cluster  {N_SHARDS} shards   healthy "
        f"{N_REQUESTS / healthy_elapsed:>7.1f} req/sec   with SIGKILL "
        f"{N_REQUESTS / kill.elapsed_seconds:>7.1f} req/sec",
        f"kill     lost {len(kill.lost)}   duplicated {kill.duplicated}   "
        f"resend dedupe {kill.deduped}/{kill.resent}   recovery "
        f"{recovery_seconds * 1e3:.0f} ms",
        f"journal  p99 {p99_ms:.2f} ms over {completions} completions "
        f"(SQL window functions, shards={report['shards']})",
    ]
    payload = {
        "benchmark": "cluster",
        "fast_mode": is_fast(),
        "workload": {
            "dataset": "airq",
            "window": SERVING_WINDOW,
            "requests": N_REQUESTS,
            "shards": N_SHARDS,
            "scenario": SCENARIO.describe(),
        },
        "metrics": {key: round(float(value), 6)
                    for key, value in sorted(metrics.items())},
        # exactly_once is pass/fail; recovery is gated as a rate (the
        # regression checker treats higher as better).  Throughput is
        # reported, not gated — absolute req/sec is host-dependent.
        "gate": ["cluster.exactly_once", "cluster.recovery_rate"],
    }
    emit(results_dir, "cluster",
         "Cluster durability: exactly-once serving under shard SIGKILL",
         "\n".join(lines))
    (results_dir / "cluster.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    if not is_fast():
        (REPO_ROOT / "BENCH_cluster.json").write_text(
            json.dumps(payload, indent=2) + "\n")

    assert exactly_once == 1.0, (
        f"exactly-once violated: lost={len(kill.lost)} "
        f"duplicated={kill.duplicated} deduped={kill.deduped}/{kill.resent}")
