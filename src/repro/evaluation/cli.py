"""Command-line interface for running imputation experiments.

Sweeps run through the experiment engine (:mod:`repro.engine`): every
(dataset, scenario, method) cell is a hashable job, ``--workers N`` fans the
jobs out over a process pool, and ``--cache-dir DIR`` persists each completed
cell to a JSONL store so an interrupted sweep can be resumed — re-running the
same command (or using the ``resume`` subcommand) executes only the cells
that are still missing.

Examples
--------
List what is available (methods come from the plugin registry with their
kind, capability tags and ablation variants)::

    python -m repro.evaluation.cli list

Serve imputations through the service layer — fit the model **once**, then
answer many impute requests from it (micro-batched through the engine)::

    python -m repro.evaluation.cli impute --dataset airq --scenario mcar \
        --method deepmvi --requests 4 --size tiny --output completed.npz

Replay a dataset as a live stream under an outage scenario — windowed
incremental serving through :mod:`repro.streaming`, with per-window MAE,
per-window latency and end-to-end windows/sec::

    python -m repro.evaluation.cli stream --dataset airq --method interpolation \
        --scenario drift_outage --window 24 --streams 2 --size tiny

Hammer the serving gateway with concurrent producers — fit one model, then
compare one-at-a-time serving against the gateway's admission-controlled,
micro-batched worker pool (requests/sec, latency percentiles, fusion rate,
cache hit rate)::

    python -m repro.evaluation.cli gateway-bench --dataset airq \
        --method deepmvi --producers 8 --requests 8 --size tiny

Route requests through the sharded cluster tier, kill a shard mid-load,
and verify exactly-once delivery (zero lost, zero duplicated)::

    python -m repro.evaluation.cli cluster-bench --dataset airq \
        --method mean --shards 2 --requests 12 --size tiny

Run one (dataset, scenario, method) cell::

    python -m repro.evaluation.cli run --dataset climate --scenario mcar \
        --methods deepmvi cdrec svdimp --size tiny

Regenerate one of the paper's experiments (same grids the benchmark harness
uses, printed as a table), four cells at a time with a persistent cache::

    python -m repro.evaluation.cli experiment figure5 --size tiny \
        --workers 4 --cache-dir ~/.cache/repro/figure5

Resume that sweep after an interruption (only missing cells execute)::

    python -m repro.evaluation.cli resume figure5 --size tiny \
        --workers 4 --cache-dir ~/.cache/repro/figure5
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.api import ImputationService, ImputeRequest
from repro.baselines.registry import list_method_infos
from repro.core.config import DeepMVIConfig
from repro.data.datasets import list_datasets, load_dataset
from repro.data.missing import MissingScenario, apply_scenario, list_scenarios
from repro.evaluation.metrics import mae
from repro.evaluation.experiments import (
    EXPERIMENTS,
    STANDARD_SCENARIOS,
    list_experiments,
    scenario_for,
)
from repro.evaluation.reporting import format_table, pivot
from repro.evaluation.runner import ExperimentRunner


def _deepmvi_kwargs(size: str) -> dict:
    """Benchmark-scale DeepMVI settings keyed by dataset size preset."""
    if size == "tiny":
        return {"config": DeepMVIConfig(max_epochs=12, samples_per_epoch=256,
                                        patience=3, n_filters=16)}
    return {"config": DeepMVIConfig(max_epochs=20, samples_per_epoch=512, patience=4)}


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool width; 1 runs serially")
    parser.add_argument("--cache-dir", default=None,
                        help="persist per-cell results here and skip "
                             "already-completed cells on re-runs")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-eval", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list datasets, scenarios, methods, experiments")

    run = subparsers.add_parser("run", help="run methods on one dataset/scenario")
    run.add_argument("--dataset", required=True, choices=list_datasets())
    run.add_argument("--scenario", required=True, choices=list_scenarios())
    run.add_argument("--methods", nargs="+", required=True)
    run.add_argument("--size", default="tiny", choices=["tiny", "small", "default"])
    run.add_argument("--block-size", type=int, default=10)
    run.add_argument("--incomplete-fraction", type=float, default=1.0)
    run.add_argument("--seed", type=int, default=0)
    _add_engine_arguments(run)

    impute = subparsers.add_parser(
        "impute", help="serve impute requests from one fitted model "
                       "(fit once, impute many)")
    impute.add_argument("--dataset", required=True, choices=list_datasets())
    impute.add_argument("--scenario", default="mcar", choices=list_scenarios())
    impute.add_argument("--method", default="deepmvi")
    impute.add_argument("--size", default="tiny", choices=["tiny", "small", "default"])
    impute.add_argument("--requests", type=int, default=2,
                        help="number of distinct missing-value patterns to "
                             "serve from the single fitted model")
    impute.add_argument("--block-size", type=int, default=10)
    impute.add_argument("--incomplete-fraction", type=float, default=1.0)
    impute.add_argument("--seed", type=int, default=0)
    impute.add_argument("--store-dir", default=None,
                        help="persist the fitted model as an artifact here")
    impute.add_argument("--output", default=None,
                        help="write the completed tensors to this .npz file")

    stream = subparsers.add_parser(
        "stream", help="replay a dataset as a windowed stream and report "
                       "per-window MAE + windows/sec")
    stream.add_argument("--dataset", required=True, choices=list_datasets())
    stream.add_argument("--method", default="interpolation")
    stream.add_argument("--scenario", default="drift_outage",
                        choices=list_scenarios())
    stream.add_argument("--size", default="tiny",
                        choices=["tiny", "small", "default"])
    stream.add_argument("--window", type=int, default=48,
                        help="sliding-window length in time steps")
    stream.add_argument("--stride", type=int, default=None,
                        help="steps between windows (default: window // 2)")
    stream.add_argument("--refit-every", type=int, default=8,
                        help="incremental refit cadence in windows; "
                             "0 fits once and never refits")
    stream.add_argument("--max-history", type=int, default=512,
                        help="bound (time steps) on the refit history")
    stream.add_argument("--streams", type=int, default=1,
                        help="number of concurrent streams to replay")
    stream.add_argument("--block-size", type=int, default=10)
    stream.add_argument("--incomplete-fraction", type=float, default=1.0)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--store-dir", default=None,
                        help="persist the stream models as artifacts here")
    stream.add_argument("--quiet", action="store_true",
                        help="print only the summary, not per-window rows")

    gateway = subparsers.add_parser(
        "gateway-bench", help="load-generate against the serving gateway "
                              "and report QPS/latency/fusion telemetry")
    gateway.add_argument("--dataset", required=True, choices=list_datasets())
    gateway.add_argument("--scenario", default="mcar",
                         choices=list_scenarios())
    gateway.add_argument("--method", default="deepmvi")
    gateway.add_argument("--size", default="tiny",
                         choices=["tiny", "small", "default"])
    gateway.add_argument("--window", type=int, default=24,
                         help="length of each request's time window "
                              "(window-shaped traffic)")
    gateway.add_argument("--producers", type=int, default=8,
                         help="concurrent producer threads")
    gateway.add_argument("--requests", type=int, default=8,
                         help="requests submitted per producer")
    gateway.add_argument("--max-batch-size", type=int, default=16,
                         help="gateway micro-batch bound")
    gateway.add_argument("--max-wait-ms", type=float, default=5.0,
                         help="how long an open batch waits for stragglers")
    gateway.add_argument("--workers", type=int, default=1,
                         help="gateway worker threads")
    gateway.add_argument("--queue-depth", type=int, default=1024,
                         help="bounded queue depth (admission control)")
    gateway.add_argument("--admission", default="block",
                         choices=["reject", "block"],
                         help="policy when the queue is full")
    gateway.add_argument("--batch-lane-share", type=float, default=0.25,
                         help="fraction of each producer's requests sent "
                              "on the low-priority 'batch' lane")
    gateway.add_argument("--skip-baseline", action="store_true",
                         help="skip the one-at-a-time baseline pass")
    gateway.add_argument("--block-size", type=int, default=10)
    gateway.add_argument("--incomplete-fraction", type=float, default=1.0)
    gateway.add_argument("--seed", type=int, default=0)
    gateway.add_argument("--store-dir", default=None,
                         help="persist the fitted model as an artifact here")

    cluster = subparsers.add_parser(
        "cluster-bench", help="serve through the sharded cluster router, "
                              "kill a shard mid-load, and verify "
                              "exactly-once delivery")
    cluster.add_argument("--dataset", required=True, choices=list_datasets())
    cluster.add_argument("--scenario", default="mcar",
                         choices=list_scenarios())
    cluster.add_argument("--method", default="deepmvi")
    cluster.add_argument("--size", default="tiny",
                         choices=["tiny", "small", "default"])
    cluster.add_argument("--shards", type=int, default=2,
                         help="shard worker processes behind the router")
    cluster.add_argument("--requests", type=int, default=12,
                         help="impute requests to route through the cluster")
    cluster.add_argument("--window", type=int, default=24,
                         help="length of each request's time window "
                              "(window-shaped traffic)")
    cluster.add_argument("--block-size", type=int, default=10)
    cluster.add_argument("--incomplete-fraction", type=float, default=1.0)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--store-dir", default=None,
                         help="shard state directory (default: a temp dir "
                              "removed on exit)")

    online = subparsers.add_parser(
        "online-bench", help="drift a stream mid-replay and compare a "
                             "static model against the closed online "
                             "loop (drift-triggered refits + canary)")
    online.add_argument("--dataset", required=True, choices=list_datasets())
    online.add_argument("--scenario", default="mcar",
                        choices=list_scenarios())
    online.add_argument("--method", default="fitted-mean",
                        help="imputation method; must learn from its fit "
                             "data for refits to matter (default: "
                             "fitted-mean)")
    online.add_argument("--size", default="tiny",
                        choices=["tiny", "small", "default"])
    online.add_argument("--window", type=int, default=16,
                        help="stream window length in time steps")
    online.add_argument("--shift", type=float, default=6.0,
                        help="mid-stream level shift, in multiples of the "
                             "observed std (the injected drift)")
    online.add_argument("--budget", type=float, default=2.0,
                        help="rolling-NRMSE drift budget of the watcher")
    online.add_argument("--block-size", type=int, default=10)
    online.add_argument("--incomplete-fraction", type=float, default=1.0)
    online.add_argument("--seed", type=int, default=0)
    online.add_argument("--store-dir", default=None,
                        help="model-store directory (default: a temp dir "
                             "removed on exit)")
    online.add_argument("--quiet", action="store_true",
                        help="print only the summary, not per-window rows")

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's experiments")
    experiment.add_argument("experiment_id", choices=list_experiments())
    experiment.add_argument("--size", default="tiny",
                            choices=["tiny", "small", "default"])
    experiment.add_argument("--seed", type=int, default=0)
    _add_engine_arguments(experiment)

    resume = subparsers.add_parser(
        "resume", help="resume an interrupted experiment sweep from its cache")
    resume.add_argument("experiment_id", choices=list_experiments())
    resume.add_argument("--size", default="tiny",
                        choices=["tiny", "small", "default"])
    resume.add_argument("--seed", type=int, default=0)
    resume.add_argument("--workers", type=int, default=1,
                        help="process-pool width; 1 runs serially")
    resume.add_argument("--cache-dir", required=True,
                        help="cache directory of the interrupted sweep")
    return parser


def _command_list() -> int:
    print("datasets:   " + ", ".join(list_datasets()))
    print("scenarios:  " + ", ".join(list_scenarios()))
    print("experiments: " + ", ".join(list_experiments()))
    print()
    header = (f"{'method':<20} {'display':<18} {'kind':<13} "
              f"{'multidim':<9} tags")
    print(header)
    print("-" * len(header))
    for info in list_method_infos():
        variant = f" (variant of {info.variant_of})" if info.variant_of else ""
        tags = ", ".join(info.tags) or "-"
        multidim = "yes" if info.supports_multidim else "-"
        print(f"{info.name:<20} {info.display_name:<18} {info.kind:<13} "
              f"{multidim:<9} {tags}{variant}")
    return 0


def _scenario_from_args(args: argparse.Namespace) -> MissingScenario:
    if args.scenario in ("mcar", "mcar_points"):
        params = {"incomplete_fraction": args.incomplete_fraction,
                  "block_size": args.block_size}
    elif args.scenario == "blackout":
        params = {"block_size": args.block_size}
    elif args.scenario == "correlated_failure":
        params = {"incomplete_fraction": args.incomplete_fraction,
                  "block_size": args.block_size}
    else:
        # Every remaining generator (miss_disj, miss_over, drift_outage,
        # periodic_outage) takes the affected-series fraction only.
        params = {"incomplete_fraction": args.incomplete_fraction}
    return MissingScenario(args.scenario, params)


def _command_impute(args: argparse.Namespace) -> int:
    """Serve ``--requests`` missing-value patterns from ONE fitted model."""
    truth = load_dataset(args.dataset, size=args.size, seed=args.seed)
    scenario = _scenario_from_args(args)
    method_kwargs = (_deepmvi_kwargs(args.size)
                     if args.method.lower().startswith("deepmvi") else {})

    patterns = []
    for index in range(max(1, args.requests)):
        incomplete, missing_mask = apply_scenario(truth, scenario,
                                                  seed=args.seed + index)
        patterns.append((incomplete, missing_mask))

    service = ImputationService(store_dir=args.store_dir)
    model_id = service.fit(patterns[0][0], method=args.method, **method_kwargs)
    print(f"[service] fitted {args.method!r} once -> model {model_id}")
    for incomplete, _ in patterns:
        service.submit(ImputeRequest(model_id=model_id, data=incomplete))
    results = service.gather()

    print(f"[service] served {len(results)} request(s) from "
          f"{service.fit_counts[model_id]} fit")
    print(f"\n{'request':<12} {'MAE':>8} {'seconds':>8}")
    for result, (_, missing_mask) in zip(results, patterns):
        error = mae(result.completed, truth, missing_mask)
        print(f"{result.request_id:<12} {error:>8.3f} "
              f"{result.runtime_seconds:>8.2f}")

    if args.output:
        import numpy as np

        arrays = {f"completed_{result.request_id}": result.completed.values
                  for result in results}
        np.savez_compressed(args.output, **arrays)
        print(f"\nwrote {len(arrays)} completed tensor(s) to {args.output}")
    return 0


def _command_gateway_bench(args: argparse.Namespace) -> int:
    """Hammer the gateway with concurrent producers; print the telemetry."""
    import threading
    import time

    from repro.gateway import Gateway, GatewayConfig

    truth = load_dataset(args.dataset, size=args.size, seed=args.seed)
    scenario = _scenario_from_args(args)
    incomplete, _ = apply_scenario(truth, scenario, seed=args.seed)
    window = min(args.window, max(2, truth.n_time - 1))
    method_kwargs = (_deepmvi_kwargs(args.size)
                     if args.method.lower().startswith("deepmvi") else {})

    service = ImputationService(store_dir=args.store_dir)
    model_id = service.fit(incomplete, method=args.method, **method_kwargs)
    print(f"[gateway] fitted {args.method!r} once -> model {model_id}")

    producers = max(1, args.producers)
    per_producer = max(1, args.requests)
    traffic = []
    for producer in range(producers):
        windows = []
        for index in range(per_producer):
            start = ((producer * per_producer + index) * 7) \
                % max(1, truth.n_time - window)
            windows.append(incomplete.slice_time(start, start + window))
        traffic.append(windows)
    total = producers * per_producer

    sequential_rps = None
    if not args.skip_baseline:
        start = time.perf_counter()
        for windows in traffic:
            for tensor in windows:
                service.impute(tensor, model_id=model_id)
        sequential_rps = total / (time.perf_counter() - start)
        print(f"[gateway] baseline: one-at-a-time service.impute() "
              f"{sequential_rps:,.1f} req/sec")

    config = GatewayConfig(
        max_queue_depth=args.queue_depth, admission=args.admission,
        max_batch_size=args.max_batch_size, max_wait_ms=args.max_wait_ms,
        workers=args.workers)
    received = {}
    batch_every = (int(round(1.0 / args.batch_lane_share))
                   if args.batch_lane_share > 0 else 0)

    with Gateway(service, config) as gateway:
        barrier = threading.Barrier(producers + 1)

        def producer_loop(producer_index: int) -> None:
            barrier.wait()
            futures = []
            for index, tensor in enumerate(traffic[producer_index]):
                lane = ("batch" if batch_every and (index + 1) % batch_every
                        == 0 else "interactive")
                futures.append(gateway.submit(tensor, model_id=model_id,
                                              priority=lane))
            received[producer_index] = [future.result(timeout=120.0)
                                        for future in futures]

        threads = [threading.Thread(target=producer_loop, args=(index,),
                                    name=f"producer-{index}")
                   for index in range(producers)]
        for thread in threads:
            thread.start()
        barrier.wait()                     # time serving, not Thread.start
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        stats = gateway.stats()

    gateway_rps = total / elapsed
    delivered = sum(len(results) for results in received.values())
    print(f"[gateway] {producers} producers x {per_producer} requests "
          f"(window={window}): {gateway_rps:,.1f} req/sec")
    if sequential_rps:
        print(f"[gateway] speedup vs one-at-a-time: "
              f"{gateway_rps / sequential_rps:.2f}x")
    print(f"\n{'metric':<26} value")
    print("-" * 40)
    rows = [
        ("requests delivered", f"{delivered}/{total}"),
        ("qps (window)", f"{stats['qps']:,.1f}"),
        ("latency p50", f"{stats['latency_p50_seconds'] * 1e3:.2f} ms"),
        ("latency p95", f"{stats['latency_p95_seconds'] * 1e3:.2f} ms"),
        ("latency p99", f"{stats['latency_p99_seconds'] * 1e3:.2f} ms"),
        ("fusion rate", f"{stats['fusion_rate']:.1%}"),
        ("fast-path hit rate", f"{stats['fast_path_hit_rate']:.1%}"),
        ("mean batch size", f"{stats['mean_batch_size']:.1f}"),
        ("batches", str(stats["batches"])),
        ("rejected / expired", f"{stats['rejected']} / {stats['expired']}"),
        ("model-cache hit rate",
         f"{stats['model_cache']['hit_rate']:.1%}"),
    ]
    table_info = (stats.get("fast_path") or {}).get(model_id)
    if table_info and table_info.get("built"):
        rows.append(("fast-path tables",
                     f"{table_info['nbytes'] / 1024:.1f} KiB, built in "
                     f"{table_info['build_seconds'] * 1e3:.1f} ms"))
    for label, value in rows:
        print(f"{label:<26} {value}")
    if delivered != total:
        print(f"[gateway] ERROR: lost {total - delivered} response(s)",
              file=sys.stderr)
        return 1
    return 0


def _command_cluster_bench(args: argparse.Namespace) -> int:
    """Route traffic through shard processes; prove exactly-once delivery.

    The crash drill: fit once, route window-shaped requests across the
    shards, SIGKILL the shard that owns the model while a full batch is
    queued, and verify that the restarted shard's journal replay plus the
    results ledger deliver every request exactly once — nothing lost,
    nothing served twice.
    """
    import tempfile
    import time

    from repro.api.requests import ImputeRequest
    from repro.cluster import ClusterRouter

    truth = load_dataset(args.dataset, size=args.size, seed=args.seed)
    scenario = _scenario_from_args(args)
    incomplete, _ = apply_scenario(truth, scenario, seed=args.seed)
    window = min(args.window, max(2, truth.n_time - 1))
    method_kwargs = (_deepmvi_kwargs(args.size)
                     if args.method.lower().startswith("deepmvi") else {})
    total = max(1, args.requests)
    windows = []
    for index in range(total):
        start = (index * 7) % max(1, truth.n_time - window)
        windows.append(incomplete.slice_time(start, start + window))

    with tempfile.TemporaryDirectory() as scratch:
        store_dir = args.store_dir or scratch
        with ClusterRouter(directory=store_dir,
                           shards=max(1, args.shards)) as router:
            model_id = router.fit(incomplete, method=args.method,
                                  **method_kwargs)
            owner = router.ring.assign(model_id)
            print(f"[cluster] fitted {args.method!r} once -> model "
                  f"{model_id} on {owner} "
                  f"({len(router.handles)} shard(s))")

            request_ids = [router.submit(tensor, model_id=model_id)
                           for tensor in windows]
            print(f"[cluster] queued {total} request(s); killing {owner} "
                  f"mid-load")
            router.kill_shard(owner)
            start = time.perf_counter()
            results = router.gather()
            elapsed = time.perf_counter() - start
            delivered = {result.request_id for result in results}
            lost = [rid for rid in request_ids if rid not in delivered]

            # Resend every id: the ledger must dedupe all of them, and the
            # journal must hold exactly one result row per request.
            for request_id, tensor in zip(request_ids, windows):
                router.submit(ImputeRequest(model_id=model_id, data=tensor,
                                            request_id=request_id))
            router.gather()
            deduped = router.last_deduped
            ledger_rows = sum(info.get("results", 0)
                              for info in router.shard_stats().values()
                              if info.get("alive"))
            duplicated = ledger_rows - total

            print(f"\n{'metric':<26} value")
            print("-" * 40)
            for label, value in [
                    ("requests delivered", f"{len(delivered)}/{total}"),
                    ("lost", str(len(lost))),
                    ("duplicated ledger rows", str(duplicated)),
                    ("resend dedupe hits", f"{deduped}/{total}"),
                    ("recoveries", str(len(router.recoveries))),
                    ("throughput", f"{total / elapsed:,.1f} req/sec "
                                   f"(incl. shard restart)")]:
                print(f"{label:<26} {value}")
            report = router.analytics(bucket_seconds=60.0)
            for row in report["p99_over_time"]:
                print(f"p99 bucket {row['bucket']:<15} "
                      f"{row['p99_seconds'] * 1e3:.2f} ms "
                      f"({row['completions']} completions)")
            ok = not lost and duplicated == 0 and deduped == total
            if not ok:
                print(f"[cluster] ERROR: lost={len(lost)} "
                      f"duplicated={duplicated} deduped={deduped}/{total}",
                      file=sys.stderr)
            return 0 if ok else 1


def _command_online_bench(args: argparse.Namespace) -> int:
    """Static model vs the closed online loop on a mid-stream level shift.

    Both arms replay the *same* drifting stream from the same fitted
    model and are scored on the same deterministic probe cells; the
    online arm additionally runs :class:`repro.online.OnlineLoop`
    (drift detection → warm-start refit → canary promote/rollback).
    The journal is checked for exactly-once transition recording.
    """
    import tempfile
    import warnings

    import numpy as np

    from repro.api.refs import ModelRef
    from repro.data.tensor import TimeSeriesTensor
    from repro.evaluation.metrics import nrmse
    from repro.online import CanaryConfig, DriftConfig, DriftDetector, \
        OnlineLoop
    from repro.streaming import StreamingService, WindowedStream

    truth = load_dataset(args.dataset, size=args.size, seed=args.seed)
    scenario = _scenario_from_args(args)
    incomplete, _ = apply_scenario(truth, scenario, seed=args.seed)
    window = max(4, min(args.window, incomplete.n_time // 4))

    # Inject the drift: a level shift on the second half of the timeline.
    _, observed_std = incomplete.observed_mean_std()
    half = incomplete.n_time // 2
    values = incomplete.values.copy()
    values[..., half:] += args.shift * (observed_std or 1.0)
    drifting = TimeSeriesTensor(values=values,
                                dimensions=list(incomplete.dimensions),
                                mask=incomplete.mask.copy(),
                                name=f"{incomplete.name}-drifting")
    head = drifting.slice_time(0, half)
    windows = list(WindowedStream.from_tensor(drifting, window_size=window,
                                              stride=window))
    post_shift = [w.index for w in windows if w.start >= half]

    drift_config = DriftConfig(nrmse_budget=args.budget, rolling_windows=2,
                               baseline_windows=2, cooldown_windows=2,
                               seed=args.seed)
    canary_config = CanaryConfig(min_shadow_samples=2, max_shadow_windows=8)

    def run_arm(online: bool, store_dir: str):
        svc = StreamingService(store_dir=store_dir)
        model = svc.service.fit(head, method=args.method,
                                model_id="online-bench")
        svc.open_stream("online-bench", warm_start=ModelRef.latest(model),
                        refit_every=0)
        loop = OnlineLoop(svc, drift=drift_config, canary=canary_config)
        if online:
            loop.watch("online-bench")
        # Both arms are scored on identical probe cells (same stream id,
        # seed and window indices → same hidden mask), against whatever
        # model @latest resolves to after each step.
        scorer = DriftDetector("online-bench", drift_config)
        scores = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for w in windows:
                loop.push("online-bench", w)
                loop.step()
                probe = scorer.make_probe(w)
                if probe is None:
                    continue
                probe_tensor, hidden = probe
                result = svc.service.impute(
                    ImputeRequest(model_id=ModelRef.latest("online-bench"),
                                  data=probe_tensor))
                scores[w.index] = nrmse(result.completed, w.tensor,
                                        mask=hidden)
        return svc, loop, scores

    with tempfile.TemporaryDirectory() as scratch:
        base = args.store_dir or scratch
        _, _, static_scores = run_arm(False, f"{base}/static")
        svc, loop, online_scores = run_arm(True, f"{base}/online")

        def post_mean(scores):
            vals = [scores[i] for i in post_shift
                    if i in scores and np.isfinite(scores[i])]
            return float(np.mean(vals)) if vals else float("nan")

        static_nrmse = post_mean(static_scores)
        online_nrmse = post_mean(online_scores)
        gain = static_nrmse / online_nrmse if online_nrmse > 0 else \
            float("nan")

        if not args.quiet:
            print(f"\n{'window':>6} {'static':>8} {'online':>8}")
            for w in windows:
                s = static_scores.get(w.index)
                o = online_scores.get(w.index)
                mark = " <- drift" if w.index == post_shift[0] else ""
                print(f"{w.index:>6} "
                      f"{s if s is not None else float('nan'):>8.3f} "
                      f"{o if o is not None else float('nan'):>8.3f}{mark}")

        journal = svc.service.versions.history("online-bench")
        unique = {(e["event"], e["version"]) for e in journal}
        exactly_once = len(unique) == len(journal)
        snap = loop.snapshot()
        print(f"\n[online] {args.dataset!r} + {args.shift:g} sigma shift at "
              f"t={half} ({len(windows)} windows of {window}, "
              f"method={args.method!r})")
        print(f"\n{'metric':<28} value")
        print("-" * 42)
        for label, value in [
                ("post-drift NRMSE (static)", f"{static_nrmse:.4f}"),
                ("post-drift NRMSE (online)", f"{online_nrmse:.4f}"),
                ("drift gain (static/online)", f"{gain:.2f}x"),
                ("drift events", str(snap.extras["drift_events"])),
                ("refits", str(snap.extras["loop_refits"])),
                ("promotions", str(snap.extras["promotions"])),
                ("rollbacks", str(snap.extras["rollbacks"])),
                ("journal transitions", str(len(journal))),
                ("journalled exactly once",
                 "yes" if exactly_once else "NO")]:
            print(f"{label:<28} {value}")
        if not exactly_once:
            print("[online] ERROR: duplicate journal transitions",
                  file=sys.stderr)
            return 1
        return 0


def _command_stream(args: argparse.Namespace) -> int:
    """Replay a dataset as a stream; per-window MAE + overall windows/sec."""
    from repro.streaming import replay

    scenario = _scenario_from_args(args)
    report = replay(
        args.dataset, method=args.method, scenario=scenario,
        window_size=args.window, stride=args.stride,
        refit_every=args.refit_every, max_history=args.max_history,
        n_streams=args.streams, store_dir=args.store_dir, size=args.size,
        seed=args.seed)

    print(f"[stream] replayed {args.dataset!r} under {scenario.describe()} "
          f"with {args.method!r} (window={args.window}, "
          f"refit_every={args.refit_every})")
    if not args.quiet:
        print(f"\n{'stream':<8} {'window':>6} {'span':>12} {'refit':>5} "
              f"{'MAE':>8} {'ms':>8}")
        for row in report.rows:
            error = f"{row.mae:.3f}" if row.mae == row.mae else "-"
            status = "FAIL" if not row.ok else error
            print(f"{row.stream_id:<8} {row.window_index:>6} "
                  f"{f'[{row.start},{row.stop})':>12} "
                  f"{'yes' if row.refit else '-':>5} {status:>8} "
                  f"{row.latency_seconds * 1e3:>8.1f}")
    print(f"\n[stream] {report.describe()}")
    if report.failures:
        failed = [row for row in report.rows if not row.ok]
        print(f"[stream] first failure ({failed[0].stream_id} window "
              f"{failed[0].window_index}):", file=sys.stderr)
        print(failed[0].error, file=sys.stderr)
    return 0 if not report.failures else 1


def _command_run(args: argparse.Namespace) -> int:
    data = load_dataset(args.dataset, size=args.size, seed=args.seed)
    scenario = _scenario_from_args(args)

    runner = ExperimentRunner(
        methods=args.methods,
        method_kwargs={m.lower(): _deepmvi_kwargs(args.size)
                       for m in args.methods
                       if m.lower().startswith("deepmvi")},
        seed=args.seed)
    results = runner.run_grid([data], [scenario], seed=args.seed,
                              workers=args.workers, cache_dir=args.cache_dir)
    _report_failures(runner)
    print(format_table(pivot(results, index="method", columns="scenario", value="mae"),
                       index_name="method"))
    runtimes = ", ".join(f"{r.method}={r.runtime_seconds:.2f}s" for r in results)
    print(f"\nruntimes: {runtimes}")
    return 0 if not runner.last_report.failed else 1


def _command_experiment(args: argparse.Namespace) -> int:
    spec = EXPERIMENTS[args.experiment_id]
    print(f"{spec.experiment_id}: {spec.description}")
    if not spec.methods:
        from repro.data.datasets import table1_summary
        for row in table1_summary():
            print(row)
        return 0

    runner = ExperimentRunner(
        methods=list(spec.methods),
        method_kwargs={name: _deepmvi_kwargs(args.size) for name in spec.methods
                       if name.startswith("deepmvi")},
        seed=args.seed)
    datasets = [load_dataset(name, size=args.size, seed=args.seed)
                for name in spec.datasets]
    scenarios = [scenario_for(name) for name in spec.scenarios
                 if name in STANDARD_SCENARIOS]
    if not scenarios:
        scenarios = [scenario_for("mcar")]
    results = runner.run_grid(datasets, scenarios, seed=args.seed,
                              workers=args.workers, cache_dir=args.cache_dir)
    print(f"[engine] {runner.last_report.describe()}")
    _report_failures(runner)
    print(format_table(pivot(results, index="dataset", columns="method", value="mae")))
    return 0 if not runner.last_report.failed else 1


def _report_failures(runner: ExperimentRunner) -> None:
    report = runner.last_report
    if report is None or not report.failed:
        return
    print(f"[engine] {report.failed} cell(s) failed; last error:", file=sys.stderr)
    print(report.failures[-1].error, file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "impute":
        return _command_impute(args)
    if args.command == "stream":
        return _command_stream(args)
    if args.command == "gateway-bench":
        return _command_gateway_bench(args)
    if args.command == "cluster-bench":
        return _command_cluster_bench(args)
    if args.command == "online-bench":
        return _command_online_bench(args)
    if args.command == "run":
        return _command_run(args)
    if args.command in ("experiment", "resume"):
        return _command_experiment(args)
    return 1


if __name__ == "__main__":
    sys.exit(main())
