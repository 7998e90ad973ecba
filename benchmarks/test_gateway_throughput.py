"""Gateway serving throughput: concurrent producers vs one-at-a-time.

The serving gateway's claim is that under concurrent traffic it beats the
naive pattern (every caller invokes ``service.impute()`` itself, one
request at a time) by fusing same-model window-shaped requests into shared
forward calls.  ``N_PRODUCERS`` producer threads measure three modes:

* **sequential** — one thread serves every request back-to-back through
  ``service.impute()`` (the zero-concurrency floor);
* **one-at-a-time concurrent** — the producers each call
  ``service.impute()`` directly, serialised by a lock (the service is not
  thread-safe); this is the pattern the gateway replaces;
* **gateway** — the same producers submit to :class:`repro.gateway.Gateway`
  through :func:`repro.evaluation.drills.gateway_pass` (acceptance bar:
  **>= 2x** requests/sec against both baselines).

The concurrent modes are timed from a barrier release.  The three modes
run as ``REPEATS`` interleaved rounds, one pass of each per round, with
the mode that goes first rotating from round to round; each speedup is
the median of its per-round ratios.  A ratio of two passes made back to
back is less exposed to drift in the host's speed than a ratio of
per-mode best passes made in separate blocks.  Every gateway pass must
deliver each request exactly once, in submit order per producer.

Results land in ``benchmarks/results/gateway_throughput.{txt,json}``.
The CI bench-regression job re-runs this file in fast mode and gates
``gateway.concurrent_speedup`` against
``benchmarks/baselines/gateway_fast.json`` via
``benchmarks/check_regression.py`` (25% tolerance).
"""

import json
import statistics
import threading
import time

from repro.api import ImputationService
from repro.core.config import DeepMVIConfig
from repro.data.missing import MissingScenario, apply_scenario
from repro.evaluation.drills import (gateway_pass, timed_producers,
                                     window_traffic)
from repro.gateway import GatewayConfig

from benchmarks._harness import bench_dataset, emit, is_fast

N_PRODUCERS = 8

if is_fast():
    SERVING_WINDOW = 25
    REQUESTS_PER_PRODUCER = 8
    REPEATS = 3
    SERVING_CONFIG = dict(max_epochs=2, samples_per_epoch=32, patience=1,
                          batch_size=8, n_filters=4, max_context_windows=8)
else:
    SERVING_WINDOW = 16
    REQUESTS_PER_PRODUCER = 16
    REPEATS = 4
    SERVING_CONFIG = dict(max_epochs=3, samples_per_epoch=128, patience=2,
                          batch_size=16, n_filters=8, max_context_windows=16)

MAX_BATCH_SIZE = 64
MAX_WAIT_MS = 10.0
GATEWAY_CONFIG = GatewayConfig(
    max_batch_size=MAX_BATCH_SIZE, max_wait_ms=MAX_WAIT_MS, workers=1,
    max_queue_depth=4096, admission="block")
SCENARIO = MissingScenario("mcar", {"incomplete_fraction": 0.5,
                                    "block_size": 4})


def test_gateway_throughput(results_dir):
    truth = bench_dataset("airq", seed=0)
    incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
    config = DeepMVIConfig(**SERVING_CONFIG)
    service = ImputationService()
    model_id = service.fit(incomplete, method="deepmvi", config=config)
    traffic = window_traffic(incomplete, SERVING_WINDOW,
                             REQUESTS_PER_PRODUCER, N_PRODUCERS)
    total = N_PRODUCERS * REQUESTS_PER_PRODUCER

    # Warm the serving path (first impute builds lazy tables and the
    # per-shape context-structure template).
    for tensor in traffic[0]:
        service.impute(tensor, model_id=model_id)

    def sequential_pass():
        start = time.perf_counter()
        for windows in traffic:
            for tensor in windows:
                service.impute(tensor, model_id=model_id)
        return total / (time.perf_counter() - start)

    # The pattern the gateway replaces: every producer calls
    # service.impute() itself.  The service is not thread-safe, so the
    # calls serialise on a lock — which is precisely what "one-at-a-time"
    # serving is.
    impute_lock = threading.Lock()

    def naive_producer(producer_index):
        for tensor in traffic[producer_index]:
            with impute_lock:
                service.impute(tensor, model_id=model_id)

    def naive_pass():
        return total / timed_producers(N_PRODUCERS, naive_producer)

    gateway_runs = []

    def gateway_mode_pass():
        run = gateway_pass(service, model_id, traffic, GATEWAY_CONFIG)
        # Delivery integrity on EVERY pass: exactly one result per request,
        # in submit order per producer (the gateway preserves caller ids).
        for producer_index, results in enumerate(run.results):
            expected = [f"p{producer_index}-r{index:03d}"
                        for index in range(REQUESTS_PER_PRODUCER)]
            assert [r.request_id for r in results] == expected, (
                f"producer {producer_index} results out of order or lost")
        assert run.stats["completed"] == total and run.stats["failed"] == 0
        gateway_runs.append(run)
        return run.requests_per_second

    # One pass of each mode per round, the first mode rotating: requests/sec
    # per mode for each round.
    passes = {"sequential": sequential_pass, "naive": naive_pass,
              "gateway": gateway_mode_pass}
    names = list(passes)
    rounds = []
    for index in range(REPEATS):
        first = index % len(names)
        rounds.append({name: passes[name]()
                       for name in names[first:] + names[:first]})

    def paired_speedup(baseline):
        return statistics.median(one["gateway"] / max(one[baseline], 1e-9)
                                 for one in rounds)

    sequential_rps, naive_rps, gateway_rps = (
        max(one[name] for one in rounds) for name in names)
    best_stats = max(gateway_runs,
                     key=lambda run: run.requests_per_second).stats
    speedup = paired_speedup("naive")
    speedup_vs_sequential = paired_speedup("sequential")
    metrics = {
        "gateway.sequential_requests_per_sec": sequential_rps,
        "gateway.naive_concurrent_requests_per_sec": naive_rps,
        "gateway.concurrent_requests_per_sec": gateway_rps,
        "gateway.concurrent_speedup": speedup,
        "gateway.sequential_speedup": speedup_vs_sequential,
        "gateway.fusion_rate": best_stats["fusion_rate"],
        "gateway.mean_batch_size": best_stats["mean_batch_size"],
        "gateway.latency_p50_seconds": best_stats["latency_p50_seconds"],
        "gateway.latency_p95_seconds": best_stats["latency_p95_seconds"],
        "gateway.latency_p99_seconds": best_stats["latency_p99_seconds"],
    }
    lines = [
        f"serving  sequential {sequential_rps:>8.1f} req/sec   "
        f"one-at-a-time({N_PRODUCERS} producers) {naive_rps:>8.1f} req/sec",
        f"gateway  {gateway_rps:>8.1f} req/sec   "
        f"{speedup:.2f}x vs one-at-a-time   "
        f"{speedup_vs_sequential:.2f}x vs sequential",
        f"gateway  fusion {best_stats['fusion_rate']:.0%}   "
        f"mean batch {best_stats['mean_batch_size']:.1f}   "
        f"p50 {best_stats['latency_p50_seconds'] * 1e3:.1f} ms   "
        f"p95 {best_stats['latency_p95_seconds'] * 1e3:.1f} ms   "
        f"p99 {best_stats['latency_p99_seconds'] * 1e3:.1f} ms",
    ]

    payload = {
        "benchmark": "gateway_throughput",
        "fast_mode": is_fast(),
        "workload": {
            "dataset": "airq",
            "window": SERVING_WINDOW,
            "producers": N_PRODUCERS,
            "requests_per_producer": REQUESTS_PER_PRODUCER,
            "max_batch_size": MAX_BATCH_SIZE,
            "max_wait_ms": MAX_WAIT_MS,
            "scenario": SCENARIO.describe(),
        },
        "metrics": {key: round(float(value), 4)
                    for key, value in sorted(metrics.items())},
        # Dimensionless ratio gated by benchmarks/check_regression.py:
        # stable across host speeds, unlike absolute requests/sec.
        "gate": ["gateway.concurrent_speedup"],
    }
    emit(results_dir, "gateway_throughput",
         "Gateway serving throughput: concurrent producers vs sequential",
         "\n".join(lines))
    (results_dir / "gateway_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    # Acceptance bar: the gateway must at least double one-at-a-time
    # throughput under concurrent window-shaped traffic — against both the
    # concurrent naive pattern it replaces and the zero-concurrency
    # sequential floor.
    assert speedup >= 2.0, (
        f"gateway throughput only {speedup:.2f}x the one-at-a-time "
        f"concurrent baseline (bar: 2.0x)")
    assert speedup_vs_sequential >= 2.0, (
        f"gateway throughput only {speedup_vs_sequential:.2f}x the "
        f"sequential baseline (bar: 2.0x)")
    # Micro-batching must actually engage — a gateway that degenerates to
    # per-request serving can still pass a noisy speedup check.
    assert best_stats["fusion_rate"] >= 0.9, (
        f"fusion rate {best_stats['fusion_rate']:.0%} — the adaptive "
        "batcher is not grouping requests")
