"""Fast-path serving throughput: precomputed lookup tables vs full forward.

The fast path (:mod:`repro.core.fast_path`) precomputes per-model lookup
tables at fit time — pooled transformer hiddens per (series, window),
fine-grained signals and kernel-regression summaries per missing cell,
plus frozen copies of the decode/output parameters — so that
*repeat-snapshot* traffic (requests whose content matches the fitted
tensor: dashboards re-polling, retry storms, replicas warming) is answered
with NumPy gathers and one small matmul instead of a fused forward pass.

This benchmark measures that trade end to end on the same model weights:

* **full forward** — a model fitted with ``fast_path=False`` serves the
  repeat traffic through the fused forward (the floor the tables beat);
* **cold build** — one ``build_fast_path_tables()`` call is timed: the
  price paid once per fit, amortised over every warm request after it;
* **warm lookup** — the same traffic against the built tables
  (acceptance bar: **>= 4x** full-forward requests/sec in full mode,
  >= 2x in fast mode where fixed per-request overhead looms larger);
* **hit-rate sweep** — mixes of table-hit and table-miss requests through
  :class:`repro.gateway.Gateway`, reading ``fast_path_hit_rate`` from
  ``Gateway.stats()`` to show telemetry tracks the traffic mix;
* **miss serving** — table-miss requests through ``impute_many``, which
  forwards each context and window once, against the per-cell forward
  (``model.predict`` over ``build_batch`` of the same cells): the
  ``miss_speedup`` (acceptance bar: **>= 2x** in both modes).  It runs a
  default-architecture model on 300-step spans, where a context holds
  all 30 windows of a series; under ``SERVING_CONFIG`` contexts hold at
  most 8-16 windows and the ratio says little.

Results land in ``benchmarks/results/fast_path.{txt,json}``.  In full
mode the payload is also written to the repo-root ``BENCH_fast_path.json``
trajectory artifact.  The CI bench-regression job re-runs this file in
fast mode and gates ``fast_path.warm_speedup`` and
``fast_path.miss_speedup`` against
``benchmarks/baselines/fast_path_fast.json`` via
``benchmarks/check_regression.py`` (25% tolerance).
"""

import json
import pathlib
import time

from repro.api import ImputationService
from repro.api.requests import ImputeRequest
from repro.core.config import DeepMVIConfig
from repro.core.fast_path import build_fast_path_tables
from repro.core.imputer import DeepMVIImputer
from repro.data.missing import MissingScenario, apply_scenario
from repro.data.tensor import TimeSeriesTensor
from repro.gateway import Gateway, GatewayConfig

from benchmarks._harness import bench_dataset, emit, is_fast

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

if is_fast():
    DATASET = "airq"
    N_REQUESTS = 16
    TIME_BUDGET = 0.25                # seconds of timing per measurement
    SPEEDUP_FLOOR = 2.0
    SERVING_CONFIG = dict(max_epochs=2, samples_per_epoch=32, patience=1,
                          batch_size=8, n_filters=4, max_context_windows=8)
else:
    DATASET = "airq"
    N_REQUESTS = 32
    TIME_BUDGET = 1.0
    SPEEDUP_FLOOR = 4.0
    SERVING_CONFIG = dict(max_epochs=3, samples_per_epoch=128, patience=2,
                          batch_size=16, n_filters=8,
                          max_context_windows=16)

SCENARIO = MissingScenario("mcar", {"incomplete_fraction": 0.5,
                                    "block_size": 4})
SWEEP_MIXES = (0.0, 0.5, 1.0)

#: miss serving: a default-architecture model, fitted briefly, serving
#: perturbed copies of a 300-step span (every cell a table miss)
MISS_CONFIG = dict(max_epochs=1, min_epochs=1, samples_per_epoch=32,
                   batch_size=16)
MISS_STEPS = 300
N_MISS_REQUESTS = 16
MISS_SPEEDUP_FLOOR = 2.0


def _throughput(fn, units_per_call: int) -> float:
    """Units/sec of ``fn``, timed over at least ``TIME_BUDGET`` seconds."""
    fn()                                          # warm-up
    calls = 0
    start = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= TIME_BUDGET:
            return calls * units_per_call / elapsed


def _copy_of(tensor, name):
    """Content-identical tensor, different object — repeat traffic."""
    return TimeSeriesTensor(values=tensor.values.copy(),
                            dimensions=list(tensor.dimensions),
                            mask=tensor.mask.copy(), name=name)


def _perturbed(tensor, name, shift=1.0):
    """Same shape, shifted values — guaranteed table miss."""
    return TimeSeriesTensor(values=tensor.values + shift,
                            dimensions=list(tensor.dimensions),
                            mask=tensor.mask.copy(), name=name)


def _repeat_traffic(incomplete):
    """Repeat-snapshot requests: fitted-tensor polls + identical copies."""
    return [None if index % 2 == 0
            else _copy_of(incomplete, f"snapshot-{index}")
            for index in range(N_REQUESTS)]


def _serve_all(service, model_id, traffic):
    def run():
        for tensor in traffic:
            service.impute(ImputeRequest(model_id=model_id, data=tensor))
    return run


def _miss_serving():
    """Requests/sec of table-miss serving: fused ``impute_many`` vs per cell.

    The per-cell forward gives every missing cell its own context and
    window (``model.predict`` over ``build_batch`` of a request's cells);
    ``impute_many`` forwards each distinct context and window once.
    """
    truth = bench_dataset(DATASET, seed=0, length=MISS_STEPS)
    incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
    imputer = DeepMVIImputer(config=DeepMVIConfig(**MISS_CONFIG))
    imputer.fit(incomplete)
    traffic = [_perturbed(incomplete, f"miss-{index}", shift=1.0 + index)
               for index in range(N_MISS_REQUESTS)]

    def per_cell():
        for tensor in traffic:
            plan = imputer._plan(tensor)
            rows, times = plan.cells.T
            plan.matrix[rows, times] = imputer.model.predict(
                plan.context.build_batch(rows, times))
            plan.complete()

    per_cell_rps = _throughput(per_cell, len(traffic))
    fused_rps = _throughput(lambda: imputer.impute_many(traffic),
                            len(traffic))
    assert not any(info["fast_path_hits"]
                   for info in imputer.last_impute_info)
    return fused_rps, per_cell_rps


def test_fast_path_throughput(results_dir):
    metrics = {}
    lines = []
    truth = bench_dataset(DATASET, seed=0)
    incomplete, _ = apply_scenario(truth, SCENARIO, seed=0)
    traffic = _repeat_traffic(incomplete)

    # -- full forward: the same weights with the fast path disabled ----- #
    service = ImputationService()
    off_config = DeepMVIConfig(**SERVING_CONFIG, fast_path=False)
    off_id = service.fit(incomplete, method="deepmvi", config=off_config)
    full_rps = _throughput(_serve_all(service, off_id, traffic),
                           len(traffic))

    # -- cold build: the one-off price of the tables -------------------- #
    warm_id = service.fit(incomplete, method="deepmvi",
                          config=DeepMVIConfig(**SERVING_CONFIG))
    warm = service.store.get(warm_id)
    assert warm.fast_path_info()["built"] is True
    build_start = time.perf_counter()
    tables = build_fast_path_tables(
        warm.model, warm.context, batch_size=warm.config.impute_batch_size)
    cold_build_seconds = time.perf_counter() - build_start
    info = tables.describe()

    # -- warm lookup: the same traffic served from the tables ----------- #
    warm_rps = _throughput(_serve_all(service, warm_id, traffic),
                           len(traffic))
    warm_speedup = warm_rps / max(full_rps, 1e-9)
    metrics["fast_path.full_forward_requests_per_sec"] = full_rps
    metrics["fast_path.warm_requests_per_sec"] = warm_rps
    metrics["fast_path.warm_speedup"] = warm_speedup
    metrics["fast_path.cold_build_seconds"] = cold_build_seconds
    metrics["fast_path.table_build_seconds"] = info["build_seconds"]
    metrics["fast_path.table_nbytes"] = info["nbytes"]
    metrics["fast_path.table_cells"] = info["cells"]
    breakeven = cold_build_seconds * full_rps * warm_speedup / max(
        warm_speedup - 1.0, 1e-9)
    metrics["fast_path.breakeven_requests"] = breakeven
    lines.append(
        f"serving  full forward {full_rps:>8.1f} req/sec   "
        f"warm lookup {warm_rps:>8.1f} req/sec   "
        f"speedup {warm_speedup:.2f}x")
    lines.append(
        f"tables   build {cold_build_seconds * 1e3:>7.1f} ms   "
        f"{info['nbytes'] / 1024:.1f} KiB for {info['cells']} cells   "
        f"pays for itself after ~{breakeven:.0f} warm requests")

    # -- hit-rate sweep through the gateway ----------------------------- #
    for mix in SWEEP_MIXES:
        n_hits = round(N_REQUESTS * mix)
        requests = [
            _copy_of(incomplete, f"hit-{index}") if index < n_hits
            else _perturbed(incomplete, f"miss-{index}")
            for index in range(N_REQUESTS)]
        gateway = Gateway(service, GatewayConfig(max_batch_size=8,
                                                 max_wait_ms=5.0))
        start = time.perf_counter()
        futures = gateway.submit_many(requests, model_id=warm_id)
        results = [future.result(timeout=300.0) for future in futures]
        elapsed = time.perf_counter() - start
        stats = gateway.stats()
        gateway.close()
        assert len(results) == N_REQUESTS
        assert stats["completed"] == N_REQUESTS
        hit_rate = stats["fast_path_hit_rate"]
        label = f"mix{int(mix * 100):03d}"
        metrics[f"fast_path.{label}.hit_rate"] = hit_rate
        metrics[f"fast_path.{label}.requests_per_sec"] = \
            N_REQUESTS / elapsed
        lines.append(
            f"gateway  {mix:>4.0%} hit traffic -> "
            f"fast_path_hit_rate {hit_rate:>4.0%}   "
            f"{N_REQUESTS / elapsed:>8.1f} req/sec")
        # Telemetry must track the offered mix.  A request counts as a
        # hit only when the tables answer every one of its cells, so the
        # middle point reads the hit share (0.5 in the last runs); it is
        # bounded here, not pinned.
        if mix == 0.0:
            assert hit_rate == 0.0
        elif mix == 1.0:
            assert hit_rate == 1.0
        else:
            assert 0.0 < hit_rate < 1.0

    # -- miss serving: per-window forward vs per-cell forward ----------- #
    miss_rps, per_cell_rps = _miss_serving()
    miss_speedup = miss_rps / max(per_cell_rps, 1e-9)
    metrics["fast_path.miss_requests_per_sec"] = miss_rps
    metrics["fast_path.per_cell_requests_per_sec"] = per_cell_rps
    metrics["fast_path.miss_speedup"] = miss_speedup
    lines.append(
        f"misses   per-cell forward {per_cell_rps:>8.1f} req/sec   "
        f"impute_many {miss_rps:>8.1f} req/sec   "
        f"speedup {miss_speedup:.2f}x")

    payload = {
        "benchmark": "fast_path",
        "fast_mode": is_fast(),
        "workload": {
            "dataset": DATASET,
            "n_requests": N_REQUESTS,
            "sweep_mixes": list(SWEEP_MIXES),
            "scenario": SCENARIO.describe(),
            "miss_requests": N_MISS_REQUESTS,
            "miss_steps": MISS_STEPS,
        },
        "metrics": {key: round(float(value), 4)
                    for key, value in sorted(metrics.items())},
        # Dimensionless ratios gated by benchmarks/check_regression.py:
        # stable across host speeds, unlike absolute requests/sec.
        "gate": ["fast_path.warm_speedup", "fast_path.miss_speedup"],
    }
    emit(results_dir, "fast_path",
         "Fast-path serving: precomputed lookup tables vs full forward",
         "\n".join(lines))
    (results_dir / "fast_path.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    if not is_fast():
        # The committed trajectory artifact is only refreshed by full runs.
        (REPO_ROOT / "BENCH_fast_path.json").write_text(
            json.dumps(payload, indent=2) + "\n")

    # Acceptance bar: warm table-hit serving must beat the fused forward
    # by 4x in full mode (2x in fast mode, where the model is tiny and
    # fixed per-request service overhead looms larger).
    assert warm_speedup >= SPEEDUP_FLOOR, (
        f"fast path only {warm_speedup:.2f}x the full forward "
        f"(bar: {SPEEDUP_FLOOR}x)")
    # Miss serving forwards each context and window once, so it must beat
    # the per-cell forward by 2x in both modes.
    assert miss_speedup >= MISS_SPEEDUP_FLOOR, (
        f"miss serving only {miss_speedup:.2f}x the per-cell forward "
        f"(bar: {MISS_SPEEDUP_FLOOR}x)")
