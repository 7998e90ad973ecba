"""Streaming throughput: windows/sec, serial vs. routed through a gateway.

The streaming serving path (:mod:`repro.streaming`) micro-batches each
step's windows per model, in process.  This harness replays the same
multi-stream workload twice — through the wrapped service's own
``submit``/``gather`` sweep (:func:`repro.streaming.replay`), and with
every step routed through one running :class:`repro.gateway.Gateway`
(``StreamingService.step(gateway=...)``) — and reports windows/sec for
both plus the gateway/serial ratio.  Both arms must score every window
identically.

The replayed workload is deliberately compute-heavy per window (SVD
completion with many iterations on long windows) so the comparison measures
imputation throughput, not queueing overhead.  Results land in
``benchmarks/results/streaming_throughput.{txt,json}``; the JSON is the
artifact the CI bench-smoke job uploads.

Under ``REPRO_BENCH_FAST=1`` the workload shrinks to smoke-test size.
"""

import json
import time

import numpy as np

from repro.data.missing import MissingScenario, apply_scenario
from repro.gateway import Gateway
from repro.streaming import (
    ReplayReport,
    StreamingService,
    WindowedStream,
    replay,
)
from repro.streaming.replay import _window_score

from benchmarks._harness import bench_dataset, emit, is_fast

if is_fast():
    N_STREAMS = 2
    DATASET = "airq"
    WINDOW = 24
    SVD_ITERS = 10
else:
    N_STREAMS = 4
    DATASET = "gas"           # 100 series: SVD per window is genuinely heavy
    WINDOW = 96
    SVD_ITERS = 300

SCENARIO = MissingScenario("correlated_failure",
                           {"incomplete_fraction": 0.5, "block_size": 6,
                            "n_events": 2, "jitter": 2})
# tol=0 forces every SVD iteration so the per-window cost is constant and
# the comparison measures throughput, not early convergence luck.
SVD_KWARGS = dict(max_iters=SVD_ITERS, tol=0.0, rank=8)


def _serial_replay(truth):
    return replay(
        truth, method="svdimp", scenario=SCENARIO,
        window_size=min(WINDOW, truth.n_time), stride=None,
        refit_every=0,            # fit once per stream, then serve
        n_streams=N_STREAMS, seed=0, **SVD_KWARGS)


def _gateway_replay(truth):
    """The same streams as :func:`_serial_replay`, stepped via a gateway."""
    streaming = StreamingService()
    windows, masks = {}, {}
    for k in range(N_STREAMS):
        stream_id = f"s{k}"
        incomplete, masks[stream_id] = apply_scenario(truth, SCENARIO,
                                                      seed=k)
        windows[stream_id] = iter(WindowedStream.from_tensor(
            incomplete, window_size=min(WINDOW, truth.n_time)))
        streaming.open_stream(stream_id, method="svdimp", refit_every=0,
                              **SVD_KWARGS)
    served = []
    with Gateway(streaming.service) as gateway:
        start = time.perf_counter()
        while windows:
            for stream_id, source in list(windows.items()):
                window = next(source, None)
                if window is None:
                    del windows[stream_id]
                else:
                    streaming.push(stream_id, window)
            served.extend(streaming.step(gateway=gateway))
        elapsed = time.perf_counter() - start

    report = ReplayReport(elapsed_seconds=elapsed, n_streams=N_STREAMS,
                          method="svdimp", scenario=SCENARIO.describe())
    for result in sorted(served,
                         key=lambda r: (r.stream_id, r.window_index)):
        report.rows.append(
            _window_score(result, truth, masks[result.stream_id]))
    return report


def test_streaming_throughput_serial_vs_gateway(results_dir):
    truth = bench_dataset(DATASET, seed=0)
    serial = _serial_replay(truth)
    routed = _gateway_replay(truth)

    assert serial.windows == routed.windows > 0
    assert serial.failures == 0 and routed.failures == 0
    ratio = routed.windows_per_second / max(serial.windows_per_second, 1e-9)

    lines = [
        f"workload: {DATASET}, {N_STREAMS} streams x "
        f"{serial.windows // N_STREAMS} windows of {WINDOW} steps, "
        f"svdimp(max_iters={SVD_ITERS}, tol=0), {SCENARIO.describe()}",
        f"serial  (submit/gather):  {serial.windows_per_second:8.2f} "
        f"windows/sec (mean MAE {serial.mean_mae:.3f})",
        f"gateway (step(gateway=)): {routed.windows_per_second:8.2f} "
        f"windows/sec (mean MAE {routed.mean_mae:.3f})",
        f"gateway/serial: {ratio:.2f}x",
    ]
    emit(results_dir, "streaming_throughput",
         "Streaming windows/sec, serial vs gateway-routed steps",
         "\n".join(lines))

    payload = {
        "workload": {
            "dataset": DATASET,
            "n_streams": N_STREAMS,
            "window_size": WINDOW,
            "method": "svdimp",
            "svd_max_iters": SVD_ITERS,
            "scenario": SCENARIO.describe(),
            "fast_mode": is_fast(),
        },
        "serial": serial.to_record(),
        "gateway": routed.to_record(),
        "gateway_ratio": round(ratio, 3),
    }
    (results_dir / "streaming_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    # Identical per-window accuracy whichever way the steps are served.
    assert [(row.stream_id, row.window_index) for row in serial.rows] == \
        [(row.stream_id, row.window_index) for row in routed.rows]
    np.testing.assert_array_equal([row.mae for row in serial.rows],
                                  [row.mae for row in routed.rows])


def test_streaming_scenarios_reachable(results_dir):
    """Every live-failure scenario replays through the streaming layer."""
    truth = bench_dataset("airq", seed=1)
    rows = []
    for name in ("drift_outage", "correlated_failure", "periodic_outage"):
        report = replay(truth, method="interpolation", scenario=name,
                        window_size=min(WINDOW, truth.n_time),
                        refit_every=4, n_streams=1, seed=1)
        assert report.windows > 0 and report.failures == 0
        rows.append(f"{name:<20} {report.windows:>4} windows  "
                    f"{report.windows_per_second:>8.1f} w/s  "
                    f"mean MAE {report.mean_mae:.3f}")
    emit(results_dir, "streaming_scenarios",
         "Live-failure scenarios through the streaming layer",
         "\n".join(rows))
