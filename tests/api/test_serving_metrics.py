"""Unit tests of the serving telemetry recorder."""

import numpy as np
import pytest

from repro.api.telemetry import LATENCY_RESERVOIR, ServingMetrics, percentile
from repro.data.dimensions import Dimension
from repro.data.tensor import TimeSeriesTensor
from repro.streaming import StreamingService, WindowedStream


class TestPercentile:
    def test_empty_and_single(self):
        assert percentile([], 50) == 0.0
        assert percentile([3.0], 99) == 3.0

    def test_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)

    def test_order_independent(self):
        assert percentile([5.0, 1.0, 3.0], 50) == 3.0


class TestServingMetrics:
    def test_counters_roll_up(self):
        metrics = ServingMetrics("gateway")
        metrics.record_submit("interactive")
        metrics.record_submit("interactive")
        metrics.record_submit("batch")
        metrics.record_rejected()
        metrics.record_expired()
        metrics.record_batch(2)
        metrics.record_completion(0.010, fused=True)
        metrics.record_completion(0.030, fused=False)
        snapshot = metrics.snapshot(queue_depth=1)
        assert snapshot["submitted"] == 3
        assert snapshot["submitted_by_lane"] == {"interactive": 2, "batch": 1}
        assert snapshot["completed"] == 2
        assert snapshot["rejected"] == 1
        assert snapshot["expired"] == 1
        assert snapshot["in_flight"] == 0
        assert snapshot["fusion_rate"] == pytest.approx(0.5)
        assert snapshot["mean_batch_size"] == pytest.approx(2.0)
        assert snapshot["queue_depth"] == 1

    def test_latency_percentiles_ordered(self):
        metrics = ServingMetrics("gateway")
        for value in (0.001, 0.002, 0.005, 0.010, 0.100):
            metrics.record_completion(value)
        snapshot = metrics.snapshot()
        assert snapshot["latency_p50_seconds"] <= \
            snapshot["latency_p95_seconds"] <= \
            snapshot["latency_p99_seconds"]
        assert snapshot["latency_p99_seconds"] <= 0.100

    def test_qps_counts_recent_completions(self):
        metrics = ServingMetrics("gateway")
        for _ in range(30):
            metrics.record_completion(0.001)
        assert metrics.snapshot()["qps"] > 0

    def test_reservoir_is_bounded(self):
        metrics = ServingMetrics("gateway")
        for index in range(LATENCY_RESERVOIR + 100):
            metrics.record_completion(float(index))
        # Only the most recent latencies survive: p50 of 100..4195.
        assert metrics.snapshot()["latency_p50_seconds"] == \
            pytest.approx(100 + (LATENCY_RESERVOIR - 1) / 2)

    def test_cache_stats_passthrough(self):
        snapshot = ServingMetrics("gateway").snapshot(
            model_cache={"hits": 3, "hit_rate": 1.0},
            lane_depths={"interactive": 2, "batch": 0})
        assert snapshot["model_cache"]["hits"] == 3
        assert snapshot["queue_depth_by_lane"]["interactive"] == 2

    def test_shards_rollup_passthrough(self):
        snapshot = ServingMetrics("gateway").snapshot(
            shards={"shard-0": {"alive": True, "results": 7}})
        assert snapshot["shards"]["shard-0"]["results"] == 7
        # Absent unless a cluster-backed gateway provides them.
        assert "shards" not in ServingMetrics("gateway").snapshot()

    def test_streaming_close_accounts_for_every_window(self):
        values = np.arange(2 * 40, dtype=float).reshape(2, 40)
        mask = np.ones_like(values)
        mask[0, 3:5] = 0
        tensor = TimeSeriesTensor(
            values=values, dimensions=[Dimension.categorical("s", 2)],
            mask=mask)
        svc = StreamingService()
        svc.open_stream("s", method="mean")
        for window in WindowedStream.from_tensor(tensor, window_size=8,
                                                 stride=8):
            svc.push("s", window)
        svc.step()
        svc.close_stream("s")       # discards the 4 windows still pending
        snapshot = svc.stats()
        assert snapshot["submitted_by_lane"] == {"stream": 5}
        assert (snapshot["completed"], snapshot["expired"]) == (1, 4)
        assert snapshot["completed"] + snapshot["failed"] + \
            snapshot["expired"] == snapshot["submitted"]
        assert snapshot["in_flight"] == 0
        assert snapshot["queue_depth"] == 0


class TestSnapshotConsistency:
    def test_concurrent_readers_never_see_torn_pairs(self):
        """Counters copied under one lock: derived rates stay coherent.

        Every completion is fused and fast-path, so any snapshot taken
        mid-stream must report fusion_rate == fast_path_hit_rate == 1.0
        exactly whenever completed > 0.  A torn read (fused_completed
        sampled after a completion, completed sampled before it) would
        report a rate above 1.0; stale pairs would report below 1.0.
        """
        import threading

        metrics = ServingMetrics("gateway")
        stop = threading.Event()
        torn = []

        def recorder():
            while not stop.is_set():
                metrics.record_submit("interactive")
                metrics.record_completion(0.001, fused=True, fast_path=True)

        def reader():
            while not stop.is_set():
                snapshot = metrics.snapshot()
                if snapshot["completed"]:
                    for key in ("fusion_rate", "fast_path_hit_rate"):
                        if snapshot[key] != 1.0:
                            torn.append((key, snapshot[key],
                                         snapshot["completed"]))
                if snapshot["in_flight"] < 0:
                    torn.append(("in_flight", snapshot["in_flight"], None))

        threads = [threading.Thread(target=recorder) for _ in range(2)] + \
                  [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        import time

        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert metrics.snapshot()["completed"] > 0
        assert torn == []
