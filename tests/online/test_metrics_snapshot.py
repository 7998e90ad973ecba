"""The unified MetricsSnapshot surface and the zero-traffic rate guards."""

import json

import numpy as np
import pytest

from repro.api import ImputationService, MetricsSnapshot
from repro.api.telemetry import ServingMetrics, rate
from repro.data.dimensions import Dimension
from repro.data.tensor import TimeSeriesTensor
from repro.gateway import Gateway
from repro.streaming import StreamingService, WindowedStream


class TestRateGuard:
    def test_zero_denominator_is_zero_not_a_crash(self):
        # The historical bug: a stats() call before any request completed
        # divided by zero.  Cold snapshots must be all zeros.
        assert rate(5, 0) == 0.0
        assert rate(0, 0) == 0.0
        assert rate(3, 0.0) == 0.0

    def test_live_denominator_divides(self):
        assert rate(1, 4) == 0.25


class TestMappingProtocol:
    def test_snapshot_indexes_like_the_legacy_dict(self):
        snap = MetricsSnapshot(qps=2.5, completed=10)
        assert snap["qps"] == 2.5
        assert snap["completed"] == 10
        assert snap.get("nope", "default") == "default"
        with pytest.raises(KeyError):
            snap["nope"]

    def test_optional_sections_only_appear_when_set(self):
        cold = MetricsSnapshot()
        assert "shards" not in cold
        assert "model_cache" not in cold
        assert cold["submitted_by_lane"] == {}  # core gateway key, always
        warm = MetricsSnapshot(shards={"shard-0": {}},
                               model_cache={"hit_rate": 0.5})
        assert warm["shards"] == {"shard-0": {}}
        assert warm["model_cache"]["hit_rate"] == 0.5

    def test_extras_merge_flat(self):
        snap = MetricsSnapshot(extras={"streams": 3, "refits": 1})
        assert snap["streams"] == 3
        assert dict(snap)["refits"] == 1

    def test_json_round_trip(self):
        snap = MetricsSnapshot(source="gateway", completed=4, qps=1.5)
        assert json.loads(snap.to_json()) == snap.to_dict()

    def test_iteration_matches_dict_form(self):
        snap = MetricsSnapshot(extras={"z": 1})
        assert list(snap) == list(snap.to_dict())
        assert len(snap) == len(snap.to_dict())
        assert set(snap.keys()) == set(snap.to_dict())


def tiny_tensor():
    values = np.arange(4 * 24, dtype=float).reshape(4, 24)
    mask = np.ones_like(values)
    mask[1, 3:6] = 0
    return TimeSeriesTensor(values=values,
                            dimensions=[Dimension.categorical("s", 4)],
                            mask=mask)


class TestColdSnapshots:
    def test_gateway_metrics_cold_snapshot_is_all_zeros(self):
        snap = ServingMetrics("gateway").snapshot()
        assert isinstance(snap, MetricsSnapshot)
        assert snap["qps"] == 0.0
        assert snap["fusion_rate"] == 0.0
        assert snap["fast_path_hit_rate"] == 0.0
        assert snap["mean_batch_size"] == 0.0

    def test_streaming_cold_stats_are_all_zeros(self):
        svc = StreamingService()
        snap = svc.stats()
        assert snap.source == "streaming"
        assert snap["qps"] == 0.0
        assert snap["fusion_rate"] == 0.0
        assert snap["completed"] == 0
        assert snap["streams"] == 0

    def test_gateway_cold_stats_before_any_traffic(self):
        service = ImputationService()
        gateway = Gateway(service)
        snap = gateway.stats()       # worker pool never started
        assert snap["qps"] == 0.0
        assert snap["completed"] == 0


class TestObsWireCompat:
    """The new obs-era fields must never disturb the legacy wire shape."""

    def test_legacy_key_order_is_preserved_with_obs_extras(self):
        snap = ServingMetrics("gateway").snapshot(
            lane_depths={"interactive": 0, "batch": 0},
            extras={"streams": 1})
        keys = list(snap.to_dict())
        # the historical core keys come first, in emission order, then the
        # optional ones; the tier's own extras close the dict
        assert tuple(keys[:len(MetricsSnapshot._CORE_KEYS)]) == \
            MetricsSnapshot._CORE_KEYS
        assert keys[len(MetricsSnapshot._CORE_KEYS):] == \
            ["queue_depth_by_lane", "streams"]
        assert snap["streams"] == 1

    def test_to_dict_round_trips_through_json(self):
        snap = ServingMetrics("gateway").snapshot()
        assert json.loads(snap.to_json()) == snap.to_dict()


class TestLiveSnapshots:
    def test_streaming_stats_count_served_windows(self):
        svc = StreamingService()
        svc.open_stream("s", method="mean")
        stream = WindowedStream.from_tensor(tiny_tensor(), window_size=8,
                                            stride=8)
        for window in stream:
            svc.push("s", window)
        while sum(len(s.pending) for s in svc._streams.values()):
            svc.step()
        snap = svc.stats()
        assert snap["completed"] == 3
        assert snap["failed"] == 0
        assert snap["qps"] > 0.0
        assert snap["streams"] == 1
        assert snap["latency_p50_seconds"] >= 0.0

    def test_all_three_tiers_share_the_core_keys(self):
        streaming = StreamingService().stats()
        gateway = ServingMetrics("gateway").snapshot()
        for key in MetricsSnapshot._CORE_KEYS:
            assert key in streaming
            assert key in gateway
