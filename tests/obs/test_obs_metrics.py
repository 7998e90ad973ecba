"""Metrics registry tests: primitives, rendering, snapshot feeding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.telemetry import MetricsSnapshot
from repro.data.dimensions import Dimension
from repro.data.tensor import TimeSeriesTensor
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    feed_snapshot,
)
from repro.streaming import StreamingService, WindowedStream


class TestPrimitives:
    def test_counter_is_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_counter_set_to_at_least_never_rewinds(self):
        counter = Counter("c")
        counter.set_to_at_least(10)
        counter.set_to_at_least(4)     # a re-fed older snapshot
        assert counter.value == 10

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.inc()
        gauge.dec(3)
        assert gauge.value == 3.0

    def test_histogram_cumulative_buckets(self):
        histogram = Histogram("h", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 2.0):
            histogram.observe(value)
        lines = list(histogram.render())
        assert 'h_bucket{le="0.1"} 1' in lines
        assert 'h_bucket{le="1"} 3' in lines
        assert 'h_bucket{le="+Inf"} 4' in lines
        assert "h_count 4" in lines
        assert any(line.startswith("h_sum") for line in lines)


class TestRegistry:
    def test_first_use_registers_then_reuses(self):
        registry = MetricsRegistry()
        first = registry.counter("served_total", "requests served")
        second = registry.counter("served_total")
        assert first is second
        assert first.name == "repro_served_total"

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("thing")

    def test_render_is_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("served_total", "requests served").inc(3)
        registry.gauge("queue_depth").set(7)
        text = registry.render()
        assert "# HELP repro_served_total requests served" in text
        assert "# TYPE repro_served_total counter" in text
        assert "repro_served_total 3" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 7" in text
        assert text.endswith("\n")

    def test_names_are_sanitised(self):
        registry = MetricsRegistry(prefix="")
        metric = registry.counter("shard-0.serve total")
        assert metric.name == "shard_0_serve_total"


class TestFeedSnapshot:
    def _snapshot(self, **overrides):
        base = dict(source="gateway", submitted=5, completed=4, qps=2.5,
                    latency_p95_seconds=0.25,
                    submitted_by_lane={"interactive": 3, "batch": 2},
                    extras={"refits": 1})
        base.update(overrides)
        return MetricsSnapshot(**base)

    def test_scalars_become_source_prefixed_series(self):
        registry = MetricsRegistry()
        feed_snapshot(self._snapshot(), reg=registry)
        text = registry.render()
        assert "repro_gateway_submitted 5" in text
        assert "repro_gateway_qps 2.5" in text
        assert "repro_gateway_refits 1" in text

    def test_counters_vs_gauges(self):
        registry = MetricsRegistry()
        feed_snapshot(self._snapshot(), reg=registry)
        # cumulative totals are counters, instantaneous values gauges
        assert registry.counter("gateway_submitted").value == 5
        assert registry.gauge("gateway_qps").value == 2.5
        assert registry.gauge("gateway_latency_p95_seconds").value == 0.25

    def test_refeeding_is_idempotent_and_rates_may_fall(self):
        registry = MetricsRegistry()
        feed_snapshot(self._snapshot(), reg=registry)
        feed_snapshot(self._snapshot(qps=1.0), reg=registry)
        assert registry.counter("gateway_submitted").value == 5
        assert registry.gauge("gateway_qps").value == 1.0

    def test_lane_dicts_fan_out(self):
        registry = MetricsRegistry()
        feed_snapshot(self._snapshot(), reg=registry)
        assert registry.gauge(
            "gateway_submitted_by_lane_interactive").value == 3

    def test_source_read_from_the_dataclass_field(self):
        # MetricsSnapshot's dict form omits "source" on purpose; the
        # feeder must still namespace by tier
        registry = MetricsRegistry()
        feed_snapshot(MetricsSnapshot(source="cluster", submitted=2),
                      reg=registry)
        assert "repro_cluster_submitted 2" in registry.render()

    def test_plain_dicts_are_accepted(self):
        registry = MetricsRegistry()
        feed_snapshot({"source": "streaming", "windows": 9}, reg=registry)
        # not one of the recorder's cumulative counts: a gauge
        assert registry.gauge("streaming_windows").value == 9

    def test_values_that_fall_are_gauges(self):
        # Two streams open, then both close: the open-stream count falls
        # to zero, which a counter could never show.
        values = np.arange(2 * 16, dtype=float).reshape(2, 16)
        tensor = TimeSeriesTensor(
            values=values, dimensions=[Dimension.categorical("s", 2)])
        svc = StreamingService()
        for stream_id in ("a", "b"):
            svc.open_stream(stream_id, method="mean")
            for window in WindowedStream.from_tensor(tensor, window_size=8,
                                                     stride=8):
                svc.push(stream_id, window)
        registry = MetricsRegistry()
        feed_snapshot(svc.stats(), reg=registry)
        assert "repro_streaming_streams 2" in registry.render()
        svc.close_stream("a")
        svc.close_stream("b")
        feed_snapshot(svc.stats(), reg=registry)
        text = registry.render()
        assert "repro_streaming_streams 0" in text
        assert "# TYPE repro_streaming_streams gauge" in text
        assert "repro_streaming_in_flight 0" in text
        # the recorder's cumulative counts stay counters
        assert "# TYPE repro_streaming_expired counter" in text
        assert "repro_streaming_expired 4" in text

    def test_bools_are_not_series(self):
        registry = MetricsRegistry()
        feed_snapshot({"source": "x", "alive": True}, reg=registry)
        assert "alive" not in registry.render()
