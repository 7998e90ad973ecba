"""Unified serving telemetry: :class:`ServingMetrics` and its
:class:`MetricsSnapshot`.

:class:`ServingMetrics` is the one thread-safe recorder the serving tiers
own: the gateway records admissions, batches and completions into it, and
the streaming service records pushed, served, failed and discarded
windows.  ``snapshot()`` renders the counters into the serving dashboard
numbers:

* **QPS** — completions per second over a sliding window
  (:data:`QPS_WINDOW_SECONDS`), falling back to the lifetime rate while
  the recorder is younger than the window;
* **latency percentiles** — p50/p95/p99 over a bounded reservoir of the
  :data:`LATENCY_RESERVOIR` most recent end-to-end latencies;
* **fusion rate** — fraction of completed requests served by a fused
  ``impute_many`` forward call rather than a per-request ``impute``;
* **fast-path hit rate** — fraction of completed requests answered
  entirely from the precomputed lookup tables
  (:mod:`repro.core.fast_path`), i.e. without any transformer forward;
* **batch shape** — mean batch size and total batches dispatched;
* **admission outcomes** — submitted / completed / failed / rejected /
  expired counts, with submissions per lane.

The model-cache hit rate is not accumulated here: the cache keeps its own
counters (:meth:`repro.api.model_cache.LRUModelCache.stats`) and the
gateway merges them into its snapshots.  The cluster router's
``analytics()`` builds its snapshot from the shards' durable journals
rather than from live traffic.

Wire compatibility is non-negotiable: existing call sites index a
snapshot like a dict (``stats["qps"]``, ``"shards" not in stats``) and
serialise it with ``json.dumps``.  ``MetricsSnapshot`` therefore
implements the full :class:`collections.abc.Mapping` protocol over
exactly the key set :meth:`~MetricsSnapshot.to_dict` produces.
"""

from __future__ import annotations

import json
import time
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional

from repro.analysis.lockcheck import checked_lock, guarded_by

__all__ = ["COUNTER_KEYS", "LATENCY_RESERVOIR", "MetricsSnapshot",
           "QPS_WINDOW_SECONDS", "ServingMetrics", "percentile", "rate"]

#: end-to-end latencies kept for the percentiles (the most recent ones)
LATENCY_RESERVOIR = 4096
#: sliding window, in seconds, of the QPS figure
QPS_WINDOW_SECONDS = 30.0
#: the recorder's cumulative counts.  They only ever grow, so the
#: Prometheus export (:func:`repro.obs.metrics.feed_snapshot`) renders
#: them as counters; every other number in a snapshot is a gauge.
COUNTER_KEYS = ("submitted", "completed", "failed", "rejected", "expired",
                "batches")


def rate(numerator: float, denominator: float) -> float:
    """A ratio that is 0.0 (not an exception, not NaN) on a cold counter.

    Every rate in a snapshot — fusion rate, fast-path hit rate, QPS-style
    per-denominator numbers — funnels through this so a snapshot taken
    before any traffic arrives is all zeros instead of a crash.
    """
    if not denominator:
        return 0.0
    return numerator / denominator


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation.

    Tiny and dependency-light on purpose — the reservoir is at most a few
    thousand floats, so sorting per snapshot is cheap.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


@dataclass
class MetricsSnapshot(Mapping):
    """One typed telemetry snapshot shared by gateway, streaming, cluster.

    Core fields mirror the historical ``Gateway.stats()`` dict keys;
    tier-specific structures (``shards`` rollups, model-cache counters,
    fast-path tables) are optional and appear in :meth:`to_dict` only when
    set — preserving ``"shards" not in snapshot`` semantics for sources
    that don't provide them.  Anything that doesn't generalise across
    tiers (per-stream tables, drift counters, analytics trends) rides in
    ``extras`` and is merged flat into the dict form, again matching the
    legacy wire keys.
    """

    source: str = "gateway"
    uptime_seconds: float = 0.0
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    expired: int = 0
    in_flight: int = 0
    qps: float = 0.0
    latency_p50_seconds: float = 0.0
    latency_p95_seconds: float = 0.0
    latency_p99_seconds: float = 0.0
    fusion_rate: float = 0.0
    fast_path_hit_rate: float = 0.0
    batches: int = 0
    mean_batch_size: float = 0.0
    queue_depth: int = 0
    submitted_by_lane: Optional[Dict[str, int]] = None
    queue_depth_by_lane: Optional[Dict[str, int]] = None
    model_cache: Optional[Dict[str, Any]] = None
    fast_path: Optional[Dict[str, Any]] = None
    shards: Optional[Dict[str, Any]] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    #: keys always present in the dict form, in legacy emission order.
    _CORE_KEYS = (
        "uptime_seconds", "submitted", "submitted_by_lane", "completed",
        "failed", "rejected", "expired", "in_flight", "qps",
        "latency_p50_seconds", "latency_p95_seconds", "latency_p99_seconds",
        "fusion_rate", "fast_path_hit_rate", "batches", "mean_batch_size",
        "queue_depth",
    )
    #: keys present only when their field is not None.
    _OPTIONAL_KEYS = ("queue_depth_by_lane", "model_cache", "fast_path",
                      "shards")

    # -- wire form ------------------------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        """The legacy dict, key-for-key.

        ``submitted_by_lane`` is a core gateway key (always emitted, as
        ``{}`` when unset) while the other structured fields stay
        optional — that is exactly the historical behaviour.
        """
        out: Dict[str, Any] = {}
        for key in self._CORE_KEYS:
            value = getattr(self, key)
            if key == "submitted_by_lane" and value is None:
                value = {}
            out[key] = value
        for key in self._OPTIONAL_KEYS:
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        out.update(self.extras)
        return out

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    # -- Mapping protocol (legacy dict ergonomics) ----------------------- #
    def __getitem__(self, key: str) -> Any:
        return self.to_dict()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self.to_dict())

    def __len__(self) -> int:
        return len(self.to_dict())

    def __contains__(self, key: object) -> bool:
        return key in self.to_dict()

    def keys(self):
        return self.to_dict().keys()

    def values(self):
        return self.to_dict().values()

    def items(self):
        return self.to_dict().items()

    def get(self, key: str, default: Any = None) -> Any:
        return self.to_dict().get(key, default)


@guarded_by("_lock", "submitted", "completed", "failed", "rejected",
            "expired", "fused_completed", "fast_path_completed", "batches",
            "batch_size_sum", "_latencies", "_completion_times")
class ServingMetrics:
    """Thread-safe counters + reservoirs behind a tier's ``stats()``.

    ``source`` names the tier in every snapshot (``"gateway"``,
    ``"streaming"``).
    """

    def __init__(self, source: str) -> None:
        self.source = source
        self._lock = checked_lock("ServingMetrics._lock")
        self._started_at = time.perf_counter()
        self.submitted: Dict[str, int] = {}
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.expired = 0
        self.fused_completed = 0
        self.fast_path_completed = 0
        self.batches = 0
        self.batch_size_sum = 0
        self._latencies: Deque[float] = deque(maxlen=LATENCY_RESERVOIR)
        #: completion stamps for the sliding-window QPS (bounded: stale
        #: stamps are pruned on record and on snapshot)
        self._completion_times: Deque[float] = deque()

    # -- recording ------------------------------------------------------- #
    def record_submit(self, lane: str) -> None:
        with self._lock:
            self.submitted[lane] = self.submitted.get(lane, 0) + 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_expired(self, count: int = 1) -> None:
        with self._lock:
            self.expired += count

    def record_failed(self, count: int = 1) -> None:
        with self._lock:
            self.failed += count

    def record_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batch_size_sum += size

    def record_completion(self, latency_seconds: float,
                          fused: bool = False,
                          fast_path: bool = False) -> None:
        now = time.perf_counter()
        with self._lock:
            self.completed += 1
            if fused:
                self.fused_completed += 1
            if fast_path:
                self.fast_path_completed += 1
            self._latencies.append(float(latency_seconds))
            self._completion_times.append(now)
            self._prune_locked(now)

    # -- reporting ------------------------------------------------------- #
    def snapshot(self, queue_depth: int = 0,
                 lane_depths: Optional[Dict[str, int]] = None,
                 model_cache: Optional[Dict[str, object]] = None,
                 fast_path: Optional[Dict[str, object]] = None,
                 shards: Optional[Dict[str, Dict[str, object]]] = None,
                 extras: Optional[Dict[str, object]] = None,
                 ) -> MetricsSnapshot:
        """Render the current serving picture as a :class:`MetricsSnapshot`.

        The tier passes what it alone knows: its queue depth, and for the
        gateway the lane depths, model-cache counters, per-model table
        provenance and (when it fronts a cluster router) per-shard
        rollups.  ``extras`` merge into the dict form after every other
        key.  Rates are zero — never NaN, never a ZeroDivisionError — on a
        cold recorder (:func:`rate`).

        The snapshot is **consistent**: every counter and reservoir is
        copied inside one short critical section, so a concurrent soak
        reader can never observe a torn pair (e.g. ``fused_completed``
        from after a completion but ``completed`` from before it, which
        would report a fusion rate above 1.0).  The derived numbers —
        three percentile sorts, rates — are computed *outside* the lock so
        telemetry polling never stalls the recording hot path.
        """
        now = time.perf_counter()
        with self._lock:
            self._prune_locked(now)
            submitted_by_lane = dict(self.submitted)
            completed = self.completed
            failed = self.failed
            rejected = self.rejected
            expired = self.expired
            fused_completed = self.fused_completed
            fast_path_completed = self.fast_path_completed
            batches = self.batches
            batch_size_sum = self.batch_size_sum
            latencies = list(self._latencies)
            window_completions = len(self._completion_times)
        uptime = max(now - self._started_at, 1e-9)
        window = min(QPS_WINDOW_SECONDS, uptime)
        submitted_total = sum(submitted_by_lane.values())
        return MetricsSnapshot(
            source=self.source,
            uptime_seconds=uptime,
            submitted=submitted_total,
            submitted_by_lane=submitted_by_lane,
            completed=completed,
            failed=failed,
            rejected=rejected,
            expired=expired,
            in_flight=max(
                submitted_total - completed - failed - expired, 0),
            qps=rate(window_completions, window),
            latency_p50_seconds=percentile(latencies, 50.0),
            latency_p95_seconds=percentile(latencies, 95.0),
            latency_p99_seconds=percentile(latencies, 99.0),
            fusion_rate=rate(fused_completed, completed),
            fast_path_hit_rate=rate(fast_path_completed, completed),
            batches=batches,
            mean_batch_size=rate(batch_size_sum, batches),
            queue_depth=queue_depth,
            queue_depth_by_lane=dict(lane_depths)
            if lane_depths is not None else None,
            model_cache=dict(model_cache)
            if model_cache is not None else None,
            fast_path=dict(fast_path) if fast_path is not None else None,
            shards=dict(shards) if shards is not None else None,
            # Extras merge after the legacy keys, so the historical wire
            # order of the snapshot dict is untouched.
            extras=dict(extras or {}),
        )

    # -- internals ------------------------------------------------------- #
    def _prune_locked(self, now: float) -> None:
        horizon = now - QPS_WINDOW_SECONDS
        while self._completion_times and self._completion_times[0] < horizon:
            self._completion_times.popleft()
