"""Concurrent serving gateway: queue → adaptive batcher → worker pool.

The traffic-facing layer of the reproduction.  :class:`Gateway` multiplexes
many concurrent producers onto the fused serving hot path of
:class:`~repro.api.ImputationService`:

* a **bounded request queue** with admission control (reject or block),
  per-request **deadlines**, and starvation-free **priority lanes**
  (:mod:`repro.gateway.queue`);
* an **adaptive micro-batcher** that fuses same-model, same-structure
  requests into shared forward calls — dispatching at ``max_batch_size``
  or after ``max_wait_ms``, whichever comes first;
* a **thread worker pool** fronting the model store's LRU cache
  (:class:`~repro.api.LRUModelCache`), so hot models never round-trip
  through disk;
* **telemetry** (:class:`repro.api.telemetry.ServingMetrics`, the
  recorder the streaming tier shares): QPS, queue depth, p50/p95/p99
  latency, fusion rate and cache hit rate via :meth:`Gateway.stats`.

Benchmarked end to end by ``benchmarks/test_gateway_throughput.py`` and
drivable from the command line with
``python -m repro.evaluation.cli gateway-bench``.
"""

from repro.gateway.gateway import Gateway, GatewayConfig
from repro.gateway.queue import (
    GatewayFuture,
    LANES,
    QueuedRequest,
    RequestQueue,
)

__all__ = [
    "Gateway",
    "GatewayConfig",
    "GatewayFuture",
    "LANES",
    "QueuedRequest",
    "RequestQueue",
]
