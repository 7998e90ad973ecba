"""The concurrent serving gateway.

:class:`Gateway` turns the fit-once/serve-many
:class:`~repro.api.ImputationService` into a traffic-facing system: many
producer threads :meth:`submit` impute requests concurrently, and a small
pool of worker threads serves them through the fused
``execute_serving_batch`` hot path as fast as the hardware allows.

The pipeline::

    producers ──▶ RequestQueue ──▶ adaptive batcher ──▶ worker pool
                  (bounded,         (max_batch_size /    (LRU model cache,
                   2 lanes,          max_wait_ms)         fused impute_many)
                   deadlines)

Why a gateway beats calling ``service.impute()`` from every producer:

* requests against the same model and tensor structure are **micro-batched**
  into one fused forward call (``impute_many``), so a burst of N
  window-shaped requests costs a handful of network calls instead of N;
* the **bounded queue** sheds or back-pressures load instead of melting
  down, and **deadlines** stop the gateway from burning compute on
  requests nobody is waiting for anymore;
* **priority lanes** let interactive traffic overtake bulk backfills
  without starving them;
* hot models are pinned by an **LRU cache** over the model store, so
  serving never round-trips through disk artifacts in steady state;
* every request is accounted for in :meth:`stats` — QPS, queue depth,
  latency percentiles, fusion rate, cache hit rate.

Typical use::

    from repro.api import ImputationService
    from repro.gateway import Gateway, GatewayConfig

    service = ImputationService(store_dir="models/")
    model_id = service.fit(history, method="deepmvi")

    with Gateway(service, GatewayConfig(max_batch_size=16,
                                        max_wait_ms=5.0)) as gw:
        futures = [gw.submit(window, model_id=model_id)
                   for window in windows]
        completed = [f.result() for f in futures]
        print(gw.stats()["qps"], gw.stats()["fusion_rate"])
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.lockcheck import checked_lock
from repro.api.requests import ImputeRequest, ImputeResult
from repro.api.telemetry import MetricsSnapshot, ServingMetrics
from repro.api.service import (
    ImputationService,
    ServingBatch,
    coerce_impute_request,
    execute_serving_batch,
)
from repro.exceptions import (
    DeadlineExceededError,
    QueueFullError,
    ServiceError,
    ValidationError,
)
from repro.obs import trace as obs_trace
from repro.gateway.queue import (
    GatewayFuture,
    LANES,
    QueuedRequest,
    RequestQueue,
)

__all__ = ["Gateway", "GatewayConfig"]


@dataclass
class GatewayConfig:
    """Tuning knobs of the serving gateway.

    The two that matter most, and their trade-off:

    ``max_batch_size``
        Upper bound on requests fused into one forward call.  Bigger
        batches amortise per-call overhead (higher throughput) but add
        queueing delay for the requests that fill them.
    ``max_wait_ms``
        How long an open batch waits for more same-group requests before
        dispatching anyway.  The latency price of batching: under light
        traffic every request pays up to this wait, under heavy traffic
        batches fill to ``max_batch_size`` long before it elapses.

    The fast path has no knob: every batch is served by one fused pass
    under the model lock, and inside it each cell that hits the model's
    precomputed lookup tables (:mod:`repro.core.fast_path`) is read from
    them instead of running the forward.
    """

    #: total queued requests admitted across both lanes
    max_queue_depth: int = 256
    #: ``"reject"`` fails fast with :class:`QueueFullError` when full;
    #: ``"block"`` applies backpressure to producers
    admission: str = "reject"
    #: requests fused into one serving batch at most
    max_batch_size: int = 16
    #: how long an open batch waits for stragglers (milliseconds)
    max_wait_ms: float = 2.0
    #: serving worker threads.  Batching, not thread count, is the main
    #: throughput lever (the workers share the interpreter); extra workers
    #: mostly help when several models serve at once.
    workers: int = 1
    #: deadline applied to requests that do not bring their own
    #: (milliseconds; ``None`` means requests never expire)
    default_deadline_ms: Optional[float] = None
    #: starvation bound: the batch lane gets a turn at least once per
    #: ``interactive_burst + 1`` dispatches
    interactive_burst: int = 4
    #: bound on the in-memory LRU model cache created when the gateway
    #: builds its own service (requires ``store_dir``); ignored when an
    #: existing service is passed in
    max_cached_models: Optional[int] = None
    #: head-sampling rate for request tracing (:mod:`repro.obs`): the
    #: fraction of submitted requests that carry a
    #: :class:`~repro.obs.TraceContext` when ``REPRO_TRACE=1``.  Sampling
    #: is decided once at the front door and the verdict travels with the
    #: request, so a trace is always complete or absent — never partial.
    #: Irrelevant (zero-cost) while tracing is disabled.
    trace_sample_rate: float = 1.0

    def validate(self) -> "GatewayConfig":
        if self.max_batch_size < 1:
            raise ValidationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait_ms < 0:
            raise ValidationError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.workers < 1:
            raise ValidationError(
                f"workers must be >= 1, got {self.workers}")
        if self.default_deadline_ms is not None \
                and self.default_deadline_ms <= 0:
            raise ValidationError(
                f"default_deadline_ms must be > 0 or None, "
                f"got {self.default_deadline_ms}")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValidationError(
                f"trace_sample_rate must be in [0, 1], "
                f"got {self.trace_sample_rate}")
        # max_queue_depth / admission / interactive_burst are validated by
        # RequestQueue, which owns those semantics.
        return self


class Gateway:
    """Concurrent serving front end over an :class:`ImputationService`.

    Parameters
    ----------
    service:
        The service whose fitted models this gateway serves.  Built fresh
        (``store_dir`` + ``config.max_cached_models``) when omitted.
    config:
        A :class:`GatewayConfig`; keyword overrides may be passed instead
        (``Gateway(service, max_batch_size=32)``).
    store_dir:
        Model-store directory for the self-built service.
    start:
        Start the worker pool immediately (default).  ``start=False``
        admits requests without serving them until :meth:`start` — useful
        for tests and for staging load before opening the tap.
    """

    def __init__(self, service: Optional[ImputationService] = None,
                 config: Optional[GatewayConfig] = None,
                 store_dir: Optional[str] = None, start: bool = True,
                 **config_overrides) -> None:
        if config is not None and config_overrides:
            raise ValidationError(
                "pass either a GatewayConfig or keyword overrides, not both")
        self.config = (config or GatewayConfig(**config_overrides)).validate()
        self.service = service or ImputationService(
            store_dir=store_dir,
            max_cached_models=self.config.max_cached_models)
        self.metrics = ServingMetrics("gateway")
        self._queue = RequestQueue(
            max_depth=self.config.max_queue_depth,
            admission=self.config.admission,
            interactive_burst=self.config.interactive_burst,
            on_expired=lambda entry: self.metrics.record_expired())
        self._id_counter = itertools.count(1)
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._state_lock = checked_lock("Gateway._state_lock")
        self._inflight = 0
        self._model_locks: Dict[str, threading.Lock] = {}
        self._started = False
        if start:
            self.start()

    # -- lifecycle ------------------------------------------------------- #
    def start(self) -> "Gateway":
        """Launch the worker pool (idempotent)."""
        with self._state_lock:
            if self._started:
                return self
            if self._queue.closed:
                raise ServiceError("gateway is closed; build a new one")
            self._stop.clear()
            self._threads = [
                threading.Thread(target=self._worker_loop,
                                 name=f"gateway-worker-{index}", daemon=True)
                for index in range(self.config.workers)]
            for thread in self._threads:
                thread.start()
            self._started = True
        return self

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut the gateway down.

        ``drain=True`` (default) stops admissions, serves everything
        already queued (up to ``timeout`` seconds), then joins the
        workers.  ``drain=False`` abandons the queue: every unserved
        request's future fails with :class:`ServiceError`.  Idempotent.
        """
        self._queue.close()
        if drain and self._started:
            deadline = time.monotonic() + timeout
            stable = 0
            while time.monotonic() < deadline:
                if self._queue.depth() or self._queue.assembling() \
                        or self._inflight_count():
                    stable = 0
                    time.sleep(0.005)
                    continue
                # Require two consecutive idle observations: an entry can
                # momentarily be in none of the three counters while it
                # hops from batch assembly to the worker's in-flight set.
                stable += 1
                if stable >= 2:
                    break
                time.sleep(0.005)
        self._stop.set()
        self._queue.wake_all()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []
        self._started = False
        abandoned = [entry for entry in self._queue.drain()
                     if not entry.future.done()]
        if abandoned:
            # _fail_all keeps the telemetry honest: these requests failed,
            # they are not forever "in flight".
            self._fail_all(abandoned, ServiceError(
                "gateway closed before the request was served"))

    def __enter__(self) -> "Gateway":
        # Deliberately does not force-start: ``Gateway(..., start=False)``
        # may be used as a context manager to stage load before opening
        # the tap with an explicit start().
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- producers ------------------------------------------------------- #
    def submit(self, request=None, model_id=None,
               priority: str = "interactive",
               deadline_ms: Optional[float] = None,
               timeout: Optional[float] = None) -> GatewayFuture:
        """Admit one request; returns the future its result arrives on.

        Accepts the same shapes as :meth:`ImputationService.impute`: an
        :class:`~repro.api.requests.ImputeRequest`, or a tensor/array plus
        ``model_id=...`` (a :class:`~repro.api.refs.ModelRef` or a legacy
        string).  ``priority`` picks the lane (``"interactive"``
        or ``"batch"``); ``deadline_ms`` bounds how long the request may
        wait in the queue (falling back to the config default); under the
        ``"block"`` admission policy ``timeout`` bounds how long this call
        may wait for queue space.

        Raises :class:`~repro.exceptions.QueueFullError` when admission is
        denied and :class:`~repro.exceptions.ServiceError` for unknown
        models — both *here*, at the front door, never later on the future.
        """
        if priority not in LANES:
            raise ValidationError(
                f"unknown priority {priority!r}; lanes: " + ", ".join(LANES))
        request = coerce_impute_request(request, model_id)
        # Resolve a ModelRef (or "m@2" string) to its concrete store id at
        # the front door: batching groups and model locks key on concrete
        # ids, and ``@latest`` must pin to whatever the lineage serves
        # *now*, not at some later dispatch time.
        resolver = getattr(self.service, "resolve_ref", None)
        if callable(resolver):
            concrete = resolver(request.model_ref)
            if request.model_id != concrete:
                request = dataclasses.replace(request, model_id=concrete)
        if request.model_id not in self.service.store:
            raise ServiceError(
                f"unknown model id {request.model_id!r}; fit() it on the "
                "gateway's service first")
        caller_id = (str(request.request_id)
                     if request.request_id is not None else None)
        internal_id = f"g-{next(self._id_counter):08d}"
        now = time.perf_counter()
        # Tracing front door: requests that already carry a context (an
        # upstream tier stamped one) keep it; otherwise mint a sampled root.
        # Disabled tracing costs exactly this one enabled() check.
        ctx = request.trace
        if ctx is None and obs_trace.enabled():
            ctx = obs_trace.start_trace(self.config.trace_sample_rate)
        request = dataclasses.replace(request, request_id=internal_id,
                                      enqueued_at=now, trace=ctx)
        deadline_ms = (self.config.default_deadline_ms
                       if deadline_ms is None else deadline_ms)
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValidationError(
                f"deadline_ms must be > 0 or None, got {deadline_ms}")
        entry = QueuedRequest(
            request=request,
            future=GatewayFuture(caller_id or internal_id, priority),
            lane=priority,
            deadline=None if deadline_ms is None
            else now + deadline_ms / 1000.0,
            group=self._group_key(request),
            caller_id=caller_id,
            admitted_at=now,
        )
        if ctx is not None:
            # The trace root: everything downstream parents onto this span.
            # Buffered on the entry (before put() hands it to a worker)
            # and flushed with the batch's spans, so admission itself
            # never blocks on span IO.
            entry.root_span = obs_trace.span_record(
                "gateway.submit", ctx, now, time.perf_counter(),
                {"lane": priority, "request_id": caller_id or internal_id,
                 "model_id": str(request.model_id)})
        try:
            self._queue.put(entry, timeout=timeout)
        except QueueFullError:
            self.metrics.record_rejected()
            raise
        self.metrics.record_submit(priority)
        return entry.future

    def submit_many(self, requests: Sequence, model_id: Optional[str] = None,
                    priority: str = "interactive",
                    deadline_ms: Optional[float] = None,
                    timeout: Optional[float] = None) -> List[GatewayFuture]:
        """Admit several requests; futures come back in submit order."""
        return [self.submit(request, model_id=model_id, priority=priority,
                            deadline_ms=deadline_ms, timeout=timeout)
                for request in requests]

    def impute(self, request=None, model_id: Optional[str] = None,
               priority: str = "interactive",
               deadline_ms: Optional[float] = None,
               timeout: Optional[float] = None) -> ImputeResult:
        """Synchronous convenience: :meth:`submit` + wait for the result.

        ``timeout`` bounds the whole call: the wait for queue space under
        the ``"block"`` admission policy and then the wait for the result
        share it.
        """
        started = time.monotonic()
        future = self.submit(request, model_id=model_id, priority=priority,
                             deadline_ms=deadline_ms, timeout=timeout)
        if timeout is not None:
            timeout = max(timeout - (time.monotonic() - started), 0.0)
        return future.result(timeout)

    # -- introspection --------------------------------------------------- #
    @property
    def running(self) -> bool:
        """Whether the worker pool is serving (futures can resolve)."""
        return self._started

    def stats(self) -> MetricsSnapshot:
        """Serving telemetry snapshot, rendered by :attr:`metrics`.

        Returns a typed :class:`~repro.api.telemetry.MetricsSnapshot` that
        still behaves exactly like the historical dict (same keys, full
        Mapping protocol).  Includes ``fast_path_hit_rate`` (fraction of
        completions served entirely from lookup tables) and per-model
        ``fast_path`` table provenance: build seconds and size.  When the
        wrapped service is a cluster router (anything exposing
        ``shard_stats()``), the snapshot also carries per-shard rollups
        under ``"shards"``.
        """
        shard_probe = getattr(self.service, "shard_stats", None)
        return self.metrics.snapshot(
            queue_depth=self._queue.depth(),
            lane_depths=self._queue.lane_depths(),
            model_cache=self.service.store.cache_stats(),
            fast_path=self.service.store.fast_path_stats(),
            shards=shard_probe() if callable(shard_probe) else None)

    def describe(self) -> Dict[str, object]:
        """Config + live stats + wrapped-service snapshot, for logs."""
        return {
            "config": dataclasses.asdict(self.config),
            "running": self.running,
            "stats": self.stats(),
            "service": self.service.describe(),
        }

    # -- internals ------------------------------------------------------- #
    def _group_key(self, request: ImputeRequest):
        """Fusion group: same model + same tensor structure may batch.

        ``None`` data (impute-the-fitted-tensor) is its own group per
        model.  Grouping by value shape is deliberately conservative —
        same-shaped tensors always share a batch structure, so a fused
        ``impute_many`` serves the whole batch in shared forward calls.
        """
        if request.data is None:
            return (request.model_id, None)
        return (request.model_id, tuple(request.data.values.shape))

    def _inflight_count(self) -> int:
        with self._state_lock:
            return self._inflight

    def _model_lock(self, model_id: str) -> threading.Lock:
        # All per-model locks share one lockcheck node ("Gateway._model_lock")
        # on purpose: the ordering invariant is role-based — a worker may
        # hold at most one model lock, acquired after releasing the state
        # lock — and any two-model chain is an inversion worth failing on.
        with self._state_lock:
            lock = self._model_locks.get(model_id)
            if lock is None:
                lock = self._model_locks[model_id] = \
                    checked_lock("Gateway._model_lock")
            return lock

    def _worker_loop(self) -> None:
        max_wait = self.config.max_wait_ms / 1000.0
        while True:
            batch = self._queue.next_batch(self.config.max_batch_size,
                                           max_wait, timeout=0.05)
            if not batch:
                if self._stop.is_set():
                    return
                continue
            with self._state_lock:
                self._inflight += len(batch)
            try:
                self._serve_batch(batch)
            except Exception:
                # A bug in the serving path must not strand the batch's
                # futures (callers would block forever) or kill the worker.
                import traceback

                self._fail_all(
                    [entry for entry in batch if not entry.future.done()],
                    ServiceError("gateway worker failed serving the "
                                 f"batch:\n{traceback.format_exc()}"))
            finally:
                with self._state_lock:
                    self._inflight -= len(batch)

    def _serve_batch(self, entries: List[QueuedRequest]) -> None:
        # Deadlines are re-checked at the compute boundary: a request can
        # expire *during* batch assembly (it waited out max_wait_ms), and
        # serving it anyway would burn compute nobody is waiting for.
        live: List[QueuedRequest] = []
        for entry in entries:
            if entry.expired():
                waited = time.perf_counter() - entry.admitted_at
                entry.fail(DeadlineExceededError(
                    f"request {entry.future.request_id!r} expired after "
                    f"{waited * 1e3:.1f} ms, before compute started"))
                self.metrics.record_expired()
                if entry.root_span is not None:
                    # the trace still shows the request entered and died
                    obs_trace.write_records([entry.root_span])
            else:
                live.append(entry)
        if not live:
            return
        self.metrics.record_batch(len(live))
        model_id = live[0].request.model_id
        # Tracing: close each traced request's queue-wait span and re-stamp
        # it with a per-batch child context, so the serving spans written
        # downstream (fused forward, shard RPC) parent onto the batch rather
        # than onto the root.
        dispatched = time.perf_counter()
        traced: List[QueuedRequest] = []
        batch_spans: List[dict] = []
        if obs_trace.enabled():
            for entry in live:
                ctx = entry.request.trace
                if ctx is None:
                    continue
                if entry.root_span is not None:
                    batch_spans.append(entry.root_span)
                    entry.root_span = None
                batch_spans.append(obs_trace.span_record(
                    "gateway.queue", ctx.child(), entry.admitted_at,
                    dispatched, {"lane": entry.lane}))
                entry.request = dataclasses.replace(entry.request,
                                                    trace=ctx.child())
                traced.append(entry)
        # One batch per model at a time: the fitted imputers (live network
        # objects) are not guaranteed re-entrant, and on one interpreter
        # the throughput lever is fusion, not intra-model thread overlap.
        # Distinct models still serve concurrently across workers.
        try:
            with self._model_lock(model_id):
                try:
                    imputer = self.service.store.get(model_id)
                except Exception as error:
                    self._fail_all(live, ServiceError(
                        f"model {model_id!r} could not be obtained: {error}"))
                    return
                serving = ServingBatch(
                    model_id=model_id,
                    method=self.service.store.method_for(model_id),
                    requests=[entry.request for entry in live],
                    imputer=imputer)
                job = execute_serving_batch(serving)
        finally:
            self._close_batch_spans(traced, batch_spans, dispatched,
                                    len(live))
        results = {result.request_id: result
                   for result in job.result["results"]}
        errors = {failure["request_id"]: failure["error"]
                  for failure in job.result["failures"]}
        for entry in live:
            internal_id = str(entry.request.request_id)
            result = results.get(internal_id)
            if result is not None:
                if entry.caller_id is not None:
                    result = dataclasses.replace(result,
                                                 request_id=entry.caller_id)
                entry.complete(result)
                self.metrics.record_completion(result.latency_seconds,
                                               fused=result.fused,
                                               fast_path=result.fast_path)
            else:
                entry.fail(ServiceError(
                    errors.get(internal_id,
                               f"request {internal_id!r} produced no "
                               "result")))
                self.metrics.record_failed()

    def _close_batch_spans(self, traced: List[QueuedRequest],
                           batch_spans: List[dict], dispatched: float,
                           batch_size: int) -> None:
        """Flush the batch's buffered spans plus a ``gateway.batch`` each.

        The batch span's context is the one re-stamped on the request at
        dispatch, so the serving spans written while the batch ran are its
        children.  All of the batch's spans — the queue spans buffered at
        dispatch and the batch spans closed here — land in one write.
        """
        end = time.perf_counter()
        for entry in traced:
            ctx = entry.request.trace
            if ctx is not None:
                batch_spans.append(obs_trace.span_record(
                    "gateway.batch", ctx, dispatched, end,
                    {"batch_size": batch_size, "lane": entry.lane}))
        obs_trace.write_records(batch_spans)

    def _fail_all(self, entries: List[QueuedRequest],
                  error: ServiceError) -> None:
        for entry in entries:
            entry.fail(error)
        self.metrics.record_failed(len(entries))
