"""Cluster router: the service's ``submit()/gather()`` surface over shards.

:class:`ClusterRouter` starts N shard worker processes, places model ids
on a consistent-hash ring, and forwards traffic over the shard socket
protocol.  It is deliberately shaped like
:class:`~repro.api.service.ImputationService` — ``fit`` / ``impute`` /
``submit`` / ``gather`` / ``list_models`` and a ``store`` attribute — so
the serving :class:`~repro.gateway.Gateway` can front a whole cluster
unchanged (``Gateway(service=router)``).

Every ``serve`` RPC goes through one helper, whether it carries a
``gather`` sweep's queued requests or a gateway batch
(:class:`RemoteModel`) or a synchronous :meth:`ClusterRouter.impute`:
it encodes the requests, ships each traced request's ``cluster.rpc``
context on the wire (so the shard's spans nest under the RPC span) and
decodes the shard's results and failures, rebuilding each completed
tensor from the request it sent (a result carries only the values of the
cells its request left missing).  ``gather`` ends the way
:meth:`ImputationService.gather` does: results in submit order, or a
:class:`~repro.exceptions.ServiceError` carrying the partial results.

Failure handling is where the durability work pays off: when a shard
connection dies mid-call, the router restarts the shard over its durable
directory and **resends the same request ids**.  The shard's journal
replay plus the exactly-once result ledger make the resend safe — every
request is answered exactly once no matter where the kill landed
(:mod:`repro.cluster.store`).

Analytics (:meth:`ClusterRouter.analytics`) attach every shard's SQLite
journal and run the window-function queries over the union, so
p99-over-time, per-model QPS and fusion trends come straight from the
durable log rather than in-process counters.
"""

from __future__ import annotations

import dataclasses
import socket
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api.refs import ModelRef
from repro.api.requests import FitRequest, ImputeRequest, ImputeResult
from repro.api.service import (
    TensorLike,
    as_tensor,
    coerce_impute_request,
    ordered_results,
)
from repro.api.telemetry import MetricsSnapshot
from repro.api.versioning import VersionRegistry
from repro.cluster.ring import HashRing
from repro.cluster.shard import (
    ShardHandle,
    recv_message,
    send_message,
    start_shard,
)
from repro.cluster.store import DB_FILENAME, cluster_analytics
from repro.exceptions import ServiceError, ValidationError
from repro.obs import trace as obs_trace

__all__ = ["ClusterRouter", "RemoteModel", "ShardClient"]


class ShardClient:
    """One persistent length-prefixed connection to a shard."""

    def __init__(self, port: int, host: str = "127.0.0.1",
                 timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None

    def _connect(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
        return self._sock

    def call(self, payload: Dict) -> Dict:
        """One request/reply round trip; raises on transport failure."""
        sock = self._connect()
        send_message(sock, payload)
        reply = recv_message(sock)
        if reply is None:
            raise ConnectionError(
                f"shard at port {self.port} closed the connection")
        return reply

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None


class RemoteModel:
    """Gateway-facing proxy for a model living on a shard.

    Quacks just enough like a fitted imputer for
    ``execute_serving_batch``: :meth:`serve_requests` (one ``serve`` RPC
    for the whole batch — the router-side analogue of a fused forward
    call) and ``last_impute_info``, so fast-path flags flow into gateway
    telemetry.  Deliberately *not* a ``BaseImputer``: having
    ``serve_requests`` is what makes ``execute_serving_batch`` call it,
    with the whole gateway batch as one group, in place of
    ``impute_many``.
    """

    name = "remote"

    def __init__(self, router: "ClusterRouter", model_id: str) -> None:
        self._router = router
        self.model_id = model_id
        #: one entry per tensor of the most recent serve, mirroring
        #: DeepMVIImputer's telemetry contract
        self.last_impute_info: List[Dict[str, object]] = []

    def serve_requests(self, requests: Sequence[ImputeRequest]) -> List:
        """Serve full requests in one RPC; returns their completed tensors.

        The requests keep their trace contexts across the RPC boundary.
        The router mints their ids: gateway ids are per-gateway counters,
        not the globally-unique keys the exactly-once ledger needs.
        """
        results = self._router._serve_remote(
            [dataclasses.replace(request, model_id=self.model_id,
                                 request_id=None)
             for request in requests])
        self.last_impute_info = [
            {"fast_path": result.fast_path, "fused": result.fused}
            for result in results]
        return [result.completed for result in results]


class ClusterModelStore:
    """``ModelStore``-shaped façade over the cluster, for the gateway.

    ``get`` hands out :class:`RemoteModel` proxies; membership and
    listings ask the owning shard over the wire (memoised — model ids are
    immutable once fitted); cache and fast-path telemetry aggregate the
    per-shard stores.
    """

    def __init__(self, router: "ClusterRouter") -> None:
        self._router = router
        #: no artifact directory: the artifacts live in the shards' SQLite
        self.directory = None
        self._remote_models: Dict[str, RemoteModel] = {}
        self._known: set = set()

    def __contains__(self, model_id: str) -> bool:
        if model_id in self._known:
            return True
        try:
            owner = self._router.ring.assign(model_id)
            reply = self._router._call(owner, {"op": "has_model",
                                               "model_id": model_id})
        except (ServiceError, ConnectionError, OSError, LookupError):
            return False
        if reply.get("exists"):
            self._known.add(model_id)
            return True
        return False

    def get(self, model_id: str) -> RemoteModel:
        if model_id not in self:
            raise ServiceError(f"unknown model id {model_id!r}; known: "
                               + (", ".join(self._router.list_models())
                                  or "<none>"))
        proxy = self._remote_models.get(model_id)
        if proxy is None:
            proxy = self._remote_models[model_id] = RemoteModel(
                self._router, model_id)
        return proxy

    def method_for(self, model_id: str) -> Optional[str]:
        return self._router._methods.get(model_id)

    def list_models(self) -> List[str]:
        return self._router.list_models()

    def cache_stats(self) -> Dict[str, object]:
        """Cluster-wide LRU telemetry: per-shard counters summed."""
        totals = {"size": 0, "bytes": 0, "hits": 0, "misses": 0,
                  "evictions": 0}
        for stats in self._router.shard_stats().values():
            cache = stats.get("model_cache") or {}
            for key in totals:
                totals[key] += int(cache.get(key) or 0)
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = (totals["hits"] / lookups) if lookups else 0.0
        return totals

    def fast_path_stats(self) -> Dict[str, Dict[str, object]]:
        merged: Dict[str, Dict[str, object]] = {}
        for stats in self._router.shard_stats().values():
            merged.update(stats.get("fast_path") or {})
        return merged


class ClusterRouter:
    """Front door of the sharded serving tier.

    Parameters
    ----------
    directory:
        Root of the cluster's durable state; each shard owns
        ``directory/shard-<i>/`` (SQLite store + journal).  Restarting a
        router over an existing directory reattaches to the persisted
        models and journals.
    shards:
        Number of shard worker processes.
    replicas:
        Virtual nodes per shard on the consistent-hash ring.
    max_cached_models:
        Per-shard LRU bound; evicted models rehydrate from SQLite.
    auto_restart:
        Restart a dead shard (over its durable directory) and resend the
        in-flight requests when a call fails mid-flight.  The journal +
        result ledger make the resend exactly-once.
    """

    def __init__(self, directory: Union[str, Path], shards: int = 2,
                 replicas: int = 64,
                 max_cached_models: Optional[int] = None,
                 auto_restart: bool = True, start: bool = True,
                 deadline_ms: Optional[float] = None) -> None:
        if shards < 1:
            raise ValidationError(f"shards must be >= 1, got {shards}")
        self.directory = Path(directory)
        self.max_cached_models = max_cached_models
        self.auto_restart = auto_restart
        self.default_deadline_ms = deadline_ms
        self.shard_names = [f"shard-{index}" for index in range(shards)]
        self.ring = HashRing(self.shard_names, replicas=replicas)
        self.handles: Dict[str, ShardHandle] = {}
        self._clients: Dict[str, ShardClient] = {}
        #: model id -> registry method name (filled by fit/put_model)
        self._methods: Dict[str, str] = {}
        self._model_counter = 0
        self._request_counter = 0
        #: per-router id nonce: a restarted router must never mint an id a
        #: previous router already burned into a shard's ledger
        self._nonce = uuid.uuid4().hex[:8]
        #: queued ``(request, deadline_at)`` pairs; each request carries
        #: its router id and admission stamp
        self._pending: List[Tuple[ImputeRequest, Optional[float]]] = []
        self._pending_ids: set = set()
        #: request id -> traceback for the most recent gather()
        self.last_errors: Dict[str, str] = {}
        #: ledger hits among the most recent gather()'s results
        self.last_deduped = 0
        #: [{shard, seconds}] for every auto/explicit restart
        self.recoveries: List[Dict[str, object]] = []
        #: version lineages for models served through this router; the
        #: journal lives at the cluster root so a restarted router
        #: replays serving pointers and in-flight candidates
        self.versions = VersionRegistry(
            journal_path=self.directory / "model_versions.jsonl")
        self._store = ClusterModelStore(self)
        if start:
            for name in self.shard_names:
                self._start(name)

    # -- lifecycle ------------------------------------------------------- #
    def _shard_dir(self, name: str) -> Path:
        return self.directory / name

    def _start(self, name: str) -> ShardHandle:
        handle = start_shard(name, str(self._shard_dir(name)),
                             max_cached_models=self.max_cached_models)
        self.handles[name] = handle
        self._clients.pop(name, None)
        return handle

    def _client(self, name: str) -> ShardClient:
        client = self._clients.get(name)
        if client is None:
            handle = self.handles.get(name)
            if handle is None:
                raise ServiceError(f"shard {name!r} is not running")
            client = self._clients[name] = ShardClient(handle.port)
        return client

    def kill_shard(self, name: str) -> None:
        """SIGKILL a shard process (chaos injection; state survives)."""
        handle = self.handles.get(name)
        if handle is None:
            raise ServiceError(f"shard {name!r} is not running")
        handle.kill()
        client = self._clients.pop(name, None)
        if client is not None:
            client.close()

    def restart_shard(self, name: str) -> float:
        """Restart a shard over its durable directory; returns seconds.

        The elapsed time covers process start, SQLite open, journal
        ingest and replay of unanswered requests — the cluster bench's
        recovery-time metric.
        """
        started = time.perf_counter()
        old = self.handles.get(name)
        if old is not None and old.alive:
            old.kill()
        client = self._clients.pop(name, None)
        if client is not None:
            client.close()
        self._start(name)
        elapsed = time.perf_counter() - started
        self.recoveries.append({"shard": name, "seconds": elapsed})
        return elapsed

    def close(self) -> None:
        """Shut every shard down (politely, then firmly)."""
        for name, handle in list(self.handles.items()):
            try:
                self._call(name, {"op": "shutdown"}, retries=0)
            except (ServiceError, ConnectionError, OSError):
                pass
            client = self._clients.pop(name, None)
            if client is not None:
                client.close()
            handle.process.join(timeout=5.0)
            if handle.alive:
                handle.kill()
        self.handles.clear()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- transport ------------------------------------------------------- #
    def _call(self, name: str, payload: Dict, retries: int = 1) -> Dict:
        """One RPC to a shard, with restart-and-resend on a dead socket.

        The resend is what makes auto-restart safe to combine with
        at-least-once delivery: the shard's result ledger dedupes, so the
        caller observes exactly-once.
        """
        try:
            reply = self._client(name).call(payload)
        except (ConnectionError, OSError):
            client = self._clients.pop(name, None)
            if client is not None:
                client.close()
            if retries <= 0 or not self.auto_restart:
                raise
            self.restart_shard(name)
            return self._call(name, payload, retries=retries - 1)
        if not reply.get("ok"):
            raise ServiceError(
                f"shard {name!r} rejected {payload.get('op')!r}:\n"
                f"{reply.get('error')}")
        return reply

    # -- fitting / model placement --------------------------------------- #
    def fit(self, data: Union[TensorLike, FitRequest],
            method: Optional[str] = None, model_id: Optional[str] = None,
            **method_kwargs) -> str:
        """Fit on the shard the ring assigns; returns the model id."""
        if isinstance(data, FitRequest):
            request = data
            if method is not None or model_id is not None or method_kwargs:
                raise ValidationError(
                    "pass either a FitRequest or (data, method=..., "
                    "model_id=..., **kwargs), not both")
        else:
            request = FitRequest(data=as_tensor(data),
                                 method=method or "deepmvi",
                                 method_kwargs=dict(method_kwargs),
                                 model_id=model_id)
        request.validate()
        if request.model_id is None:
            # Ids are assigned router-side so the ring owner is known
            # before any shard is contacted.
            self._model_counter += 1
            request = FitRequest(data=request.data, method=request.method,
                                 method_kwargs=request.method_kwargs,
                                 model_id=f"{request.method}-"
                                          f"c{self._model_counter:04d}")
        owner = self.ring.assign(request.model_id)
        reply = self._call(owner, {"op": "fit",
                                   "request": request.to_dict()})
        self._methods[reply["model_id"]] = reply.get("method") \
            or request.method
        self._store._known.add(reply["model_id"])
        return reply["model_id"]

    def put_model(self, model_id: str, imputer,
                  method: Optional[str] = None) -> str:
        """Ship an already-fitted imputer to its owning shard."""
        import base64

        from repro.engine.artifacts import dump_imputer_bytes

        owner = self.ring.assign(model_id)
        blob = base64.b64encode(dump_imputer_bytes(imputer)).decode("ascii")
        self._call(owner, {"op": "put_model", "model_id": model_id,
                           "method": method, "blob": blob})
        if method is not None:
            self._methods[model_id] = method
        self._store._known.add(model_id)
        return model_id

    # -- serving --------------------------------------------------------- #
    @property
    def store(self) -> ClusterModelStore:
        return self._store

    def resolve_ref(self, ref) -> str:
        """Concrete model id a :class:`ModelRef` (or string) serves as."""
        return self.versions.resolve(ModelRef.parse(ref))

    def _resolve_request(self, request: ImputeRequest) -> ImputeRequest:
        """Pin a request to its concrete model id before it hits the wire.

        Refs are router-side state: shards only ever see concrete,
        pattern-legal model ids (``@`` never crosses the socket), and the
        ring placement keys on the resolved id.
        """
        concrete = self.versions.resolve(request.model_ref)
        if request.model_id != concrete:
            request = dataclasses.replace(request, model_id=concrete)
        return request

    def _next_request_id(self) -> str:
        self._request_counter += 1
        return f"req-{self._nonce}-{self._request_counter:06d}"

    def _deadline_at(self, now: float,
                     deadline_ms: Optional[float]) -> Optional[float]:
        deadline_ms = (self.default_deadline_ms
                       if deadline_ms is None else deadline_ms)
        return None if deadline_ms is None else now + deadline_ms / 1000.0

    def submit(self, request=None, model_id=None,
               deadline_ms: Optional[float] = None) -> str:
        """Queue one request for the next :meth:`gather`; returns its id."""
        request = self._resolve_request(
            coerce_impute_request(request, model_id))
        if request.model_id not in self._store:
            raise ServiceError(
                f"unknown model id {request.model_id!r}; fit() a model "
                "through this router first")
        request_id = str(request.request_id) \
            if request.request_id is not None else self._next_request_id()
        if request_id in self._pending_ids:
            raise ValidationError(
                f"request id {request_id!r} is already queued")
        now = time.perf_counter()
        # Tracing front door for direct router use (the gateway path stamps
        # upstream): mint a sampled root; the serve RPC parents the shard's
        # spans under it.
        ctx = request.trace
        if ctx is None and obs_trace.enabled():
            ctx = obs_trace.start_trace()
            if ctx is not None:
                obs_trace.write_span("cluster.submit", ctx, now,
                                     time.perf_counter(),
                                     {"request_id": request_id})
        self._pending.append((
            dataclasses.replace(request, request_id=request_id,
                                enqueued_at=now, trace=ctx),
            self._deadline_at(now, deadline_ms)))
        self._pending_ids.add(request_id)
        return request_id

    def gather(self, raise_on_error: bool = True) -> List[ImputeResult]:
        """Serve every queued request; results come back in submit order.

        Each shard receives one ``serve`` RPC carrying all of its queued
        requests (the shard micro-batches them per model).  A shard dying
        mid-call is restarted and the same entries are resent — the
        exactly-once ledger turns the resend into idempotent delivery.
        Failures and the raise follow :meth:`ImputationService.gather`.
        """
        if not self._pending:
            return []
        pending, self._pending = self._pending, []
        self._pending_ids = set()
        by_owner: Dict[str, List[Tuple[ImputeRequest, Optional[float]]]] = {}
        for queued in pending:
            by_owner.setdefault(self.ring.assign(queued[0].model_id),
                                []).append(queued)
        results: Dict[str, ImputeResult] = {}
        self.last_errors = {}
        self.last_deduped = 0
        for owner, queued in by_owner.items():
            try:
                served, errors, deduped = self._send_serve(owner, queued)
            except (ServiceError, ConnectionError, OSError) as error:
                served, deduped = {}, 0
                errors = {request.request_id: str(error)
                          for request, _ in queued}
            results.update(served)
            self.last_errors.update(errors)
            self.last_deduped += deduped
        return ordered_results([request.request_id for request, _ in pending],
                               results, self.last_errors, raise_on_error)

    def impute(self, request=None, model_id=None,
               deadline_ms: Optional[float] = None) -> ImputeResult:
        """Serve one request immediately (no queueing)."""
        request = self._resolve_request(
            coerce_impute_request(request, model_id))
        return self._serve_remote([request], deadline_ms=deadline_ms)[0]

    def _serve_remote(self, requests: Sequence[ImputeRequest],
                      deadline_ms: Optional[float] = None,
                      ) -> List[ImputeResult]:
        """Serve one model's ``requests`` now, in a single shard RPC.

        A request without an id gets a fresh router id.  Raises
        :class:`ServiceError` when any request fails on the shard.
        """
        now = time.perf_counter()
        deadline_at = self._deadline_at(now, deadline_ms)
        queued = [(dataclasses.replace(
                       request, enqueued_at=now,
                       request_id=self._next_request_id()
                       if request.request_id is None
                       else str(request.request_id)), deadline_at)
                  for request in requests]
        owner = self.ring.assign(queued[0][0].model_id)
        results, errors, self.last_deduped = self._send_serve(owner, queued)
        if errors:
            request_id, error = next(iter(errors.items()))
            raise ServiceError(
                f"{len(errors)} request(s) failed on shard {owner!r}; "
                f"first ({request_id!r}):\n{error}")
        return [results[request.request_id] for request, _ in queued]

    def _send_serve(self, owner: str,
                    queued: List[Tuple[ImputeRequest, Optional[float]]]
                    ) -> Tuple[Dict[str, ImputeResult], Dict[str, str], int]:
        """One ``serve`` RPC to ``owner``; its results, errors, ledger hits.

        ``queued`` holds ``(request, deadline_at)`` pairs whose requests
        carry their router id and admission stamp.  A traced request
        crosses the wire with a ``cluster.rpc`` child context, so its
        ``wire.encode`` span, the RPC span written here and every span the
        shard writes for it nest under the RPC.  Transport failures raise
        (after :meth:`_call`'s restart-and-resend).
        """
        start = time.perf_counter()
        entries = []
        rpc_ctxs = []
        for request, deadline_at in queued:
            encode_start = time.perf_counter()
            wire = request.to_dict()
            if request.trace is not None and obs_trace.enabled():
                rpc_ctx = request.trace.child()
                wire["trace"] = rpc_ctx.to_wire()
                obs_trace.write_span("wire.encode", rpc_ctx.child(),
                                     encode_start, time.perf_counter())
                rpc_ctxs.append(rpc_ctx)
            entries.append({"request": wire,
                            "enqueued_at": request.enqueued_at,
                            "deadline_at": deadline_at})
        reply = self._call(owner, {"op": "serve", "entries": entries})
        end = time.perf_counter()
        for rpc_ctx in rpc_ctxs:
            obs_trace.write_span("cluster.rpc", rpc_ctx, start, end,
                                 {"shard": owner,
                                  "batch_size": len(entries)})
        # results carry only their filled cells: rebuild each from the
        # request's own data
        data = {request.request_id: request.data for request, _ in queued}
        results = {request_id: ImputeResult.from_dict(wire,
                                                      data.get(request_id))
                   for request_id, wire in reply["results"].items()}
        errors = {failure["request_id"]: failure["error"]
                  for failure in reply["failures"]}
        return results, errors, int(reply.get("deduped", 0))

    # -- introspection ---------------------------------------------------- #
    def pending_count(self) -> int:
        return len(self._pending)

    def list_models(self) -> List[str]:
        models: set = set()
        for name in self.shard_names:
            try:
                reply = self._call(name, {"op": "list_models"}, retries=0)
            except (ServiceError, ConnectionError, OSError):
                continue
            models.update(reply.get("models", ()))
        return sorted(models)

    def shard_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-shard rollups (dead shards report ``alive: False``)."""
        stats: Dict[str, Dict[str, object]] = {}
        for name in self.shard_names:
            try:
                reply = self._call(name, {"op": "stats"}, retries=0)
            except (ServiceError, ConnectionError, OSError) as error:
                stats[name] = {"alive": False, "error": str(error)}
                continue
            reply.pop("ok", None)
            stats[name] = reply
        return stats

    def stats(self) -> Dict[str, object]:
        return {
            "ring": self.ring.describe(),
            "shards": self.shard_stats(),
            "recoveries": list(self.recoveries),
            "pending_requests": len(self._pending),
            "models": self.list_models(),
        }

    def describe(self) -> Dict[str, object]:
        return {
            **self.stats(),
            "directory": str(self.directory),
            "shards": list(self.shard_names),
            "shard_stats": self.shard_stats(),
            "default_deadline_ms": self.default_deadline_ms,
            "auto_restart": self.auto_restart,
        }

    def analytics(self, bucket_seconds: float = 1.0) -> MetricsSnapshot:
        """SQL window-function analytics over every shard's journal.

        Reads the shards' SQLite files directly (they may be mid-restart
        or even dead — the durable log still answers), unioning the
        journals with ``ATTACH`` so one query set covers the cluster:
        p99-over-time, per-model QPS, fusion-rate trend.

        Returns the shared :class:`~repro.api.telemetry.MetricsSnapshot`
        surface: the journal-wide rollup (completions, QPS over the
        journal's wall-clock span, p50/p95/p99, fusion and fast-path
        rates) fills the typed fields, while the historical analytics
        keys (``p99_over_time``, ``per_model_qps``, ``fusion_trend``,
        ``bucket_seconds``, ``shards``, ``overall``) remain addressable
        through the snapshot's Mapping interface.
        """
        paths = [(name, str(self._shard_dir(name) / DB_FILENAME))
                 for name in self.shard_names
                 if (self._shard_dir(name) / DB_FILENAME).exists()]
        report = cluster_analytics(paths, bucket_seconds=bucket_seconds)
        overall = report["overall"]
        return MetricsSnapshot(
            source="cluster",
            uptime_seconds=overall["duration_seconds"],
            submitted=overall["completions"],
            completed=overall["completions"],
            qps=overall["qps"],
            latency_p50_seconds=overall["latency_p50_seconds"],
            latency_p95_seconds=overall["latency_p95_seconds"],
            latency_p99_seconds=overall["latency_p99_seconds"],
            fusion_rate=overall["fusion_rate"],
            fast_path_hit_rate=overall["fast_path_hit_rate"],
            extras={key: report[key]
                    for key in ("bucket_seconds", "overall", "p99_over_time",
                                "per_model_qps", "fusion_trend", "shards")
                    if key in report},
        )
