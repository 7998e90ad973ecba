"""The imputation service: fit once, serve many impute requests.

The paper's DeepMVI workflow is *train once on a dataset, then impute many
missing-value patterns*.  :class:`ImputationService` packages that workflow
behind a serving-oriented API on top of the experiment engine:

* :meth:`~ImputationService.fit` trains a method and parks the fitted
  imputer in a :class:`ModelStore` (in memory, and on disk via
  :mod:`repro.engine.artifacts` when a store directory is given), returning
  a ``model_id``;
* :meth:`~ImputationService.impute` completes one tensor with a stored
  model — no retraining;
* :meth:`~ImputationService.submit` / :meth:`~ImputationService.gather`
  queue many requests and run them **micro-batched**: requests against the
  same model are grouped into one serving batch that fetches the model
  once, and the batches run in process, one
  :func:`execute_serving_batch` call each.  Multi-process serving is
  :mod:`repro.cluster`'s job.

The one-liner for scripts and notebooks::

    from repro import api

    completed = api.impute(incomplete_tensor, method="deepmvi")
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.api.model_cache import LRUModelCache
from repro.api.refs import ModelRef
from repro.api.requests import (
    FitRequest,
    ImputeRequest,
    ImputeResult,
    check_model_id,
)
from repro.api.versioning import VersionRegistry
from repro.baselines.base import BaseImputer
from repro.baselines.registry import ImputerRegistry, get_registry
from repro.data.dimensions import Dimension
from repro.data.tensor import TimeSeriesTensor
from repro.engine.artifacts import MANIFEST_FILENAME, load_imputer, save_imputer
from repro.engine.jobs import JobResult
from repro.exceptions import ServiceError, ValidationError
from repro.obs import trace as obs_trace

__all__ = ["DirectoryBackend", "ImputationService", "LRUModelCache",
           "ModelStore", "as_tensor", "coerce_impute_request", "impute",
           "make_imputer"]

TensorLike = Union[TimeSeriesTensor, np.ndarray, Sequence]


def as_tensor(data: TensorLike, name: str = "dataset") -> TimeSeriesTensor:
    """Coerce raw arrays to a :class:`TimeSeriesTensor`.

    Non-finite entries of a raw array are treated as the missing cells.
    1-D input is a single series; every leading axis of higher-dimensional
    input becomes an anonymous categorical dimension.
    """
    if isinstance(data, TimeSeriesTensor):
        return data
    values = np.asarray(data, dtype=np.float64)
    if values.ndim == 0:
        raise ValidationError("cannot impute a scalar")
    dimensions = [Dimension.categorical(f"dim{axis}", size)
                  for axis, size in enumerate(values.shape[:-1])]
    return TimeSeriesTensor(values=values, dimensions=dimensions, name=name)


def make_imputer(method: str, **method_kwargs) -> BaseImputer:
    """Instantiate a registered method by name (fresh, unfitted)."""
    return get_registry().create(method, **method_kwargs)


def coerce_impute_request(request, model_id=None) -> ImputeRequest:
    """Normalise the (request | tensor, model_id) calling convention.

    Shared by :class:`ImputationService`, the serving gateway and the
    cluster router so every front door accepts the same shapes: a
    validated :class:`~repro.api.requests.ImputeRequest`, or a raw
    tensor/array plus ``model_id=...`` (``None`` data means "the tensor
    the model was fitted on").

    ``model_id`` — wherever it appears — may be a
    :class:`~repro.api.refs.ModelRef` or a string, read by
    :meth:`ModelRef.parse` (a bare id means ``@latest``).
    """
    if isinstance(request, ImputeRequest):
        if model_id is not None and \
                ModelRef.parse(model_id) != request.model_ref:
            raise ValidationError(
                f"conflicting model ids: the ImputeRequest names "
                f"{request.model_id!r} but model_id={model_id!r} was "
                "also passed")
        return request.validate()
    if model_id is None:
        raise ValidationError(
            "pass an ImputeRequest, or a tensor together with model_id=...")
    data = as_tensor(request) if request is not None else None
    return ImputeRequest(model_id=ModelRef.parse(model_id),
                         data=data).validate()


# ---------------------------------------------------------------------- #
# fitted-model store
# ---------------------------------------------------------------------- #
class DirectoryBackend:
    """Persistence backend writing engine artifacts under a directory.

    One artifact directory per model (``directory/<model_id>/``, written by
    :func:`repro.engine.artifacts.save_imputer`) plus a small sidecar
    recording serving metadata.  This is the historical ``ModelStore``
    disk behaviour, extracted so other backends (e.g. the cluster tier's
    SQLite :class:`~repro.cluster.store.SQLiteBackend`) can slot in behind
    the same LRU cache.

    Any object with this surface is a valid ``ModelStore`` backend:
    ``save/load/exists/delete/list_ids/method_for/location``.
    """

    #: sidecar file recording serving metadata next to the artifact
    META_FILENAME = "service.json"

    def __init__(self, directory) -> None:
        from pathlib import Path

        self.directory = Path(directory)

    # repro-lint: allow[model-ref]
    def location(self, model_id: str) -> Optional[str]:
        """Filesystem artifact path (``None`` for path-less backends)."""
        return str(self.directory / model_id)

    # repro-lint: allow[model-ref]
    def save(self, model_id: str, imputer: BaseImputer,
             method: Optional[str] = None) -> None:
        target = self.directory / model_id
        save_imputer(imputer, target)
        if method is not None:
            import json

            (target / self.META_FILENAME).write_text(
                json.dumps({"method": method}), encoding="utf-8")

    # repro-lint: allow[model-ref]
    def load(self, model_id: str) -> Optional[BaseImputer]:
        artifact = self.directory / model_id
        if (artifact / MANIFEST_FILENAME).exists():
            return load_imputer(artifact)
        return None

    # repro-lint: allow[model-ref]
    def exists(self, model_id: str) -> bool:
        return (self.directory / model_id / MANIFEST_FILENAME).exists()

    # repro-lint: allow[model-ref]
    def delete(self, model_id: str) -> None:
        target = self.directory / model_id
        if (target / MANIFEST_FILENAME).exists():
            import shutil

            shutil.rmtree(target)

    def list_ids(self) -> List[str]:
        if not self.directory.exists():
            return []
        return sorted(entry.name for entry in self.directory.iterdir()
                      if (entry / MANIFEST_FILENAME).exists())

    # repro-lint: allow[model-ref]
    def method_for(self, model_id: str) -> Optional[str]:
        meta = self.directory / model_id / self.META_FILENAME
        if meta.exists():
            import json

            return json.loads(meta.read_text(encoding="utf-8")).get("method")
        return None


class ModelStore:
    """Fitted imputers by ``model_id``, in memory and optionally persisted.

    With a ``directory``, every stored model is also persisted as an
    engine artifact (:func:`repro.engine.artifacts.save_imputer`) under
    ``directory/<model_id>/``, so models survive restarts.  Persistence
    is pluggable: pass ``backend=`` instead of ``directory`` to park models
    somewhere else (the cluster tier stores them as blobs in SQLite via
    :class:`~repro.cluster.store.SQLiteBackend`); ``directory`` is sugar
    for ``backend=DirectoryBackend(directory)``.

    The in-memory layer is an :class:`~repro.api.model_cache.LRUModelCache`.
    ``max_cached_models`` bounds it: hot models serve from memory, cold ones
    reload from the backend on demand, and the least-recently-used model is
    evicted so long-running services (and the serving gateway) keep a fixed
    memory footprint no matter how many models the store has accumulated.
    A bound requires a persistence backend — evicting a memory-only model
    would lose it outright.
    """

    #: sidecar file recording serving metadata next to the artifact
    META_FILENAME = DirectoryBackend.META_FILENAME

    def __init__(self, directory: Optional[str] = None,
                 max_cached_models: Optional[int] = None,
                 max_cached_bytes: Optional[int] = None,
                 backend=None) -> None:
        if directory is not None and backend is not None:
            raise ValidationError(
                "pass either directory= or backend=, not both")
        if directory is not None:
            backend = DirectoryBackend(directory)
        if (max_cached_models is not None or max_cached_bytes is not None) \
                and backend is None:
            raise ValidationError(
                "max_cached_models/max_cached_bytes require a persistence "
                "backend (a store directory or backend=...): evicted "
                "models must have an artifact to reload from")
        self.backend = backend
        #: artifact root when the backend is directory-shaped, else None
        self.directory = getattr(backend, "directory", None)
        self._models = LRUModelCache(max_cached_models,
                                     max_bytes=max_cached_bytes)
        self._method_names: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # repro-lint: allow[model-ref]
    def path(self, model_id: str) -> Optional[str]:
        """On-disk artifact directory for ``model_id`` (``None`` if memory-only)."""
        if self.backend is None:
            return None
        # Ids become path components; a wire-supplied "../evil" must never
        # escape the store directory.
        return self.backend.location(check_model_id(model_id))

    @staticmethod
    def _imputer_nbytes(imputer: BaseImputer) -> Optional[int]:
        """Resident size of an imputer, when it can report one."""
        probe = getattr(imputer, "memory_nbytes", None)
        return int(probe()) if callable(probe) else None

    # repro-lint: allow[model-ref]
    def put(self, model_id: str, imputer: BaseImputer,
            method: Optional[str] = None) -> str:
        check_model_id(model_id)
        self._models.put(model_id, imputer,
                         nbytes=self._imputer_nbytes(imputer))
        if method is not None:
            self._method_names[model_id] = method
        if self.backend is not None:
            self.backend.save(model_id, imputer, method=method)
        return model_id

    # repro-lint: allow[model-ref]
    def method_for(self, model_id: str) -> Optional[str]:
        """Registry method name the model was fitted with, if recorded.

        Survives restarts: cold stores ask the backend (the sidecar written
        by :meth:`put`, or the backend's metadata table), so result rows
        report the same method name whether the model is warm or reloaded.
        """
        if model_id in self._method_names:
            return self._method_names[model_id]
        if self.backend is not None:
            method = self.backend.method_for(model_id)
            if method:
                self._method_names[model_id] = method
                return method
        return None

    # repro-lint: allow[model-ref]
    def get(self, model_id: str) -> BaseImputer:
        """The stored imputer; loads lazily from the backend on a miss."""
        check_model_id(model_id)
        cached = self._models.get(model_id)
        if cached is not None:
            return cached
        if self.backend is not None:
            imputer = self.backend.load(model_id)
            if imputer is not None:
                self._models.put(model_id, imputer,
                                 nbytes=self._imputer_nbytes(imputer))
                return imputer
        raise ServiceError(
            f"unknown model id {model_id!r}; known: "
            + (", ".join(sorted(self.list_models())) or "<none>"))

    def cache_stats(self) -> Dict[str, object]:
        """Hit/miss/eviction statistics of the in-memory model cache."""
        return self._models.stats()

    def fast_path_stats(self) -> Dict[str, Dict[str, object]]:
        """Fast-path telemetry per *warm* model (build cost, size).

        Reads the cache with :meth:`LRUModelCache.peek` so telemetry
        polling distorts neither the hit/miss counters nor the LRU
        recency order; cold models are simply absent.
        """
        stats: Dict[str, Dict[str, object]] = {}
        for model_id in self._models.keys():
            imputer = self._models.peek(model_id)
            probe = getattr(imputer, "fast_path_info", None)
            if callable(probe):
                stats[model_id] = probe()
        return stats

    def __contains__(self, model_id: str) -> bool:
        if model_id in self._models:
            return True
        if self.backend is not None:
            try:
                check_model_id(model_id)
            except ValidationError:
                return False
            return self.backend.exists(model_id)
        return False

    # repro-lint: allow[model-ref]
    def discard(self, model_id: str) -> None:
        """Forget a stored model: the memory entry and the persisted artifact.

        Long-running callers that replace models (e.g. streaming refits)
        use this to keep the store bounded; discarding an unknown id is a
        no-op.
        """
        check_model_id(model_id)
        self._models.pop(model_id)
        self._method_names.pop(model_id, None)
        if self.backend is not None:
            self.backend.delete(model_id)

    def list_models(self) -> List[str]:
        names = set(self._models.keys())
        if self.backend is not None:
            names.update(self.backend.list_ids())
        return sorted(names)


# ---------------------------------------------------------------------- #
# serving batches
# ---------------------------------------------------------------------- #
@dataclass
class ServingBatch:
    """All queued requests against one fitted model, served as one batch.

    The model rides along as a live ``imputer``, fitted exactly once, at
    :meth:`ImputationService.fit` time.
    """

    model_id: str
    imputer: BaseImputer
    #: registry method name; ``None`` falls back to the imputer's display
    #: name
    method: Optional[str] = None
    requests: List[ImputeRequest] = field(default_factory=list)

    def key(self) -> str:
        ids = ",".join(str(r.request_id) for r in self.requests)
        return f"serve:{self.model_id}:{ids}"


def _latency(request: ImputeRequest, end: float, compute: float) -> float:
    """End-to-end latency of ``request``: queue wait + compute.

    Measured from the admission stamp (``enqueued_at``, set by the
    service's ``submit``, the gateway or the cluster router) to ``end``.
    Requests served without queueing have no stamp and report the compute
    time itself.  ``perf_counter`` is CLOCK_MONOTONIC system-wide on the
    platforms we run, so a router's stamp stays comparable in a shard
    process on the same host.
    """
    if request.enqueued_at is None:
        return compute
    return max(end - request.enqueued_at, compute)


def _fast_path_flags(imputer: BaseImputer, count: int) -> List[bool]:
    """Per-request fast-path flags of the imputer's most recent serve.

    Methods with a fast path (:class:`repro.core.imputer.DeepMVIImputer`)
    record one entry per served tensor in ``last_impute_info``; everything
    else reports False for every request.
    """
    info = getattr(imputer, "last_impute_info", None)
    if isinstance(info, list) and len(info) == count:
        return [bool(entry.get("fast_path", False)) for entry in info]
    return [False] * count


def _serve_group(batch: ServingBatch, requests: List[ImputeRequest],
                 spans: List[dict]) -> List[ImputeResult]:
    """Serve ``requests`` with one model call; their results, in order.

    The call is ``serve_requests`` for a remote proxy (the cluster's
    :class:`~repro.cluster.router.RemoteModel`, which ships the full
    requests, trace contexts included, in one RPC) and ``impute_many``
    for everything else.  A group of several requests is *fused*: its
    results say so and share the call's time.  Each traced request's
    serve span is appended to ``spans``; whatever the model raises
    propagates.
    """
    imputer = batch.imputer
    method = batch.method or getattr(imputer, "name", type(imputer).__name__)
    # The model call can activate one context for the imputer-internal
    # stage hooks, so the first traced request hosts them; every traced
    # request still gets its own serve span below.
    traced = [request.trace for request in requests
              if request.trace is not None] if obs_trace.enabled() else []
    serve_requests = getattr(imputer, "serve_requests", None)
    with obs_trace.activate(traced[0] if traced else None):
        start = time.perf_counter()
        if callable(serve_requests):
            completed_many = serve_requests(requests)
        else:
            completed_many = imputer.impute_many(
                [request.data for request in requests])
        end = time.perf_counter()
    fused = len(requests) > 1
    share = (end - start) / len(requests)
    fast_flags = _fast_path_flags(imputer, len(requests))
    name, attrs = ("serve.fused_forward", {"batch_size": len(requests)}) \
        if fused else ("serve.impute", {})
    spans.extend(
        obs_trace.span_record(name, request.trace.child(), start, end,
                              {**attrs, "fast_path": fast,
                               "model_id": batch.model_id})
        for request, fast in zip(requests, fast_flags)
        if request.trace is not None)
    return [ImputeResult(request_id=str(request.request_id),
                         model_id=batch.model_id,
                         method=method,
                         completed=completed,
                         runtime_seconds=share,
                         latency_seconds=_latency(request, end, share),
                         from_batch=True,
                         fused=fused,
                         fast_path=fast)
            for request, completed, fast in zip(requests, completed_many,
                                                fast_flags)]


def execute_serving_batch(batch: ServingBatch) -> JobResult:
    """Run one micro-batch: impute every request with the batch's model.

    Shared by :meth:`ImputationService.gather`, the gateway and the cluster
    shards.  The returned :class:`JobResult` is always ok and carries
    ``{"results": [ImputeResult...], "failures": [{request_id, error}...]}``:
    a request that fails is recorded there, never raised.

    Requests are served in groups, one model call each: the whole batch
    is one group when the model fuses (a remote proxy's
    ``serve_requests``, or an ``impute_many`` that overrides the
    per-request loop of :class:`~repro.baselines.base.BaseImputer`), and
    each request is its own group otherwise.  A group of several requests
    that raises is served again one request at a time, so the failure is
    pinned to the request that caused it and never discards its siblings'
    answers.
    """
    import traceback

    imputer = batch.imputer
    # The BaseImputer default is the same per-request loop as one-request
    # groups, so serving it as one group would only double-execute the
    # healthy requests whenever one fails.
    fuses = callable(getattr(imputer, "serve_requests", None)) \
        or type(imputer).impute_many is not BaseImputer.impute_many
    groups = [list(batch.requests)] if fuses \
        else [[request] for request in batch.requests]
    results: List[ImputeResult] = []
    failures: List[Dict[str, str]] = []
    spans: List[dict] = []
    while groups:
        group = groups.pop(0)
        try:
            results.extend(_serve_group(batch, group, spans))
        except Exception:
            if len(group) > 1:
                # serve its requests alone, next, to pin the failure
                groups[:0] = [[request] for request in group]
            else:
                failures.append({"request_id": str(group[0].request_id),
                                 "error": traceback.format_exc()})
    obs_trace.write_records(spans)
    return JobResult(key=batch.key(),
                     result={"results": results, "failures": failures})


def ordered_results(request_ids: Sequence[str],
                    results: Dict[str, ImputeResult],
                    errors: Dict[str, str],
                    raise_on_error: bool) -> List[ImputeResult]:
    """The tail of every ``gather``: results in submit order, or a raise.

    ``request_ids`` lists the sweep's requests in submit order;
    ``results`` and ``errors`` (request id -> traceback) are what serving
    left.  With ``raise_on_error`` any error raises
    :class:`ServiceError` whose ``partial_results`` holds the ordered
    successes.
    """
    ordered = [results[request_id] for request_id in request_ids
               if request_id in results]
    if errors and raise_on_error:
        error = ServiceError(
            f"{len(errors)} of {len(request_ids)} request(s) failed "
            f"({', '.join(sorted(errors))}); first error:\n"
            f"{next(iter(errors.values()))}")
        error.partial_results = ordered
        raise error
    return ordered


# ---------------------------------------------------------------------- #
# the service
# ---------------------------------------------------------------------- #
class ImputationService:
    """Serving façade over the registry and the model store.

    Parameters
    ----------
    store_dir:
        Optional directory for the model store; fitted models are persisted
        there as engine artifacts and reloaded lazily.
    registry:
        Method registry; defaults to the process-wide plugin registry.
    max_cached_models:
        Bound on the store's in-memory LRU model cache; requires a
        ``store_dir`` so evicted models can reload from their artifact.
        ``None`` keeps every model in memory (the historical behaviour).
    """

    def __init__(self, store_dir: Optional[str] = None,
                 registry: Optional[ImputerRegistry] = None,
                 store: Optional[ModelStore] = None,
                 max_cached_models: Optional[int] = None) -> None:
        self.registry = registry or get_registry()
        self.store = store or ModelStore(store_dir,
                                         max_cached_models=max_cached_models)
        #: model version lineages (refits, canary candidates, ``@latest``
        #: pointers); journaled next to the artifacts when the store is
        #: directory-backed so rollout history replays across restarts
        journal = self.store.directory / "model_versions.jsonl" \
            if self.store.directory is not None else None
        self.versions = VersionRegistry(journal_path=journal)
        self._pending: List[ImputeRequest] = []
        self._model_counter = itertools.count(1)
        self._request_counter = itertools.count(1)
        self._pending_ids: set = set()
        #: times each model id was (re)trained — a correctly used service
        #: keeps every entry at 1 no matter how many requests it serves
        self.fit_counts: Dict[str, int] = {}
        #: training wall-clock per model id (serving results only carry the
        #: per-request impute time)
        self.fit_seconds: Dict[str, float] = {}
        #: request id → traceback for requests that failed in that sweep
        self.last_errors: Dict[str, str] = {}

    # -- fitting -------------------------------------------------------- #
    def fit(self, data: Union[TensorLike, FitRequest],
            method: Optional[str] = None,
            model_id: Optional[Union[str, ModelRef]] = None,
            **method_kwargs) -> str:
        """Train ``method`` (default ``"deepmvi"``) on ``data`` once.

        Returns the model id.  Accepts a :class:`FitRequest` or a tensor
        plus keyword options.
        """
        if isinstance(data, FitRequest):
            request = data
            if method is not None or model_id is not None or method_kwargs:
                raise ValidationError(
                    "pass either a FitRequest or (data, method=..., "
                    "model_id=..., **kwargs), not both — the keyword "
                    "arguments would be silently ignored")
        else:
            if isinstance(model_id, ModelRef):
                # Fitting creates a lineage's base model; versions are
                # allocated by refit(), so a ref here names the lineage.
                model_id = model_id.model_id
            request = FitRequest(data=as_tensor(data),
                                 method=method or "deepmvi",
                                 method_kwargs=dict(method_kwargs),
                                 model_id=model_id)
        request.validate(self.registry)
        info = self.registry.info(request.method)
        imputer = info.create(**request.method_kwargs)
        start = time.perf_counter()
        imputer.fit(request.data)
        resolved_id = request.model_id or self._fresh_model_id(info.name)
        self.fit_seconds[resolved_id] = time.perf_counter() - start
        self.store.put(resolved_id, imputer, method=info.name)
        self.fit_counts[resolved_id] = self.fit_counts.get(resolved_id, 0) + 1
        return resolved_id

    def fit_many(self, data: TensorLike, methods: Sequence[str],
                 method_kwargs: Optional[Dict[str, Dict]] = None) -> Dict[str, str]:
        """Fit several methods on one dataset; returns method → model id."""
        kwargs_by_method = {k.lower(): v for k, v in (method_kwargs or {}).items()}
        return {name: self.fit(data, method=name,
                               **kwargs_by_method.get(name.lower(), {}))
                for name in methods}

    # -- versioning ----------------------------------------------------- #
    def resolve_ref(self, ref) -> str:
        """Concrete store id for a :class:`ModelRef` (or legacy string).

        ``@latest`` follows the lineage's serving pointer; models that were
        never refitted resolve to their bare id, bit-identically to
        pre-versioning behaviour.
        """
        return self.versions.resolve(ModelRef.parse(ref))

    def _resolve_request(self, request: ImputeRequest) -> ImputeRequest:
        """Pin a request to the concrete store id its ref resolves to."""
        concrete = self.versions.resolve(request.model_ref)
        if request.model_id != concrete:
            request = dataclasses.replace(request, model_id=concrete)
        return request

    def refit(self, model, data: TensorLike, reason: str = "") -> ModelRef:
        """Warm-start retrain a lineage on fresh data; returns the new ref.

        Clones the currently *serving* imputer (same hyperparameters,
        fitted state discarded), fits it on ``data``, and stores it as the
        lineage's next version — the current version keeps serving
        ``@latest`` untouched until a canary promotes the newcomer
        (:mod:`repro.online`).  The new artifact is stamped with refit
        provenance (base lineage, version, what it was cloned from).
        """
        ref = ModelRef.parse(model)
        base = ref.model_id
        current_id = self.versions.resolve(ModelRef.latest(base))
        current = self.store.get(current_id)
        fresh = current.clone()
        start = time.perf_counter()
        fresh.fit(as_tensor(data))
        elapsed = time.perf_counter() - start
        new_ref = self.versions.register(base)
        concrete = self.versions.concrete_for(new_ref)
        method = self.store.method_for(current_id)
        self.store.put(concrete, fresh, method=method)
        self.fit_seconds[concrete] = elapsed
        self.fit_counts[concrete] = self.fit_counts.get(concrete, 0) + 1
        path = self.store.path(concrete)
        if path is not None:
            from repro.engine.artifacts import annotate_artifact

            annotate_artifact(path, {
                "base_model": base,
                "version": new_ref.version,
                "refit_of": current_id,
                "reason": reason,
            })
        return new_ref

    # -- synchronous serving -------------------------------------------- #
    def impute(self, request: Union[ImputeRequest, TensorLike] = None,
               model_id: Optional[Union[str, ModelRef]] = None
               ) -> ImputeResult:
        """Serve one request immediately with an already-fitted model."""
        request = self._resolve_request(
            self._coerce_request(request, model_id))
        imputer = self.store.get(request.model_id)
        # Auto-ids stay local: the caller's request object is never mutated.
        request_id = request.request_id
        if request_id is None:
            request_id = self._next_request_id()
        start = time.perf_counter()
        completed = imputer.impute(request.data)
        runtime = time.perf_counter() - start
        return ImputeResult(
            request_id=str(request_id),
            model_id=request.model_id,
            method=self._method_for(request.model_id, imputer),
            completed=completed,
            runtime_seconds=runtime,
            latency_seconds=runtime,
            fast_path=_fast_path_flags(imputer, 1)[0],
        )

    # -- batched serving ------------------------------------------------ #
    def submit(self, request: Union[ImputeRequest, TensorLike] = None,
               model_id: Optional[Union[str, ModelRef]] = None) -> str:
        """Queue a request for the next :meth:`gather`; returns its id."""
        request = self._resolve_request(
            self._coerce_request(request, model_id))
        if request.model_id not in self.store:
            raise ServiceError(
                f"unknown model id {request.model_id!r}; fit() a model first")
        if request.request_id is None:
            # Attach the auto-id to a copy so the caller's object can be
            # reused for further submissions.
            request_id = self._next_request_id()
            while request_id in self._pending_ids:
                request_id = self._next_request_id()
            request = dataclasses.replace(request, request_id=request_id)
        elif str(request.request_id) in self._pending_ids:
            # gather() correlates results by request_id; a duplicate would
            # silently hand one result to both callers.
            raise ValidationError(
                f"request id {request.request_id!r} is already queued")
        # Queue-admission stamp (on a copy — the caller's object is never
        # mutated): results report end-to-end latency from this moment.
        admitted = time.perf_counter()
        ctx = request.trace
        if ctx is None and obs_trace.enabled():
            ctx = obs_trace.start_trace()  # None when head-sampled out
            if ctx is not None:
                obs_trace.write_span("service.submit", ctx, admitted,
                                     time.perf_counter(),
                                     {"request_id": str(request.request_id)})
        request = dataclasses.replace(request, enqueued_at=admitted,
                                      trace=ctx)
        self._pending.append(request)
        self._pending_ids.add(str(request.request_id))
        return str(request.request_id)

    def gather(self, raise_on_error: bool = True) -> List[ImputeResult]:
        """Serve every queued request, micro-batched per model.

        Requests against the same model id are grouped into one
        :class:`ServingBatch` (the model is fetched once per batch, never
        refitted) and each batch runs in process through
        :func:`execute_serving_batch`.  Results come back in submit order.

        Failures are isolated per *request*: a bad tensor neither aborts its
        batch siblings nor other models' batches.  With ``raise_on_error``
        (the default) any failure then raises :class:`ServiceError` whose
        ``partial_results`` attribute holds every successful result; with
        ``raise_on_error=False`` the successes are returned and the failures
        are left in ``self.last_errors`` (request id → traceback).
        """
        if not self._pending:
            return []
        pending, self._pending = self._pending, []
        self._pending_ids = set()
        batches: Dict[str, ServingBatch] = {}
        for request in pending:
            batch = batches.get(request.model_id)
            if batch is None:
                batch = ServingBatch(
                    model_id=request.model_id,
                    method=self.store.method_for(request.model_id),
                    imputer=self.store.get(request.model_id))
                batches[request.model_id] = batch
            batch.requests.append(request)

        by_id: Dict[str, ImputeResult] = {}
        self.last_errors = {}
        for batch in batches.values():
            job = execute_serving_batch(batch)
            for result in job.result["results"]:
                by_id[result.request_id] = result
            for failure in job.result["failures"]:
                self.last_errors[failure["request_id"]] = failure["error"]
        return ordered_results([str(request.request_id)
                                for request in pending],
                               by_id, self.last_errors, raise_on_error)

    # -- introspection -------------------------------------------------- #
    def list_models(self) -> List[str]:
        """Ids of every model this service can serve."""
        return self.store.list_models()

    def pending_count(self) -> int:
        return len(self._pending)

    def describe(self) -> Dict[str, object]:
        """Serving-state snapshot (for logs and health endpoints)."""
        return {
            "models": self.list_models(),
            "pending_requests": len(self._pending),
            "fit_counts": dict(self.fit_counts),
            "store_dir": str(self.store.directory) if self.store.directory
            else None,
            "model_cache": self.store.cache_stats(),
            "fast_path": self.store.fast_path_stats(),
            "versions": self.versions.describe(),
        }

    # -- internals ------------------------------------------------------ #
    def _coerce_request(self, request, model_id: Optional[str]) -> ImputeRequest:
        return coerce_impute_request(request, model_id)

    def _next_request_id(self) -> str:
        return f"req-{next(self._request_counter):06d}"

    def _fresh_model_id(self, method_name: str) -> str:
        """Auto-id that never collides with a model already in the store.

        Matters across restarts: a new service over an existing ``store_dir``
        restarts its counter, and overwriting ``mean-0001`` silently would
        break the store's persistence guarantee.
        """
        while True:
            candidate = f"{method_name}-{next(self._model_counter):04d}"
            if candidate not in self.store:
                return candidate

    def _method_for(self, model_id: str, imputer: BaseImputer) -> str:
        return self.store.method_for(model_id) or \
            getattr(imputer, "name", type(imputer).__name__)


# ---------------------------------------------------------------------- #
# module-level one-liner
# ---------------------------------------------------------------------- #
def impute(data: TensorLike, method: str = "deepmvi",
           **method_kwargs) -> TimeSeriesTensor:
    """Impute the missing cells of ``data`` in one call.

    Fits ``method`` on the tensor and returns its completed copy.  For the
    fit-once / serve-many workflow use :class:`ImputationService` instead.

    >>> completed = impute(incomplete, method="deepmvi")      # doctest: +SKIP
    """
    tensor = as_tensor(data)
    imputer = get_registry().create(method, **method_kwargs)
    return imputer.fit_impute(tensor)
