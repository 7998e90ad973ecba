"""Streaming serving: many concurrent streams over one imputation service.

:class:`StreamingService` is the serving layer for live traffic.  Each
registered stream owns a model in the wrapped
:class:`~repro.api.ImputationService` (fitted on that stream's bounded
history, refreshed every ``refit_every`` windows); each serving *step*
takes the next pending window of every stream and pushes them through the
service's micro-batched ``submit``/``gather`` path, so

* every stream's window is served in the same in-process sweep (one
  serving batch per model), and
* a failure is isolated to its stream and window — a poisoned window
  produces one failed :class:`StreamWindowResult` while every other
  stream's window in the same step completes normally.

Methods with a serving fast path (:mod:`repro.core.fast_path`) build their
lookup tables inside every refit, so the window that triggered the refit
is already served by a model that holds tables.

The typical loop::

    svc = StreamingService(store_dir="models/")
    svc.open_stream("plant-a", method="svdimp", refit_every=8)
    svc.open_stream("plant-b", method="interpolation")
    for window_a, window_b in zip(stream_a, stream_b):
        svc.push("plant-a", window_a)
        svc.push("plant-b", window_b)
        for result in svc.step():
            ...                       # result.completed, result.latency_seconds

or, for finite replays, simply ``svc.run({"plant-a": stream_a, ...})``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Union

from repro.api.refs import ModelRef
from repro.api.requests import ImputeRequest, check_model_id
from repro.api.service import ImputationService
from repro.api.telemetry import MetricsSnapshot, ServingMetrics
from repro.baselines.registry import ImputerRegistry, get_registry
from repro.data.tensor import TimeSeriesTensor
from repro.exceptions import ServiceError, ValidationError
from repro.streaming.windows import HistoryBuffer, StreamWindow, WindowedStream

__all__ = ["StreamState", "StreamWindowResult", "StreamingService"]

#: sentinel distinguishing "argument omitted" from an explicit ``None``
#: (``max_history=None`` legitimately means an unbounded history)
_UNSET: object = object()


@dataclass
class StreamWindowResult:
    """Outcome of serving one window of one stream."""

    stream_id: str
    window_index: int
    start: int
    stop: int
    completed: Optional[TimeSeriesTensor] = None
    #: end-to-end serving latency of this window (queue wait inside the
    #: sweep + its share of the compute)
    latency_seconds: float = 0.0
    #: True when this window triggered an incremental refit
    refit: bool = False
    #: wall-clock of that refit (0 when ``refit`` is False)
    refit_seconds: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.completed is not None


@dataclass
class StreamState:
    """Book-keeping for one open stream."""

    stream_id: str
    method: str
    method_kwargs: Dict[str, object] = field(default_factory=dict)
    refit_every: int = 8
    history: HistoryBuffer = field(default_factory=HistoryBuffer)
    model_id: Optional[str] = None
    #: True when ``model_id`` was fitted by the streaming service itself
    #: (and may therefore be evicted on refit); False for warm-start models
    #: owned by the caller.
    model_owned: bool = False
    windows_since_fit: int = 0
    windows_served: int = 0
    refits: int = 0
    #: window index -> error traceback for windows that failed
    errors: Dict[int, str] = field(default_factory=dict)
    pending: List[StreamWindow] = field(default_factory=list)
    closed: bool = False

    def describe(self) -> Dict[str, object]:
        return {
            "stream_id": self.stream_id,
            "method": self.method,
            "model_id": self.model_id,
            "windows_served": self.windows_served,
            "refits": self.refits,
            "failures": len(self.errors),
            "history_steps": self.history.steps,
            "closed": self.closed,
        }


class StreamingService:
    """Serve per-window impute requests for many concurrent streams.

    Parameters
    ----------
    service:
        The :class:`~repro.api.ImputationService` to serve through; built
        from ``store_dir`` when omitted.
    store_dir:
        Model-store directory: stream models persist there as artifacts.
    default_refit_every / default_max_history:
        Stream defaults, overridable per :meth:`open_stream`.
    """

    def __init__(self, service: Optional[ImputationService] = None,
                 store_dir: Optional[str] = None,
                 registry: Optional[ImputerRegistry] = None,
                 default_refit_every: int = 8,
                 default_max_history: Optional[int] = 512) -> None:
        self.registry = registry or get_registry()
        self.service = service or ImputationService(
            store_dir=store_dir, registry=self.registry)
        self.default_refit_every = default_refit_every
        self.default_max_history = default_max_history
        self._streams: Dict[str, StreamState] = {}
        #: window outcomes across every stream, behind stats(); a stats()
        #: poll may run concurrently with push() and step()
        self.metrics = ServingMetrics("streaming")

    # -- stream lifecycle ----------------------------------------------- #
    def open_stream(self, stream_id: str, method: Optional[str] = None,
                    refit_every: Optional[int] = None,
                    max_history: Union[int, None, object] = _UNSET,
                    warm_start=None,
                    **method_kwargs) -> StreamState:
        """Register a stream; returns its (mutable) state record.

        ``warm_start`` names a model already in the wrapped service's
        store — a :class:`~repro.api.refs.ModelRef` or an id string
        (:meth:`ModelRef.parse`): the stream serves from it immediately
        instead of fitting on its first window (combine with
        ``refit_every=0`` to never refit).  A floating ref
        (``ModelRef.latest``/bare id) keeps following the lineage's
        serving pointer, so a canary promotion reroutes the stream's
        traffic to the new version.
        ``method`` defaults to the warm-start model's recorded method (so
        incremental refits keep training the same model family), or to
        ``"interpolation"`` for cold streams.  ``max_history=None`` keeps
        an unbounded refit history; omit it for the service default.
        A closed stream's id may be reopened — the new stream starts
        fresh, and the closed stream's own model is dropped from the
        store.  Methods not tagged ``streaming`` in the registry are
        allowed but warned about — their refits rerun full training on
        every trigger.
        """
        check_model_id(stream_id, label="stream_id")
        existing = self._streams.get(stream_id)
        if existing is not None:
            if not existing.closed:
                raise ValidationError(
                    f"stream {stream_id!r} is already open")
            self._evict_owned_model(existing)
        warm_concrete = None
        if warm_start is not None:
            warm_ref = ModelRef.parse(warm_start)
            warm_concrete = self.service.resolve_ref(warm_ref)
            if warm_concrete not in self.service.store:
                raise ServiceError(
                    f"warm-start model {warm_start!r} is not in the service "
                    "store; fit() it first or pass a store_dir that has it")
            # Floating refs keep the stream on the lineage's *base* id so
            # every step re-resolves ``@latest`` (a canary promotion
            # reroutes traffic); pinned refs freeze the concrete version.
            if not warm_ref.pinned:
                warm_concrete = warm_ref.model_id
        if method is None:
            method = (self.service.store.method_for(
                self.service.resolve_ref(warm_concrete))
                if warm_concrete is not None else None) or "interpolation"
        info = self.registry.info(method)
        if "streaming" not in info.tags:
            warnings.warn(
                f"method {info.name!r} is not tagged streaming-capable; "
                "incremental refits will rerun full training "
                "(see list_method_infos(tags=('streaming',)))",
                UserWarning, stacklevel=2)
        refit_every = self.default_refit_every if refit_every is None \
            else refit_every
        if refit_every < 0:
            raise ValidationError(
                f"refit_every must be >= 0, got {refit_every}")
        if max_history is _UNSET:
            max_history = self.default_max_history
        state = StreamState(
            stream_id=stream_id, method=info.name,
            method_kwargs=dict(method_kwargs), refit_every=refit_every,
            history=HistoryBuffer(max_history=max_history),
            model_id=warm_concrete,
        )
        self._streams[stream_id] = state
        return state

    def close_stream(self, stream_id: str) -> StreamState:
        """Mark a stream closed; its pending windows are discarded.

        The discarded windows count as expired in :meth:`stats`.
        """
        state = self._state(stream_id)
        state.closed = True
        self.metrics.record_expired(len(state.pending))
        state.pending.clear()
        return state

    def streams(self) -> List[str]:
        return sorted(self._streams)

    def describe(self) -> Dict[str, object]:
        """Serving-state snapshot across all streams."""
        return {
            "streams": {sid: state.describe()
                        for sid, state in sorted(self._streams.items())},
            "service": self.service.describe(),
        }

    def stats(self) -> MetricsSnapshot:
        """Window-serving telemetry in the shared snapshot shape.

        The same typed :class:`~repro.api.telemetry.MetricsSnapshot` the
        gateway and the cluster router return, so the canary controller
        (and dashboards) read one surface regardless of tier.  Counters
        cover every stream: a pushed window is submitted on lane
        ``"stream"``, then completes, fails or (discarded by
        :meth:`close_stream`) expires; ``queue_depth`` is windows pushed
        but not yet stepped, and percentiles come from the per-window
        end-to-end latencies.  A cold service snapshots as all zeros.
        """
        states = list(self._streams.values())
        return self.metrics.snapshot(
            queue_depth=sum(len(state.pending) for state in states),
            extras={"streams": sum(not state.closed for state in states),
                    "refits": sum(state.refits for state in states)})

    # -- serving -------------------------------------------------------- #
    def push(self, stream_id: str, window: StreamWindow) -> None:
        """Queue ``window`` on its stream for the next :meth:`step`."""
        state = self._state(stream_id)
        if state.closed:
            raise ServiceError(f"stream {stream_id!r} is closed")
        # Counted before step() can see it, so completions never outrun
        # submissions in a concurrent stats() poll.
        self.metrics.record_submit("stream")
        state.pending.append(window)

    def step(self, max_windows: int = 1) -> List[StreamWindowResult]:
        """Serve pending windows of every stream, micro-batched together.

        Refits (when due) run first, serially in this process — they are
        rare by construction.  The impute requests of every stream then go
        through one ``submit``/``gather`` sweep of the wrapped service, so
        the windows queued against one model are **fused** into shared
        forward calls.

        ``max_windows`` bounds how many pending windows each stream serves
        in this step: the default ``1`` keeps the historical one-window
        cadence, while a backlogged caller can drain ``max_windows=K`` (or
        ``max_windows=0`` for *all* pending windows) per stream in a single
        fused sweep.  A model superseded by a mid-step refit is retired only
        after the sweep, so windows already queued against it still serve.

        Failures never propagate across streams: each becomes a per-window
        error result.

        The wrapped service's submit/gather queue belongs to this streaming
        service: a foreign request queued directly on it would be drained
        by this step and its result silently lost, so that state is
        rejected up front.
        """
        if self.service.pending_count():
            raise ServiceError(
                f"the wrapped ImputationService has "
                f"{self.service.pending_count()} foreign pending request(s); "
                "StreamingService owns its service's submit/gather queue — "
                "gather() them first or use a dedicated service")
        if max_windows < 0:
            raise ValidationError(
                f"max_windows must be >= 0, got {max_windows}")
        active: List[StreamWindowResult] = []
        requests: Dict[str, StreamWindowResult] = {}
        retired: List[str] = []
        for state in self._streams.values():
            if state.closed or not state.pending:
                continue
            take = len(state.pending) if max_windows == 0 \
                else min(max_windows, len(state.pending))
            windows = [state.pending.pop(0) for _ in range(take)]
            for window in windows:
                result = StreamWindowResult(
                    stream_id=state.stream_id, window_index=window.index,
                    start=window.start, stop=window.stop)
                active.append(result)
                if state.refit_every or state.model_id is None:
                    # Warm-start streams that never refit skip the history
                    # copy: nothing would ever read it.
                    state.history.absorb(window)
                state.windows_since_fit += 1
                try:
                    # Refit *and* submit failures stay on their stream: a
                    # submit that raises (e.g. the model was pruned from a
                    # shared store) must neither abort the step nor strand
                    # the sibling requests already queued.
                    if self._needs_refit(state):
                        result.refit = True
                        result.refit_seconds = self._refit(state, retired)
                    request_id = f"{state.stream_id}.w{window.index:06d}"
                    # A floating ref: versioned lineages re-resolve
                    # ``@latest`` per step (canary promotions reroute the
                    # stream), unversioned models resolve to themselves
                    # bit-identically.
                    request = ImputeRequest(
                        model_id=ModelRef.latest(state.model_id),
                        data=window.tensor,
                        request_id=request_id)
                    self.service.submit(request)
                except Exception:
                    import traceback

                    result.error = traceback.format_exc()
                    state.errors[window.index] = result.error
                    self.metrics.record_failed()
                    continue
                requests[request_id] = result

        for impute_result in self.service.gather(raise_on_error=False):
            result = requests.get(impute_result.request_id)
            if result is None:
                continue
            result.completed = impute_result.completed
            result.latency_seconds = impute_result.latency_seconds
            state = self._streams[result.stream_id]
            state.windows_served += 1
            self.metrics.record_completion(impute_result.latency_seconds,
                                           fused=impute_result.fused,
                                           fast_path=impute_result.fast_path)
        # Failures are keyed by our own request ids; a sweep with nothing
        # submitted leaves the previous sweep's entries, which match none.
        for request_id, error in self.service.last_errors.items():
            result = requests.get(request_id)
            if result is None:
                continue
            result.error = error
            self._streams[result.stream_id].errors[result.window_index] = error
            self.metrics.record_failed()
        # A refit mid-step supersedes the stream's previous model; it is
        # dropped only now, after the sweep, because windows accepted before
        # the refit were still queued against it.
        for model_id in retired:
            self._discard_model(model_id)
        return active

    def run(self, streams: Mapping[str, Union[WindowedStream,
                                              Iterable[StreamWindow]]],
            ) -> Dict[str, List[StreamWindowResult]]:
        """Replay finite streams to exhaustion, round-robin.

        Every round pushes the next window of each still-active stream and
        serves them in one micro-batched :meth:`step`; streams of unequal
        length simply drop out of later rounds.  Streams not yet opened are
        opened with the service defaults.  Windows already pushed on *other*
        open streams are served by the same steps and included in the
        returned mapping too.
        """
        iterators: Dict[str, Iterator[StreamWindow]] = {}
        results: Dict[str, List[StreamWindowResult]] = {}
        for stream_id, source in streams.items():
            if stream_id not in self._streams:
                self.open_stream(stream_id)
            iterators[stream_id] = iter(source)
            results[stream_id] = []
        while iterators:
            exhausted = []
            for stream_id, iterator in iterators.items():
                try:
                    self.push(stream_id, next(iterator))
                except StopIteration:
                    exhausted.append(stream_id)
            for stream_id in exhausted:
                del iterators[stream_id]
            if not iterators:
                break
            for result in self.step():
                results.setdefault(result.stream_id, []).append(result)
        # Drain: pre-pushed windows shift serving one round behind the
        # push cadence, so tails may still be queued when the iterators
        # run dry.  step() pops one window per stream per call, so this
        # terminates.
        while any(state.pending and not state.closed
                  for state in self._streams.values()):
            for result in self.step():
                results.setdefault(result.stream_id, []).append(result)
        return results

    # -- internals ------------------------------------------------------ #
    def _state(self, stream_id: str) -> StreamState:
        try:
            return self._streams[stream_id]
        except KeyError:
            known = ", ".join(sorted(self._streams)) or "<none>"
            raise ServiceError(
                f"unknown stream {stream_id!r}; open streams: {known}"
            ) from None

    @staticmethod
    def _needs_refit(state: StreamState) -> bool:
        """True when the stream's next window triggers a (re)fit.

        A stream without a model is always due; ``refit_every == 0`` never
        refits once a model serves (warm-start serving); otherwise a refit
        is due every ``refit_every`` absorbed windows.
        """
        if state.model_id is None:
            return True
        if state.refit_every == 0:
            return False
        return state.windows_since_fit >= state.refit_every

    def _refit(self, state: StreamState,
               retired: Optional[List[str]] = None) -> float:
        history = state.history.tensor()
        if history is None:
            raise ServiceError(
                f"stream {state.stream_id!r} has no history to fit on")
        model_id = f"{state.stream_id}-r{state.refits:04d}"
        superseded = state.model_id if state.model_owned else None
        state.model_id = self.service.fit(
            history, method=state.method, model_id=model_id,
            **state.method_kwargs)
        state.model_owned = True
        state.refits += 1
        state.windows_since_fit = 0
        if superseded is not None:
            if retired is not None:
                # Deferred retirement: the caller still has requests queued
                # against the superseded model in the current sweep.
                retired.append(superseded)
            else:
                self._discard_model(superseded)
        return self.service.fit_seconds.get(model_id, 0.0)

    def _discard_model(self, model_id: str) -> None:
        """Drop one of *our* fitted models and its serving bookkeeping.

        Keeps the store bounded over long streams: only the newest model
        serves.  Callers guarantee the id was fitted by this streaming
        service — a caller's warm-start model is never touched.
        """
        self.service.store.discard(model_id)
        self.service.fit_counts.pop(model_id, None)
        self.service.fit_seconds.pop(model_id, None)

    def _evict_owned_model(self, state: StreamState) -> None:
        if state.model_owned and state.model_id is not None:
            self._discard_model(state.model_id)
            state.model_id = None
            state.model_owned = False
