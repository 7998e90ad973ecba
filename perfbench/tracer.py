"""Out-of-program tracing: wrap named public functions, keep spans in memory.

The traced run replaces each function named in :data:`TARGETS` by a
wrapper that records a span (name, start, end, parent and an optional
result summary such as cell or request counts) and calls the original.
Functions are looked up by dotted name at install time; one that no longer
exists is recorded as missing, and every metric that needs it is reported
as absent.

Spans live in a list until the run ends; phases are assigned afterwards
from the run's phase marks.  A process forked from the traced one (a
cluster shard) inherits the wrappers; when its ``hand_back`` target
returns, it writes the spans it recorded meanwhile to ``handback_dir``, and
:meth:`Tracer.collect` merges them into the run's spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "info")

    def __init__(self, sid: int, name: str, parent: int) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A function to wrap: span name, dotted path, optional summary."""

    name: str
    path: str
    #: ``info(args, kwargs, result)`` -> result summary kept on the span
    info: Optional[Callable] = None
    #: phases in which ``info`` runs (``None``: all); for costly summaries
    phases: Optional[Tuple[str, ...]] = None
    #: in a forked process, hand the spans back when this call returns
    hand_back: bool = False


# -- extractors -------------------------------------------------------- #
def _argument(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _batch_cells(args, kwargs, result):
    context = args[0]
    rows = _argument(args, kwargs, 1, "series_rows")
    times = _argument(args, kwargs, 2, "target_times")
    rows = np.asarray(rows, dtype=np.int64)
    windows = np.asarray(times, dtype=np.int64) // int(context.window)
    pairs = np.unique(rows * (1 << 32) + windows)
    return [id(context), int(rows.shape[0]), pairs.tolist()]


def _lookup_hits(args, kwargs, result):
    return int(np.asarray(result[0]).sum())


def _serve_batch_info(args, kwargs, result):
    batch = _argument(args, kwargs, 0, "batch")
    fused_attempt = len(batch.requests) > 1
    outcome = getattr(result, "result", None) or {}
    served = outcome.get("results", [])
    fell_back = fused_attempt and any(not item.fused for item in served)
    return {"requests": len(batch.requests), "fallback": bool(fell_back)}


def _queue_waits(args, kwargs, result):
    now = time.perf_counter()
    return [now - entry.admitted_at for entry in result]


def _frame_bytes(args, kwargs, result):
    """Bytes of one shard RPC on the wire: both JSON frames and prefixes.

    The reply is re-encoded from its decoded form, which JSON round-trips
    to the shard's exact bytes.
    """
    payload = _argument(args, kwargs, 1, "payload")
    return sum(4 + len(json.dumps(frame).encode("utf-8"))
               for frame in (payload, result))


TARGETS: Tuple[Target, ...] = (
    Target("core.fit", "repro.core.imputer.DeepMVIImputer.fit"),
    Target("core.train", "repro.core.training.DeepMVITrainer.fit",
           info=lambda a, k, r: len(r.train_losses)),
    Target("core.sample_batch",
           "repro.core.sampling.TrainingSampler.sample_batch"),
    Target("nn.backward", "repro.nn.tensor.Tensor.backward"),
    Target("core.build_tables",
           "repro.core.fast_path.build_fast_path_tables"),
    Target("core.context", "repro.core.context.DatasetContext.__init__"),
    Target("core.build_batch", "repro.core.context.DatasetContext.build_batch",
           info=_batch_cells),
    Target("core.predict", "repro.core.model.DeepMVIModel.predict"),
    Target("core.pooled_hidden", "repro.core.temporal_transformer."
           "TemporalTransformer.pooled_hidden"),
    Target("core.kernel_regression",
           "repro.core.kernel_regression.KernelRegression.forward"),
    Target("core.match_windows",
           "repro.core.fast_path.FastPathTables.match_windows"),
    Target("core.lookup", "repro.core.fast_path.FastPathTables.lookup",
           info=_lookup_hits),
    Target("core.try_fast_path", "repro.core.imputer.DeepMVIImputer."
           "try_fast_path", info=lambda a, k, r: r is not None),
    Target("api.submit", "repro.api.service.ImputationService.submit"),
    Target("api.gather", "repro.api.service.ImputationService.gather"),
    Target("api.serve_batch", "repro.api.service.execute_serving_batch",
           info=_serve_batch_info),
    Target("gateway.submit", "repro.gateway.gateway.Gateway.submit"),
    Target("gateway.next_batch", "repro.gateway.queue.RequestQueue."
           "next_batch", info=_queue_waits),
    Target("streaming.step", "repro.streaming.service.StreamingService.step"),
    Target("cluster.submit", "repro.cluster.router.ClusterRouter.submit"),
    Target("cluster.rpc", "repro.cluster.router.ShardClient.call",
           info=_frame_bytes, phases=("verify",)),
    Target("cluster.get_result",
           "repro.cluster.store.DurableStore.get_result",
           info=lambda a, k, r: r is not None),
    Target("cluster.journal_request",
           "repro.cluster.store.DurableStore.journal_request"),
    Target("cluster.commit_result",
           "repro.cluster.store.DurableStore.commit_result",
           info=lambda a, k, r: bool(r)),
    Target("cluster.shard", "repro.cluster.shard.ShardServer.serve_forever",
           hand_back=True),
)


def resolve(path: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` for a dotted name; raises LookupError."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                raise LookupError(f"{path}: no attribute {name!r}")
        if isinstance(owner, type):
            if parts[-1] not in owner.__dict__:
                raise LookupError(f"{path}: not defined on {owner.__name__}")
        elif not hasattr(owner, parts[-1]):
            raise LookupError(f"{path}: not found")
        return owner, parts[-1]
    raise LookupError(f"{path}: no importable module")


class Tracer:
    """Wraps :data:`TARGETS` and records their spans."""

    def __init__(self, targets: Optional[Tuple[Target, ...]] = None) -> None:
        self.targets = TARGETS if targets is None else targets
        self.spans: List[Span] = []
        #: target name -> why it could not be wrapped
        self.missing: Dict[str, str] = {}
        self.phase_marks: List[Tuple[float, str]] = []
        self.phase = ""
        #: where forked processes write their spans (``None``: nowhere)
        self.handback_dir: Optional[Path] = None
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- install / uninstall -------------------------------------------- #
    def install(self) -> "Tracer":
        resolved = []
        for target in self.targets:
            try:
                resolved.append((target, *resolve(target.path)))
            except LookupError as error:
                self.missing[target.name] = str(error)
        # every target module is imported now, so the scan below also
        # finds a module function bound by name in another repro module
        modules = [module for name, module in list(sys.modules.items())
                   if name.startswith("repro") and module is not None]
        for target, owner, attr in resolved:
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapper = self._wrap(target, original)
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module in modules:
                if module is owner:
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, target: Target, original):
        tracer = self
        local = self._local
        info = target.info
        phases = target.phases
        hand_back = target.hand_back

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(next(tracer._ids), target.name,
                        stack[-1].sid if stack else 0)
            first = len(tracer.spans) if hand_back else 0
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
                if hand_back and os.getpid() != tracer.pid:
                    tracer.hand_back(first)
            if info is not None and (phases is None
                                     or tracer.phase in phases):
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    # -- forked processes ------------------------------------------------ #
    def hand_back(self, first: int) -> None:
        """In a forked process: write the spans recorded since ``first``."""
        if self.handback_dir is None:
            return
        records = [[span.sid, span.name, span.parent, span.start, span.end,
                    span.info] for span in self.spans[first:]]
        path = self.handback_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(records))

    def collect(self) -> None:
        """Merge the spans forked processes handed back.

        Span ids are renumbered, since a forked process counts on from
        the ids its parent had used at the fork.
        """
        if self.handback_dir is None:
            return
        for path in sorted(self.handback_dir.glob("spans-*.json")):
            records = json.loads(path.read_text())
            renumbered = {record[0]: next(self._ids) for record in records}
            for sid, name, parent, start, end, info in records:
                span = Span(renumbered[sid], name, renumbered.get(parent, 0))
                span.start, span.end, span.info = start, end, info
                self.spans.append(span)
            path.unlink()

    # -- phases ---------------------------------------------------------- #
    def mark(self, phase: str) -> None:
        self.phase = phase
        self.phase_marks.append((time.perf_counter(), phase))


@functools.lru_cache(maxsize=None)
def wrapper_cost_seconds(calls: int = 20000) -> float:
    """Measured cost of one traced call over an untraced one, in seconds.

    Measured once per process: a benchmark run makes one traced run, and
    the tests' several traced runs share the first measurement.
    """

    class Probe:
        def noop(self, value):
            return value

    probe = Probe()
    plain = probe.noop
    best_plain = best_traced = float("inf")
    tracer = Tracer(targets=())
    traced = tracer._wrap(Target("probe", "probe"), Probe.noop)
    for _ in range(3):
        start = time.perf_counter()
        for index in range(calls):
            plain(index)
        best_plain = min(best_plain, time.perf_counter() - start)
        tracer.spans = []
        start = time.perf_counter()
        for index in range(calls):
            traced(probe, index)
        best_traced = min(best_traced, time.perf_counter() - start)
    return max(best_traced - best_plain, 0.0) / calls
