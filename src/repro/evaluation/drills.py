"""The serving drills behind the bench commands and the benchmarks.

``gateway-bench``, ``cluster-bench`` and ``online-bench`` in
:mod:`repro.evaluation.cli` and the benchmarks ``test_gateway_throughput``,
``test_cluster_durability`` and ``test_online_drift`` run their drills
through these drivers, each with its own workload.  The drivers return
reports and print nothing.
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.api.refs import ModelRef
from repro.api.requests import ImputeRequest, ImputeResult
from repro.api.telemetry import MetricsSnapshot
from repro.data.tensor import TimeSeriesTensor
from repro.evaluation.metrics import nrmse
from repro.exceptions import QueueFullError
from repro.gateway import Gateway, GatewayConfig
from repro.online import CanaryConfig, DriftConfig, DriftDetector, OnlineLoop
from repro.streaming import StreamingService, StreamWindow, WindowedStream

__all__ = ["DriftReport", "GatewayPass", "KillReport", "drift_drill",
           "gateway_pass", "kill_drill", "timed_producers", "window_traffic"]

#: the stream (and model lineage) the drift drill replays
DRIFT_STREAM = "online-bench"


def window_traffic(tensor: TimeSeriesTensor, window: int, per_producer: int,
                   producers: int = 1) -> List[List[TimeSeriesTensor]]:
    """``producers`` lists of ``per_producer`` windows of ``window`` steps.

    The ``k``-th window overall starts at ``7 * k``, wrapped to fit.
    """
    span = max(1, tensor.n_time - window)
    windows = [tensor.slice_time(start, start + window)
               for start in ((index * 7) % span
                             for index in range(producers * per_producer))]
    return [windows[index * per_producer:(index + 1) * per_producer]
            for index in range(producers)]


def timed_producers(producers: int, produce: Callable[[int], None]) -> float:
    """Seconds for ``produce(index)`` on ``producers`` threads to finish,
    timed from a barrier that releases them all once started."""
    barrier = threading.Barrier(producers + 1)

    def run(index: int) -> None:
        barrier.wait()
        produce(index)

    threads = [threading.Thread(target=run, args=(index,),
                                name=f"producer-{index}")
               for index in range(producers)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


@dataclass
class GatewayPass:
    """One gateway pass: each offered request is delivered (``results``,
    per producer in submit order), ``rejected`` at admission, or failed
    (``errors``: admitted but raised or got no result)."""

    offered: int
    elapsed_seconds: float
    stats: MetricsSnapshot
    results: List[List[ImputeResult]]
    rejected: int
    errors: List[str]

    @property
    def delivered(self) -> int:
        return sum(len(results) for results in self.results)

    @property
    def requests_per_second(self) -> float:
        return self.delivered / self.elapsed_seconds


def gateway_pass(service, model_id: str,
                 traffic: Sequence[Sequence[TimeSeriesTensor]],
                 config: GatewayConfig, batch_every: int = 0) -> GatewayPass:
    """Producer ``p`` submits ``traffic[p]`` to a new gateway, then waits.

    Request ``i`` of producer ``p`` has the id ``p{p}-r{i:03d}``; with
    ``batch_every`` > 0, every ``batch_every``-th rides the batch lane.
    On ``QueueFullError`` the producer counts a rejection and moves on;
    an admitted request without a result after 120 s counts as failed.
    """
    results: List[List[ImputeResult]] = [[] for _ in traffic]
    rejected: List[str] = []
    errors: List[str] = []

    with Gateway(service, config) as gateway:
        def produce(producer: int) -> None:
            futures = []
            for index, tensor in enumerate(traffic[producer]):
                on_batch = batch_every and (index + 1) % batch_every == 0
                lane = "batch" if on_batch else "interactive"
                request = ImputeRequest(model_id=model_id, data=tensor,
                                        request_id=f"p{producer}-r{index:03d}")
                try:
                    futures.append(gateway.submit(request, priority=lane))
                except QueueFullError:
                    rejected.append(request.request_id)
                except Exception as error:
                    errors.append(f"{request.request_id}: {error!r}")
            for future in futures:
                try:
                    results[producer].append(future.result(timeout=120.0))
                except Exception as error:
                    errors.append(f"{future.request_id}: {error!r}")

        elapsed = timed_producers(len(traffic), produce)
        stats = gateway.stats()
    return GatewayPass(sum(len(windows) for windows in traffic), elapsed,
                       stats, results, len(rejected), errors)


@dataclass
class KillReport:
    """The kill drill: the killed batch's ``results`` in submit order, the
    seconds to gather them (shard restart included), and the resend's
    dedupe hits and ledger rows beyond one per resent id."""

    owner: str
    request_ids: List[str]
    results: List[ImputeResult]
    elapsed_seconds: float
    lost: List[str]
    resent: int
    deduped: int
    duplicated: int

    @property
    def exactly_once(self) -> bool:
        return (not self.lost and self.duplicated == 0
                and self.deduped == self.resent)


def kill_drill(router, model_id: str, windows: Sequence[TimeSeriesTensor],
               served: Sequence[Tuple[str, TimeSeriesTensor]] = ()
               ) -> KillReport:
    """Queue ``windows``, SIGKILL the model's owner, gather, resend every id.

    ``served`` lists the ``(request id, tensor)`` pairs the router answered
    before; they are resent first, so the live shards' ledgers must dedupe
    them too and hold exactly one row per id.
    """
    owner = router.ring.assign(model_id)
    request_ids = [router.submit(tensor, model_id=model_id)
                   for tensor in windows]
    router.kill_shard(owner)
    start = time.perf_counter()
    results = router.gather()
    elapsed = time.perf_counter() - start
    delivered = {result.request_id for result in results}

    resend = list(served) + list(zip(request_ids, windows))
    for request_id, tensor in resend:
        router.submit(ImputeRequest(model_id=model_id, data=tensor,
                                    request_id=request_id))
    router.gather()
    ledger_rows = sum(info.get("results", 0)
                      for info in router.shard_stats().values()
                      if info.get("alive"))
    return KillReport(owner, request_ids, results, elapsed,
                      [rid for rid in request_ids if rid not in delivered],
                      len(resend), router.last_deduped,
                      ledger_rows - len(resend))


@dataclass
class DriftReport:
    """The drift drill: each arm's probe NRMSE per window index and its
    mean over the shifted windows, and the online arm's version journal,
    loop snapshot and the version ``@latest`` serves at the end."""

    windows: List[StreamWindow]
    half: int
    static_scores: Dict[int, float]
    online_scores: Dict[int, float]
    static_nrmse: float
    online_nrmse: float
    static_seconds: float
    online_seconds: float
    journal: List[Dict[str, Any]]
    snapshot: MetricsSnapshot
    serving: str

    @property
    def drift_gain(self) -> float:
        online = self.online_nrmse
        return self.static_nrmse / online if online > 0 else float("nan")

    @property
    def exactly_once(self) -> bool:
        """The journal holds transitions, each of them once."""
        transitions = [(entry["event"], entry["version"])
                       for entry in self.journal]
        return 0 < len(set(transitions)) == len(transitions)


def drift_drill(incomplete: TimeSeriesTensor, shift: float, window: int,
                method: str, drift: DriftConfig, canary: CanaryConfig,
                store_dir: str, max_history: int = 512) -> DriftReport:
    """Shift the second half of ``incomplete``; replay it through two arms.

    The level shift is ``shift`` observed standard deviations.  Each arm
    fits ``method`` on the first half under ``store_dir/<arm>`` and
    streams windows of ``window`` steps; only the online arm is watched.
    ``max_history`` bounds the refit history: a short one keeps refits
    dominated by post-shift windows.
    """
    _, observed_std = incomplete.observed_mean_std()
    half = incomplete.n_time // 2
    values = incomplete.values.copy()
    values[..., half:] += shift * (observed_std or 1.0)
    drifting = TimeSeriesTensor(values=values,
                                dimensions=list(incomplete.dimensions),
                                mask=incomplete.mask.copy(),
                                name=f"{incomplete.name}-drifting")
    head = drifting.slice_time(0, half)
    windows = list(WindowedStream.from_tensor(drifting, window_size=window,
                                              stride=window))

    def run_arm(watched: bool, arm_dir: str):
        svc = StreamingService(store_dir=arm_dir,
                               default_max_history=max_history)
        model = svc.service.fit(head, method=method, model_id=DRIFT_STREAM)
        svc.open_stream(DRIFT_STREAM, warm_start=ModelRef.latest(model),
                        refit_every=0)
        loop = OnlineLoop(svc, drift=drift, canary=canary)
        if watched:
            loop.watch(DRIFT_STREAM)
        # Same stream id, seed and window indices give both arms the same
        # probe cells, scored against whatever @latest serves after a step.
        scorer = DriftDetector(DRIFT_STREAM, drift)
        scores: Dict[int, float] = {}
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for w in windows:
                loop.push(DRIFT_STREAM, w)
                loop.step()
                probe = scorer.make_probe(w)
                if probe is None:
                    continue
                probe_tensor, hidden = probe
                result = svc.service.impute(ImputeRequest(
                    model_id=ModelRef.latest(DRIFT_STREAM),
                    data=probe_tensor))
                scores[w.index] = nrmse(result.completed, w.tensor,
                                        mask=hidden)
        return svc, loop, scores, time.perf_counter() - start

    shifted = {w.index for w in windows if w.start >= half}

    def shifted_mean(scores: Dict[int, float]) -> float:
        kept = [score for index, score in scores.items()
                if index in shifted and np.isfinite(score)]
        return float(np.mean(kept)) if kept else float("nan")

    _, _, static_scores, static_seconds = run_arm(False, f"{store_dir}/static")
    svc, loop, online_scores, online_seconds = run_arm(
        True, f"{store_dir}/online")
    return DriftReport(
        windows, half, static_scores, online_scores,
        shifted_mean(static_scores), shifted_mean(online_scores),
        static_seconds, online_seconds,
        svc.service.versions.history(DRIFT_STREAM), loop.snapshot(),
        svc.service.resolve_ref(ModelRef.latest(DRIFT_STREAM)))
