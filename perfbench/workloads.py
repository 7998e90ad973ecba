"""The serving workloads: set-up, request generation, closed-loop drive.

Every workload shares one set-up: the workload seed generates one airq
panel (10 sensors x 1000 steps), DeepMVI fits on steps 0-299 with
``DeepMVIConfig()`` defaults under the bench gaps (MCAR over half the
series, blocks of 4), and the tier the workload exercises is brought up.
Requests come from steps >= 300, which the model never saw.

Each workload is a closed loop driven by one generator thread with
``IN_FLIGHT`` requests outstanding.  The program only ever sees the
generated tensors; the workload keeps the truth to score answers.

Serving goes only through entry points that the serving stack's planned
rewrites keep: ``DeepMVIConfig()``, ``ImputationService.fit/submit/gather``,
``Gateway.submit``, ``StreamingService.open_stream/push/step``,
``ClusterRouter.put_model/submit/gather`` and ``ModelRef``.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import multiprocessing
import os
import shutil
import sqlite3
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

import numpy as np

from repro.api import ImputationService
from repro.api.refs import ModelRef
from repro.api.requests import ImputeRequest
from repro.cluster import ClusterRouter
from repro.core.config import DeepMVIConfig
from repro.data.datasets import load_dataset
from repro.data.missing import MissingScenario, apply_scenario
from repro.data.tensor import TimeSeriesTensor
from repro.exceptions import ServiceError
from repro.gateway import Gateway
from repro.streaming import StreamingService
from repro.streaming.windows import StreamWindow

from measure import (Stopwatch, directory_bytes, filesystem_of,
                     process_cpu_seconds, process_peak_rss_mb)

#: requests outstanding at once: two default gateway batches
IN_FLIGHT = 32
TRAIN_STEPS = 300
PANEL_STEPS = 1000
SPAN_STEPS = 300
WINDOW_STEPS = 48
STREAMS = 4
WINDOWS_PER_STREAM = 8
#: of a cluster-airq round's 32 requests, resends of the previous round's
CLUSTER_RESENDS = 4
#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: fixed, seed-determined verification requests served before timing
#: (they double as the warm-up and are what ``nrmse`` scores)
VERIFY_REQUESTS = 64
#: where a tier that writes files (the cluster store) keeps them: inside
#: the checkout the benchmark runs from, removed when the tier closes
WORKDIR = Path(".perfbench_work")
#: gap masks drawn per request generator before anything is timed; a
#: request pairs one with a start step, and no pair repeats
MASKS = 512
VERIFY_MASKS = 128

SCENARIO = MissingScenario("mcar", {"incomplete_fraction": 0.5,
                                    "block_size": 4})


# ---------------------------------------------------------------------- #
# requests and their scoring
# ---------------------------------------------------------------------- #
@dataclass
class Request:
    """One generated request plus what the workload knows about it."""

    rid: str
    tensor: TimeSeriesTensor
    truth: np.ndarray
    missing: np.ndarray            # bool, cells hidden in ``tensor``


@dataclass
class Ledger:
    """Answers received, latencies, and the correctness verdict."""

    #: kept answers (the verification requests')
    answers: Dict[str, np.ndarray] = field(default_factory=dict)
    #: ids answered so far, to catch a second answer
    seen: Set[str] = field(default_factory=set)
    #: per-request latencies (seconds) of the current phase
    latencies: List[float] = field(default_factory=list)
    #: the tail's samples: the slowest latency of each group of requests
    #: that completed together (a gateway batch, a round)
    tail_samples: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    violations: List[str] = field(default_factory=list)

    def restart_latencies(self) -> None:
        self.latencies, self.tail_samples = [], []

    def violation(self, message: str) -> None:
        if len(self.violations) < 20:
            self.violations.append(message)
        else:
            self.violations[-1] = f"... and more ({message})"

    def accept(self, request: Request, answer_id: str,
               completed: Optional[TimeSeriesTensor],
               keep: bool = False) -> None:
        """Check one answer: own id, once, observed cells unchanged.

        ``keep`` retains the answer's values for scoring.
        """
        if completed is None:
            self.failed += 1
            self.violation(f"{request.rid}: no answer")
            return
        if answer_id != request.rid:
            self.violation(f"{request.rid}: answered under id {answer_id}")
        values = completed.values
        observed = ~request.missing
        if not np.array_equal(values[observed],
                              request.tensor.values[observed]):
            self.violation(f"{request.rid}: observed cells changed")
        if not np.isfinite(values[request.missing]).all():
            self.violation(f"{request.rid}: missing cells left unfilled")
        if request.rid in self.seen:
            self.violation(f"{request.rid}: answered twice")
        self.seen.add(request.rid)
        if keep:
            self.answers[request.rid] = values

    def nrmse(self, requests: List[Request]) -> float:
        """RMSE over the requests' missing cells / std of their truth."""
        errors, truths = [], []
        for request in requests:
            answer = self.answers.get(request.rid)
            if answer is None:
                continue
            missing = request.missing
            errors.append(answer[missing] - request.truth[missing])
            truths.append(request.truth[missing])
        error = np.concatenate(errors)
        truth = np.concatenate(truths)
        return float(np.sqrt(np.mean(error ** 2)) / np.std(truth))


class RequestMaker:
    """Seed-determined request generator that never repeats content.

    The costly random part, the gap masks, is drawn when the maker is
    made, before anything is timed: ``masks`` distinct masks of ``steps``
    steps.  A request pairs a start step (>= the training range)
    with one of them, and no pair repeats, so no two requests carry the
    same values and gaps.  :meth:`make` only slices the panel.  Fewer than
    half the pairs may be used; a program fast enough to get there fails
    the run rather than getting repeats or a shortened phase.
    """

    def __init__(self, panel: TimeSeriesTensor, seed: int, tag: str,
                 steps: int, masks: Optional[int] = None) -> None:
        digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
        self.rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        self.panel = panel
        self.steps = steps
        template = panel.slice_time(TRAIN_STEPS, TRAIN_STEPS + steps)
        drawn: Dict[bytes, np.ndarray] = {}
        while len(drawn) < (masks or MASKS):
            mask = SCENARIO.generate(
                template, seed=int(self.rng.integers(0, 2 ** 63 - 1)))
            mask = mask.astype(bool)
            drawn.setdefault(mask.tobytes(), mask)
        self.masks = list(drawn.values())
        self.starts = PANEL_STEPS - steps + 1 - TRAIN_STEPS
        self.seen: Set[tuple] = set()
        self.tag = tag

    def make(self) -> Request:
        if 2 * len(self.seen) >= self.starts * len(self.masks):
            raise RuntimeError(f"{self.tag}: request space used up; the "
                               "benchmark needs more masks")
        while True:
            key = (TRAIN_STEPS + int(self.rng.integers(self.starts)),
                   int(self.rng.integers(len(self.masks))))
            if key not in self.seen:
                break
        self.seen.add(key)
        start, mask = key[0], self.masks[key[1]]
        span = self.panel.slice_time(start, start + self.steps)
        return Request(rid=f"{self.tag}-{len(self.seen):07d}",
                       tensor=span.with_missing(mask), truth=span.values,
                       missing=mask)

    def stream(self) -> Iterator[Request]:
        while True:
            yield self.make()


# ---------------------------------------------------------------------- #
# shared set-up
# ---------------------------------------------------------------------- #
@dataclass
class Fitted:
    panel: TimeSeriesTensor
    train: TimeSeriesTensor
    train_missing: np.ndarray
    service: ImputationService
    ref: ModelRef
    model_id: str


def fit_model(seed: int, config: Optional[DeepMVIConfig] = None) -> Fitted:
    """Generate the panel and fit DeepMVI on its first 300 steps."""
    panel = load_dataset("airq", seed=seed)
    train = panel.slice_time(0, TRAIN_STEPS)
    incomplete, missing = apply_scenario(train, SCENARIO, seed=seed)
    service = ImputationService()
    model_id = service.fit(incomplete, method="deepmvi",
                           config=config or DeepMVIConfig())
    return Fitted(panel=panel, train=incomplete,
                  train_missing=missing.astype(bool), service=service,
                  ref=ModelRef.latest(model_id), model_id=model_id)


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #
class Workload:
    """One traffic mix: bring its tier up, then drive it closed-loop."""

    name = ""
    #: what one sample of ``Ledger.tail_samples`` is
    tail_unit = "completions"

    def __init__(self, seed: int, config: Optional[DeepMVIConfig] = None,
                 workdir: Path = WORKDIR) -> None:
        self.seed = seed
        self.config = config
        #: where a tier that writes files keeps them
        self.workdir = Path(workdir)
        self.fitted: Optional[Fitted] = None
        self.ledger = Ledger()
        self.verify_requests: List[Request] = []
        #: submissions in the verification phase (resends included)
        self.verify_submits = 0
        #: timed-phase facts: requests completed, wall and CPU seconds
        self.completed = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.notes: Dict[str, object] = {}

    # -- lifecycle ------------------------------------------------------ #
    def setup(self) -> None:
        """Fit the model and bring the tier up (the timed set-up)."""
        self.fitted = fit_model(self.seed, self.config)
        self.start_tier()

    def start_tier(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # -- phases --------------------------------------------------------- #
    def verify(self) -> None:
        """Serve the fixed verification set (also the warm-up)."""
        raise NotImplementedError

    def reference(self) -> None:
        """Check the verification answers against a reference, if any."""

    def run_timed(self, seconds: float) -> None:
        raise NotImplementedError

    def nrmse(self) -> float:
        return self.ledger.nrmse(self.verify_requests)

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the processes serving the workload."""
        return process_peak_rss_mb()

    def facts(self) -> Dict[str, float]:
        return {
            "verify_requests": self.verify_submits
            or len(self.verify_requests),
            "verify_missing": int(sum(request.missing.sum()
                                      for request in self.verify_requests)),
            "timed_completed": self.completed,
            "timed_wall": self.wall,
            "timed_cpu": self.cpu,
        }


class FreshAirq(Workload):
    """Unseen 300-step spans through :class:`Gateway` (default config).

    Every cell misses the fast-path tables, so the fused forward does
    nearly all the work.
    """

    name = "fresh-airq"

    def start_tier(self) -> None:
        self.gateway = Gateway(self.fitted.service)

    def close(self) -> None:
        if hasattr(self, "gateway"):
            self.gateway.close()

    def drive(self, requests: Iterator[Request],
              seconds: Optional[float] = None, keep: bool = False) -> int:
        """Keep ``IN_FLIGHT`` requests outstanding; returns completions.

        Without ``seconds`` the iterator is drained; with it, submissions
        stop once ``seconds`` have elapsed and the loop drains what is in
        flight.  A request is timed from the generator's submit call to the
        generator holding its result.
        """
        ledger = self.ledger
        inflight: deque = deque()
        deadline = None if seconds is None \
            else time.perf_counter() + seconds
        done = 0

        def submit_next() -> None:
            request = next(requests, None)
            if request is None:
                return
            ledger.attempted += 1
            submitted = time.perf_counter()
            future = self.gateway.submit(ImputeRequest(
                model_id=self.fitted.ref, data=request.tensor,
                request_id=request.rid))
            inflight.append((request, future, submitted))

        for _ in range(IN_FLIGHT):
            submit_next()
        # requests the generator receives without waiting in between
        # completed together (one gateway batch): one tail sample
        together: List[float] = []
        while inflight:
            request, future, submitted = inflight.popleft()
            if together and not future.done():
                ledger.tail_samples.append(max(together))
                together = []
            try:
                result = future.result(timeout=120.0)
            except Exception as error:  # a failed request counts, not aborts
                ledger.failed += 1
                ledger.violation(f"{request.rid}: {type(error).__name__}: "
                                 f"{str(error)[-200:]}")
                continue
            now = time.perf_counter()
            ledger.latencies.append(now - submitted)
            together.append(now - submitted)
            ledger.accept(request, result.request_id, result.completed, keep)
            done += 1
            if deadline is None or now < deadline:
                submit_next()
        if together:
            ledger.tail_samples.append(max(together))
        return done

    def verify(self) -> None:
        maker = RequestMaker(self.fitted.panel, self.seed, "verify",
                             SPAN_STEPS, VERIFY_MASKS)
        self.verify_requests = [maker.make() for _ in range(VERIFY_REQUESTS)]
        self.drive(iter(self.verify_requests), keep=True)

    def run_timed(self, seconds: float) -> None:
        maker = RequestMaker(self.fitted.panel, self.seed, "fresh",
                             SPAN_STEPS)
        self.ledger.restart_latencies()
        watch = Stopwatch()
        self.completed = self.drive(maker.stream(), seconds)
        watch.stop()
        self.wall, self.cpu = watch.wall, watch.cpu


class RoundWorkload(Workload):
    """A closed loop in rounds: make a round, serve it, repeat.

    Only the serving of each round is timed (wall and CPU), so making the
    next round never counts against the program.  The slowest request of
    ``ROUNDS_PER_SAMPLE`` consecutive rounds is one tail sample.
    """

    tail_unit = "rounds"
    ROUNDS_PER_SAMPLE = 1

    def make_round(self, maker: RequestMaker) -> List[Request]:
        raise NotImplementedError

    def serve_round(self, batch: List[Request], keep: bool) -> int:
        """Serve one round; returns its completions."""
        raise NotImplementedError

    def rounds(self, maker: RequestMaker, count: Optional[int] = None,
               seconds: Optional[float] = None,
               keep: bool = False) -> List[List[Request]]:
        """Serve ``count`` rounds, or rounds for ``seconds`` of serving.

        Counted rounds (the verification set) are returned; timed rounds
        only record the completions, wall and CPU of their serving.
        """
        latencies = self.ledger.latencies
        samples = self.ledger.tail_samples
        served_rounds = []
        wall = cpu = 0.0
        completed = served = 0
        block = len(latencies)
        while (count is None or served < count) \
                and (seconds is None or wall < seconds):
            batch = self.make_round(maker)
            watch = Stopwatch()
            completed += self.serve_round(batch, keep)
            watch.stop()
            wall += watch.wall
            cpu += watch.cpu
            served += 1
            if served % self.ROUNDS_PER_SAMPLE == 0 \
                    and len(latencies) > block:
                samples.append(max(latencies[block:]))
                block = len(latencies)
            if count is not None:
                served_rounds.append(batch)
        if len(latencies) > block:
            samples.append(max(latencies[block:]))
        if seconds is not None:
            self.completed, self.wall, self.cpu = completed, wall, cpu
        return served_rounds


class StreamAirq(RoundWorkload):
    """Four warm-started streams, 8 fresh 48-step windows each per step.

    Each step is a round: the generator pushes the round's 32 windows and
    calls ``step``.
    """

    name = "stream-airq"
    #: A step takes 13-25 ms, and the host slows for stretches of tens of
    #: steps at a time, so neighbouring steps are not independent samples:
    #: with steps as samples, one such stretch could stand for the p99.
    #: Eight steps (0.1-0.2 s) are about as long as a fresh-airq gateway
    #: batch or a cluster-airq gather.
    ROUNDS_PER_SAMPLE = 8
    tail_unit = "blocks of 8 steps"

    def start_tier(self) -> None:
        self.streaming = StreamingService(service=self.fitted.service)
        self.stream_ids = [f"airq-{index}" for index in range(STREAMS)]
        for stream_id in self.stream_ids:
            self.streaming.open_stream(stream_id, warm_start=self.fitted.ref,
                                       refit_every=0)
        self.windows = itertools.count(1)

    def close(self) -> None:
        for stream_id in getattr(self, "stream_ids", ()):
            self.streaming.close_stream(stream_id)

    def make_round(self, maker: RequestMaker) -> List[Request]:
        return [maker.make() for _ in range(STREAMS * WINDOWS_PER_STREAM)]

    def serve_round(self, batch: List[Request], keep: bool) -> int:
        ledger = self.ledger
        pending: Dict[tuple, tuple] = {}
        for position, request in enumerate(batch):
            stream_id = self.stream_ids[position // WINDOWS_PER_STREAM]
            index = next(self.windows)
            ledger.attempted += 1
            pending[(stream_id, index)] = (request, time.perf_counter())
            self.streaming.push(stream_id, StreamWindow(
                index=index, start=0, stop=WINDOW_STEPS,
                tensor=request.tensor))
        results = self.streaming.step(max_windows=WINDOWS_PER_STREAM)
        now = time.perf_counter()
        served = 0
        for result in results:
            entry = pending.pop((result.stream_id, result.window_index), None)
            if entry is None:
                ledger.violation(f"window {result.stream_id}/"
                                 f"{result.window_index} answered twice or "
                                 "never pushed")
                continue
            request, pushed = entry
            if not result.ok:
                ledger.failed += 1
                ledger.violation(f"{request.rid}: {str(result.error)[-200:]}")
                continue
            served += 1
            ledger.latencies.append(now - pushed)
            ledger.accept(request, request.rid, result.completed, keep)
        for request, _ in pending.values():
            ledger.failed += 1
            ledger.violation(f"{request.rid}: window never answered")
        return served

    def verify(self) -> None:
        maker = RequestMaker(self.fitted.panel, self.seed, "verify",
                             WINDOW_STEPS, VERIFY_MASKS)
        rounds = self.rounds(maker, keep=True,
                             count=VERIFY_REQUESTS // IN_FLIGHT)
        self.verify_requests = [request for batch in rounds
                                for request in batch]

    def run_timed(self, seconds: float) -> None:
        maker = RequestMaker(self.fitted.panel, self.seed, "stream",
                             WINDOW_STEPS)
        self.ledger.restart_latencies()
        self.rounds(maker, seconds=seconds)


@contextlib.contextmanager
def sqlite_without_fsync() -> Iterator[None]:
    """SQLite connections opened meanwhile skip fsync (``synchronous=OFF``).

    The cluster store commits twice per request, and on a disk shared with
    other tenants each commit's fsyncs wait on them: in runs of seeds 1-4
    interleaved with and without fsync, throughput read 83-123 req/s
    with it and 132-145 req/s without.  A store on tmpfs would skip the wait
    the same way, but the benchmark writes only inside its checkout.
    Every byte is still written, and counted.  A process forked meanwhile
    (the shard) keeps the setting for the connections it opens at start.
    """
    connect = sqlite3.connect

    def connect_without_fsync(*args, **kwargs):
        connection = connect(*args, **kwargs)
        connection.execute("PRAGMA synchronous=OFF")
        return connection

    sqlite3.connect = connect_without_fsync
    try:
        yield
    finally:
        sqlite3.connect = connect


@dataclass
class Sent:
    """What a cluster answer has to match when its id is resent."""

    request: Request
    digest: bytes
    latency_seconds: float


def _digest(values: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(values).tobytes(),
                           digest_size=16).digest()


class ClusterAirq(RoundWorkload):
    """The fitted model on one shard process behind ``ClusterRouter``.

    Each round is 32 ``submit`` calls and one ``gather``: 28 fresh 48-step
    windows and 4 resends of ids the previous round answered (the first
    round, with no previous one, is 32 fresh windows).  A resend must come
    back from the shard's result ledger: the very values and
    ``latency_seconds`` of its first answer, and no new ledger row.  The
    shard's durable store lives in the benchmark's work directory inside
    the checkout, without fsync (see :func:`sqlite_without_fsync`).
    """

    name = "cluster-airq"
    #: verification rounds (96 submissions, 88 of them fresh)
    VERIFY_ROUNDS = 3

    def start_tier(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.directory = self.workdir / f"cluster-{os.getpid()}-{id(self):x}"
        known = {child.pid for child in multiprocessing.active_children()}
        with sqlite_without_fsync():
            self.router = ClusterRouter(self.directory, shards=1)
        self.shard_pid = next(child.pid for child
                              in multiprocessing.active_children()
                              if child.pid not in known)
        fitted = self.fitted
        self.router.put_model(fitted.model_id,
                              fitted.service.store.get(fitted.model_id),
                              method="deepmvi")
        self.previous: Dict[str, Sent] = {}
        self.fresh_answered = 0
        self.store_bytes = 0
        self.verify_rounds: List[List[Request]] = []
        self.notes["store_filesystem"] = filesystem_of(self.directory)
        self.notes["store_fsync"] = False

    def close(self) -> None:
        router = getattr(self, "router", None)
        if router is None:
            return
        router.close()
        self.router = None
        shutil.rmtree(self.directory, ignore_errors=True)

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb() + process_peak_rss_mb(self.shard_pid)

    def ledger_rows(self) -> int:
        """Rows in the shard's result ledger, read from its SQLite file."""
        path = self.directory / "shard-0" / "store.db"
        with sqlite3.connect(f"file:{path}?mode=ro", uri=True) as con:
            return int(con.execute("SELECT COUNT(*) FROM results")
                       .fetchone()[0])

    def check_ledger(self) -> None:
        rows = self.ledger_rows()
        if rows != self.fresh_answered:
            self.ledger.violation(f"shard ledger holds {rows} results for "
                                  f"{self.fresh_answered} fresh requests")

    def make_round(self, maker: RequestMaker) -> List[Request]:
        resends = [sent.request for sent in self.previous.values()]
        if resends:
            picks = maker.rng.choice(len(resends),
                                     min(CLUSTER_RESENDS, len(resends)),
                                     replace=False)
            resends = [resends[index] for index in sorted(picks)]
        fresh = [maker.make() for _ in range(IN_FLIGHT - len(resends))]
        # a resend after every seventh fresh window
        batch = []
        for position, request in enumerate(fresh):
            batch.append(request)
            if position % 7 == 6 and resends:
                batch.append(resends.pop(0))
        return batch + resends

    def serve_round(self, batch: List[Request], keep: bool) -> int:
        ledger = self.ledger
        router = self.router
        resent = {request.rid: self.previous[request.rid]
                  for request in batch if request.rid in self.previous}
        submitted: Dict[str, float] = {}
        for request in batch:
            ledger.attempted += 1
            submitted[request.rid] = time.perf_counter()
            router.submit(ImputeRequest(model_id=self.fitted.ref,
                                        data=request.tensor,
                                        request_id=request.rid))
        try:
            results = router.gather()
        except ServiceError as error:
            results = list(getattr(error, "partial_results", []))
            ledger.violation(f"gather failed: {str(error)[-200:]}")
        now = time.perf_counter()
        by_rid = {request.rid: request for request in batch}
        answered: Dict[str, Sent] = {}
        served = 0
        for result in results:
            rid = result.request_id
            if rid not in submitted:
                ledger.violation(f"{rid}: answered twice or never sent")
                continue
            latency = now - submitted.pop(rid)
            ledger.latencies.append(latency)
            served += 1
            values = result.completed.values
            if rid in resent:
                first = resent[rid]
                if _digest(values) != first.digest \
                        or result.latency_seconds != first.latency_seconds:
                    ledger.violation(f"{rid}: resend not answered from the "
                                     "ledger")
                continue
            ledger.accept(by_rid[rid], rid, result.completed, keep)
            answered[rid] = Sent(by_rid[rid], _digest(values),
                                 result.latency_seconds)
        for rid in submitted:
            ledger.failed += 1
            ledger.violation(f"{rid}: never answered")
        self.fresh_answered += len(answered)
        self.previous = answered
        return served

    def verify(self) -> None:
        maker = RequestMaker(self.fitted.panel, self.seed, "verify",
                             WINDOW_STEPS, VERIFY_MASKS)
        rounds = self.rounds(maker, keep=True, count=self.VERIFY_ROUNDS)
        self.verify_submits = sum(len(batch) for batch in rounds)
        # each round's fresh windows, in submission order
        seen: Set[str] = set()
        self.verify_rounds = []
        for batch in rounds:
            fresh = [request for request in batch if request.rid not in seen]
            seen.update(request.rid for request in fresh)
            self.verify_rounds.append(fresh)
        self.verify_requests = [request for fresh in self.verify_rounds
                                for request in fresh]
        self.check_ledger()

    def reference(self) -> None:
        """Serve each verification round's fresh windows in-process.

        The answers must equal the shard's bit for bit: the same weights
        through the same fused batch.
        """
        service = self.fitted.service
        for fresh in self.verify_rounds:
            for request in fresh:
                service.submit(ImputeRequest(model_id=self.fitted.ref,
                                             data=request.tensor,
                                             request_id=request.rid))
            for result in service.gather():
                if not np.array_equal(result.completed.values,
                                      self.ledger.answers[result.request_id]):
                    self.ledger.violation(
                        f"{result.request_id}: cluster answer differs from "
                        "in-process serving")

    def run_timed(self, seconds: float) -> None:
        maker = RequestMaker(self.fitted.panel, self.seed, "cluster",
                             WINDOW_STEPS)
        self.ledger.restart_latencies()
        shard_cpu = process_cpu_seconds(self.shard_pid)
        stored = directory_bytes(self.directory)
        self.rounds(maker, seconds=seconds)
        self.cpu += process_cpu_seconds(self.shard_pid) - shard_cpu
        self.store_bytes = directory_bytes(self.directory) - stored
        self.check_ledger()

    def facts(self) -> Dict[str, float]:
        return {**super().facts(),
                "verify_resends": self.verify_submits
                - len(self.verify_requests),
                "store_bytes": self.store_bytes}


WORKLOADS = {cls.name: cls for cls in (FreshAirq, StreamAirq, ClusterAirq)}
