"""Streaming imputation: windowed incremental serving of live feeds.

The batch stack (engine + :mod:`repro.api`) answers "impute this
snapshot"; this package answers "keep imputing while the data keeps
arriving".  It is organised as:

:mod:`repro.streaming.windows`
    :class:`StreamWindow` / :class:`WindowedStream` — chunk a recorded
    tensor or a live tick feed into overlapping sliding windows — and the
    overlap-deduplicating, bounded :class:`HistoryBuffer`.
:mod:`repro.streaming.service`
    :class:`StreamingService` — the streaming server: many concurrent
    streams over one :class:`~repro.api.ImputationService`, each either
    warm-started from a stored model or refitted on its bounded history
    every K windows, with per-step micro-batching across streams and
    per-stream failure isolation.
:mod:`repro.streaming.replay`
    :func:`replay` — feed a dataset through the serving path under a
    live-failure scenario (``drift_outage``, ``correlated_failure``,
    ``periodic_outage``, or any classic one) and score every window
    (per-window MAE, latency, windows/sec).

Streaming-capable methods are tagged in the registry::

    from repro.api import list_methods

    list_methods(tags=("streaming",))
"""

from repro.streaming.replay import ReplayReport, WindowScore, replay
from repro.streaming.service import (
    StreamingService,
    StreamState,
    StreamWindowResult,
)
from repro.streaming.windows import HistoryBuffer, StreamWindow, WindowedStream

__all__ = [
    "HistoryBuffer",
    "ReplayReport",
    "StreamState",
    "StreamWindow",
    "StreamWindowResult",
    "StreamingService",
    "WindowScore",
    "WindowedStream",
    "replay",
]
