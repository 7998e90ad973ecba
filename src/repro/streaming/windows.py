"""Sliding-window view of an unbounded time-series stream.

The streaming layer never sees a whole dataset at once: data arrives tick by
tick and is imputed window by window.  :class:`StreamWindow` is one such
chunk — a small :class:`~repro.data.tensor.TimeSeriesTensor` slice annotated
with its absolute time span — and :class:`WindowedStream` produces them,
either by replaying a recorded tensor (benchmarks, backtests) or by
buffering a live iterator of per-tick arrays (serving).

Windows may overlap: with ``stride < window_size`` each new window re-reads
the tail of the previous one, which gives incremental refits warm context
at the cost of re-imputing the overlap.  :class:`HistoryBuffer` is the
de-duplicating accumulator the streaming service (per-stream refits) and
the online loop (drift-triggered refits) use to grow a *bounded* training
history out of (possibly overlapping) windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.data.dimensions import Dimension
from repro.data.tensor import TimeSeriesTensor
from repro.exceptions import ValidationError

__all__ = ["HistoryBuffer", "StreamWindow", "WindowedStream"]


@dataclass
class StreamWindow:
    """One chunk of a stream: a tensor slice plus its absolute time span.

    Parameters
    ----------
    index:
        0-based position of the window in its stream.
    start, stop:
        Absolute time span ``[start, stop)`` the window covers.
    tensor:
        The windowed data; missing cells (sensor dropouts) are marked in
        its mask exactly as in a full dataset tensor.
    last:
        True for the final window of a finite stream.
    """

    index: int
    start: int
    stop: int
    tensor: TimeSeriesTensor
    last: bool = False

    @property
    def size(self) -> int:
        """Number of time steps in the window."""
        return self.stop - self.start

    def __repr__(self) -> str:
        return (f"StreamWindow(index={self.index}, span=[{self.start}, "
                f"{self.stop}), missing={self.tensor.missing_fraction:.1%})")


def _window_starts(n_time: int, window_size: int, stride: int) -> List[int]:
    """Start offsets covering ``[0, n_time)`` with a final catch-up window.

    The tail is never silently dropped: when the last strided start does not
    reach the end of the data, one extra window ending exactly at ``n_time``
    is appended (it overlaps its predecessor more than ``stride`` would).
    """
    starts = list(range(0, n_time - window_size + 1, stride))
    if not starts:
        starts = [0]
    if starts[-1] + window_size < n_time:
        starts.append(n_time - window_size)
    return starts


class WindowedStream:
    """An iterable of :class:`StreamWindow` chunks.

    Build one with :meth:`from_tensor` (replay a recorded dataset; the
    stream is re-iterable) or :meth:`from_ticks` (buffer a live feed of
    per-tick arrays; one-shot, the ticks are consumed as windows are
    drawn).
    """

    def __init__(self, factory: Callable[[], Iterator[StreamWindow]],
                 window_size: int, stride: int, name: str = "stream",
                 n_windows: Optional[int] = None) -> None:
        self._factory = factory
        self.window_size = window_size
        self.stride = stride
        self.name = name
        #: number of windows, when the stream is finite and known in advance
        self.n_windows = n_windows

    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_geometry(window_size: int, stride: Optional[int]) -> int:
        if window_size < 1:
            raise ValidationError(f"window_size must be >= 1, got {window_size}")
        stride = max(1, window_size // 2) if stride is None else stride
        if stride < 1:
            raise ValidationError(f"stride must be >= 1, got {stride}")
        if stride > window_size:
            # Gapped windows would leave time steps no window ever covers,
            # and a refit history stitched from them would treat the gap
            # edges as adjacent steps.
            raise ValidationError(
                f"stride {stride} must not exceed window_size {window_size} "
                "(windows must tile or overlap the timeline)")
        return stride

    @classmethod
    def from_tensor(cls, tensor: TimeSeriesTensor, window_size: int,
                    stride: Optional[int] = None) -> "WindowedStream":
        """Replay ``tensor`` as overlapping sliding windows.

        ``stride`` defaults to ``window_size // 2`` (50% overlap); a window
        larger than the tensor degrades to a single whole-tensor window.
        The final window always ends at the last time step, so no tail data
        is lost to stride arithmetic.
        """
        stride = cls._check_geometry(window_size, stride)
        window_size = min(window_size, tensor.n_time)
        starts = _window_starts(tensor.n_time, window_size, stride)

        def factory() -> Iterator[StreamWindow]:
            for index, start in enumerate(starts):
                stop = start + window_size
                yield StreamWindow(
                    index=index, start=start, stop=stop,
                    tensor=tensor.slice_time(start, stop),
                    last=index == len(starts) - 1,
                )

        return cls(factory, window_size, stride, name=tensor.name,
                   n_windows=len(starts))

    @classmethod
    def from_ticks(cls, ticks: Iterable, dimensions: Sequence[Dimension],
                   window_size: int, stride: Optional[int] = None,
                   name: str = "stream") -> "WindowedStream":
        """Chunk a live feed of per-tick arrays into sliding windows.

        Each tick is one time step shaped like the member dimensions (a
        scalar for a dimensionless stream, ``(n_series,)`` for one
        categorical dimension, ...); non-finite entries are the missing
        cells.  A bounded buffer of the last ``window_size`` ticks is kept;
        a window is emitted every ``stride`` ticks once the buffer fills.
        As with :meth:`from_tensor`, a finite feed never loses its tail: a
        final catch-up window covers any trailing ticks the stride missed
        (a feed shorter than ``window_size`` yields one whole-feed window),
        and the final window carries ``last=True``.  The stream is one-shot
        — iterating consumes the ticks.
        """
        stride = cls._check_geometry(window_size, stride)
        dimensions = list(dimensions)

        def factory() -> Iterator[StreamWindow]:
            def make_window(index: int, size: int, seen: int) -> StreamWindow:
                values = np.stack(buffer[-size:], axis=-1)
                return StreamWindow(
                    index=index, start=seen - size, stop=seen,
                    tensor=TimeSeriesTensor(values=values,
                                            dimensions=list(dimensions),
                                            name=name))

            buffer: List[np.ndarray] = []
            seen = 0
            index = 0
            # One window of lookahead so the final one can carry last=True.
            pending: Optional[StreamWindow] = None
            for tick in ticks:
                buffer.append(np.asarray(tick, dtype=np.float64))
                seen += 1
                if len(buffer) > window_size:
                    buffer.pop(0)
                if seen >= window_size and (seen - window_size) % stride == 0:
                    if pending is not None:
                        yield pending
                    pending = make_window(index, window_size, seen)
                    index += 1
            if seen and (pending is None or pending.stop < seen):
                # Catch-up window over the tail the stride arithmetic missed.
                if pending is not None:
                    yield pending
                pending = make_window(index, min(window_size, seen), seen)
            if pending is not None:
                pending.last = True
                yield pending

        return cls(factory, window_size, stride, name=name)

    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[StreamWindow]:
        return self._factory()

    def __repr__(self) -> str:
        count = "?" if self.n_windows is None else str(self.n_windows)
        return (f"WindowedStream(name={self.name!r}, window={self.window_size}, "
                f"stride={self.stride}, windows={count})")


class HistoryBuffer:
    """Bounded, overlap-deduplicating accumulator of stream windows.

    Feeding overlapping windows into a naive concatenation would duplicate
    the overlap and skew any model refit on the history; the buffer tracks
    the absolute time span it has absorbed and appends only the genuinely
    new suffix of each window.  ``max_history`` bounds the kept time steps
    (oldest dropped first) so incremental refits stay cheap no matter how
    long the stream runs.
    """

    def __init__(self, max_history: Optional[int] = 512) -> None:
        if max_history is not None and max_history < 1:
            raise ValidationError(
                f"max_history must be >= 1 or None, got {max_history}")
        self.max_history = max_history
        self._tensor: Optional[TimeSeriesTensor] = None
        self._stop = 0          # absolute stop of the absorbed span
        self.windows_absorbed = 0

    # ------------------------------------------------------------------ #
    @property
    def steps(self) -> int:
        """Time steps currently held."""
        return 0 if self._tensor is None else self._tensor.n_time

    def tensor(self) -> Optional[TimeSeriesTensor]:
        """The accumulated history tensor (``None`` before the first absorb)."""
        return self._tensor

    def absorb(self, window: StreamWindow) -> None:
        """Fold ``window`` into the history, skipping already-seen steps.

        A window that starts *beyond* the absorbed span (a gap — e.g. a
        feed that dropped ticks) restarts the history from that window:
        concatenating across the gap would make the gap edges look like
        adjacent time steps to any model refit on the history.
        """
        if self._tensor is not None and window.start > self._stop:
            self._tensor = None
        fresh_from = max(0, self._stop - window.start) \
            if self._tensor is not None else 0
        if fresh_from >= window.size:
            return  # the window is entirely inside the absorbed span
        fresh = window.tensor if fresh_from == 0 else \
            window.tensor.slice_time(fresh_from, window.size)
        if self._tensor is None:
            values, mask = fresh.values, fresh.mask
        else:
            values = np.concatenate([self._tensor.values, fresh.values], axis=-1)
            mask = np.concatenate([self._tensor.mask, fresh.mask], axis=-1)
        if self.max_history is not None and values.shape[-1] > self.max_history:
            values = values[..., -self.max_history:]
            mask = mask[..., -self.max_history:]
        self._tensor = TimeSeriesTensor(
            values=values, dimensions=list(fresh.dimensions),
            mask=mask, name=fresh.name)
        self._stop = max(self._stop, window.stop)
        self.windows_absorbed += 1

    def __repr__(self) -> str:
        return (f"HistoryBuffer(steps={self.steps}, "
                f"windows={self.windows_absorbed}, max={self.max_history})")
