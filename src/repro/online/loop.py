"""The closed control loop: drift → refit → shadow → promote/rollback.

:class:`OnlineLoop` wraps a :class:`~repro.streaming.StreamingService`
and closes the quality loop over its watched streams:

1. every served window is *probed* — a few observed cells are hidden and
   re-imputed by the serving (``@latest``) model, scored with NRMSE
   (:mod:`repro.online.drift`);
2. a broken budget emits a :class:`~repro.online.drift.DriftEvent`,
   which triggers a warm-start :meth:`~repro.api.ImputationService.refit`
   on the loop's own history of the stream — producing the lineage's
   next *version*, stored alongside the serving one;
3. the new version shadow-serves a slice of the probe traffic; its
   scores are recorded, never returned;
4. the :class:`~repro.online.canary.CanaryController` promotes it once
   it meets the SLO — ``@latest`` flips, the stream's floating ref picks
   the new version up on its next window — or rolls it back; a promotion
   that regresses within its probation window is rolled back too.

The primary serving path is untouched: the loop only *adds* probe/shadow
traffic, so an undrifted stream's results are bit-identical with or
without a watcher, and unwatched streams never even pay the probe cost.

Typical wiring::

    svc = StreamingService(store_dir="models/")
    model = svc.service.fit(history, method="fitted-mean", model_id="plant")
    svc.open_stream("plant", warm_start=api.ModelRef.latest(model),
                    refit_every=0)
    loop = OnlineLoop(svc, drift=DriftConfig(nrmse_budget=0.4))
    loop.watch("plant")
    for window in stream:
        loop.push("plant", window)
        reports = loop.step()
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api.refs import ModelRef
from repro.api.requests import ImputeRequest
from repro.api.telemetry import MetricsSnapshot
from repro.evaluation.metrics import nrmse
from repro.exceptions import ServiceError
from repro.obs import trace as obs_trace
from repro.online.canary import CanaryConfig, CanaryController, CanaryDecision
from repro.online.drift import DriftConfig, DriftDetector, DriftEvent
from repro.streaming.service import StreamingService
from repro.streaming.windows import HistoryBuffer, StreamWindow

__all__ = ["OnlineLoop", "OnlineReport"]


@dataclass
class OnlineReport:
    """What the control loop did about one watched stream's window."""

    stream_id: str
    window_index: int
    #: serving model's NRMSE on this window's probe (None: no probe)
    primary_score: Optional[float] = None
    #: candidate's NRMSE on the same probe (None: no shadow this window)
    candidate_score: Optional[float] = None
    drift: Optional[DriftEvent] = None
    #: new version registered by a drift-triggered refit
    refit: Optional[ModelRef] = None
    decision: Optional[CanaryDecision] = None

    @property
    def promoted(self) -> bool:
        return self.decision is not None and self.decision.action == "promote"

    @property
    def rolled_back(self) -> bool:
        return self.decision is not None and \
            self.decision.action == "rollback"


@dataclass
class _WatchState:
    """Loop-side bookkeeping for one watched stream."""

    stream_id: str
    base_id: str
    detector: DriftDetector
    #: the loop's own refit history — independent of the streaming
    #: service's buffer, which warm-start ``refit_every=0`` streams never
    #: populate
    history: HistoryBuffer
    #: raw windows pushed but not yet reconciled with a step result
    windows: Dict[int, StreamWindow] = field(default_factory=dict)


class OnlineLoop:
    """Drift-triggered refits and canary rollout over a streaming service.

    Parameters
    ----------
    streaming:
        The serving tier to close the loop over.  Watched streams should
        be warm-started (``open_stream(warm_start=..., refit_every=0)``)
        so the *loop* owns the retrain cadence; the streaming service's
        own periodic refits would race the canary protocol.
    drift / canary:
        Default detector and rollout configs for :meth:`watch`.
    """

    def __init__(self, streaming: StreamingService,
                 drift: Optional[DriftConfig] = None,
                 canary: Optional[CanaryConfig] = None) -> None:
        self.streaming = streaming
        self.service = streaming.service
        self.drift_config = drift or DriftConfig()
        self.canary = CanaryController(
            self.service.versions, canary or CanaryConfig(),
            store=self.service.store)
        self._watched: Dict[str, _WatchState] = {}
        self.reports: List[OnlineReport] = []
        # loop-level counters surfaced by snapshot()
        self._probes = 0
        self._shadows = 0
        self._drift_events = 0
        self._refits = 0
        self._promotions = 0
        self._rollbacks = 0

    # -- wiring ----------------------------------------------------------- #
    def watch(self, stream_id: str,
              drift: Optional[DriftConfig] = None) -> DriftDetector:
        """Attach a drift detector to an open, warm-started stream."""
        state = self.streaming._state(stream_id)
        if state.model_id is None:
            raise ServiceError(
                f"stream {stream_id!r} has no model yet; open it with "
                "warm_start=<fitted model ref> so the loop has a lineage "
                "to version")
        if state.refit_every:
            raise ServiceError(
                f"stream {stream_id!r} has refit_every="
                f"{state.refit_every}; the streaming service's periodic "
                "refits would race the canary protocol — open the stream "
                "with refit_every=0 and let the loop trigger refits")
        base_id = ModelRef.parse(state.model_id).model_id
        self.service.versions.track(base_id)
        detector = DriftDetector(stream_id, drift or self.drift_config)
        self._watched[stream_id] = _WatchState(
            stream_id=stream_id, base_id=base_id, detector=detector,
            history=HistoryBuffer(
                max_history=self.streaming.default_max_history))
        return detector

    def unwatch(self, stream_id: str) -> None:
        self._watched.pop(stream_id, None)

    def watched(self) -> List[str]:
        return sorted(self._watched)

    # -- serving ---------------------------------------------------------- #
    def push(self, stream_id: str, window: StreamWindow) -> None:
        """Queue ``window``; watched streams also bank it for refits."""
        watch = self._watched.get(stream_id)
        if watch is not None:
            watch.windows[window.index] = window
            watch.history.absorb(window)
        self.streaming.push(stream_id, window)

    def step(self, max_windows: int = 1) -> List[OnlineReport]:
        """Serve one streaming step, then run the control loop on it.

        The streaming step itself is exactly
        :meth:`StreamingService.step` — same fusing, same error
        isolation, same results — the loop's work (probe, shadow, canary
        verdicts, drift-triggered refits) happens strictly after the
        primary traffic resolves.  Returns one :class:`OnlineReport` per
        watched-stream window served this step.
        """
        results = self.streaming.step(max_windows=max_windows)
        reports: List[OnlineReport] = []
        for result in results:
            watch = self._watched.get(result.stream_id)
            if watch is None:
                continue
            window = watch.windows.pop(result.window_index, None)
            report = OnlineReport(stream_id=result.stream_id,
                                  window_index=result.window_index)
            reports.append(report)
            self.reports.append(report)
            if not result.ok or window is None:
                continue
            self.canary.note_window(watch.base_id)
            self._control(watch, window, report)
        return reports

    # -- the loop body ---------------------------------------------------- #
    def _control(self, watch: _WatchState, window: StreamWindow,
                 report: OnlineReport) -> None:
        probe = watch.detector.make_probe(window)
        if probe is None:
            return  # too sparse to score (e.g. an all-missing window)
        probe_tensor, hidden = probe
        base = watch.base_id
        report.primary_score = self._probe_score(
            ModelRef.latest(base), probe_tensor, hidden, window)
        self._probes += 1

        candidate = self.canary.active(base)
        if candidate is not None:
            if self.canary.should_shadow(base):
                report.candidate_score = self._probe_score(
                    candidate, probe_tensor, hidden, window, shadow=True)
                self._shadows += 1
                self.canary.record(base, report.candidate_score,
                                   report.primary_score)
            report.decision = self.canary.evaluate(base)
            self._settle(watch, report)
            # While a candidate is in flight the detector stays quiet: the
            # canary protocol is already acting on the drift that staged it.
            return

        event = watch.detector.observe(window.index, report.primary_score)
        if event is None:
            return
        report.drift = event
        self._drift_events += 1
        decision = self.canary.handle_drift(base, event.rolling_mean)
        if decision is not None:
            # A fresh promotion regressed: the rollback already rerouted
            # @latest; no refit — the demoted-to version was healthy.
            report.decision = decision
            self._settle(watch, report)
            return
        history = watch.history.tensor()
        if history is None:
            return
        new_ref = self.service.refit(base, history, reason=event.describe())
        self.canary.begin(new_ref)
        report.refit = new_ref
        self._refits += 1

    def _settle(self, watch: _WatchState, report: OnlineReport) -> None:
        """Apply a canary verdict's loop-side effects."""
        if report.decision is None:
            return
        if report.promoted:
            self._promotions += 1
        else:
            self._rollbacks += 1
        # Either way @latest moved (or the candidate died): the rolling
        # scores measured the old regime.
        watch.detector.reset()

    def _probe_score(self, ref: ModelRef, probe_tensor, hidden,
                     window: StreamWindow, shadow: bool = False) -> float:
        """Serve the probe with ``ref`` and score the hidden cells."""
        ctx = obs_trace.start_trace()
        request = ImputeRequest(model_id=ref, data=probe_tensor, trace=ctx)
        start = time.perf_counter()
        result = self.service.impute(request)
        if ctx is not None:
            obs_trace.write_span(
                "online.shadow" if shadow else "online.probe", ctx,
                start, time.perf_counter(),
                attrs={"window": window.index, "model_id": str(ref)})
        return nrmse(result.completed, window.tensor, mask=hidden)

    # -- introspection ---------------------------------------------------- #
    def snapshot(self) -> MetricsSnapshot:
        """The streaming tier's snapshot, extended with loop counters."""
        base = self.streaming.stats()
        extras = dict(base.extras)
        extras.update({
            "watched_streams": len(self._watched),
            "probes": self._probes,
            "shadows": self._shadows,
            "drift_events": self._drift_events,
            "loop_refits": self._refits,
            "promotions": self._promotions,
            "rollbacks": self._rollbacks,
            "active_canaries": len(
                [s for s in self._watched.values()
                 if self.canary.active(s.base_id) is not None]),
        })
        return dataclasses.replace(base, source="online", extras=extras)

    def describe(self) -> Dict[str, object]:
        return {
            "watched": {
                sid: {
                    "base_id": watch.base_id,
                    "windows_observed": watch.detector.windows_observed,
                    "probes": watch.detector.probes_made,
                    "events": len(watch.detector.events),
                    "history_steps": watch.history.steps,
                }
                for sid, watch in sorted(self._watched.items())},
            "canary": self.canary.describe(),
            "versions": self.service.versions.describe(),
        }
