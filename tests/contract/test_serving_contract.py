"""One serving contract, held by every tier.

The same requests go through five tiers, one test body each:

* ``ImputationService.submit`` / ``gather``;
* a ``Gateway`` over that service;
* ``ClusterRouter.submit`` / ``gather``;
* a ``Gateway`` over a ``ClusterRouter``;
* ``StreamingService.step``, one warm-started stream per request.

Each tier serves a fitted DeepMVI model (``DeepMVIConfig.fast()``) and a
mean imputer.  Every tier must:

* answer every request once, under its caller's id, in submit order, with
  the very bytes the fitted imputer's in-process ``impute`` returns;
* fail a poisoned request alone — a DeepMVI request with more series than
  the model was fitted on raises ``IndexError`` in whatever process serves
  it — while its siblings still answer bit-identically;
* refuse an unknown model at the front door, leaving nothing queued.

Serving is row-stable (a cell's answer does not depend on which cells
share its fused call), so bit-identity holds whatever a tier's batching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np
import pytest

from repro.api import ImputationService, ImputeRequest
from repro.baselines.simple import MeanImputer
from repro.cluster import ClusterRouter
from repro.core.config import DeepMVIConfig
from repro.core.imputer import DeepMVIImputer
from repro.data.datasets import load_dataset
from repro.data.dimensions import Dimension
from repro.data.tensor import TimeSeriesTensor
from repro.exceptions import ServiceError
from repro.gateway import Gateway, GatewayConfig
from repro.streaming import StreamingService
from repro.streaming.windows import StreamWindow

#: (caller id, completed tensor, latency seconds) per answer, in the order
#: the tier returned them; caller id -> error text per failure
Answers = List[Tuple[str, TimeSeriesTensor, float]]
Errors = Dict[str, str]

WINDOW = 40
GATEWAY_CONFIG = GatewayConfig(max_batch_size=16, max_wait_ms=5.0)


@dataclass
class Fitted:
    #: model name -> (model id, fitted imputer)
    models: Dict[str, Tuple[str, object]]
    #: request tensors: a copy of the fitted data (DeepMVI answers every
    #: cell from its fast-path tables), then windows of it, one shifted
    #: by 1.0 (forward misses)
    windows: List[TimeSeriesTensor]
    #: request ids unique across the module: the router's ledger answers a
    #: repeated id from its first answer
    request_ids: Iterator[int] = field(default_factory=itertools.count)


@pytest.fixture(scope="module")
def fitted() -> Fitted:
    panel = load_dataset("airq", size="tiny", seed=7, length=120, shape=(8,))
    rng = np.random.default_rng(0)
    incomplete = panel.with_missing(rng.random(panel.values.shape) < 0.1)
    deepmvi = DeepMVIImputer(config=DeepMVIConfig.fast()).fit(incomplete)
    mean = MeanImputer().fit(incomplete)
    shifted = incomplete.slice_time(20, 20 + WINDOW)
    windows = [incomplete.copy(), incomplete.slice_time(0, WINDOW),
               TimeSeriesTensor(values=shifted.values + 1.0,
                                dimensions=shifted.dimensions,
                                mask=shifted.mask, name="shifted"),
               incomplete.slice_time(60, 60 + WINDOW)]
    return Fitted(models={"deepmvi": ("contract-deepmvi", deepmvi),
                          "mean": ("contract-mean", mean)},
                  windows=windows)


def _service(fitted: Fitted) -> ImputationService:
    service = ImputationService()
    for method, (model_id, imputer) in fitted.models.items():
        service.store.put(model_id, imputer, method=method)
    return service


@pytest.fixture(scope="module")
def router(fitted, tmp_path_factory):
    router = ClusterRouter(tmp_path_factory.mktemp("cluster"), shards=2)
    for method, (model_id, imputer) in fitted.models.items():
        router.put_model(model_id, imputer, method=method)
    yield router
    router.close()


# ---------------------------------------------------------------------- #
# the tiers: serve a list of requests, refuse one at the front door
# ---------------------------------------------------------------------- #
def _answers(results) -> Answers:
    """Answers from served results, each marked as batch-served."""
    assert all(result.from_batch for result in results)
    return [(result.request_id, result.completed, result.latency_seconds)
            for result in results]


class QueueTier:
    """``submit`` every request, then one ``gather`` (service or router)."""

    def __init__(self, front) -> None:
        self.front = front

    def serve(self, requests: List[ImputeRequest]) -> Tuple[Answers, Errors]:
        tickets = [self.front.submit(request) for request in requests]
        assert tickets == [request.request_id for request in requests]
        results = self.front.gather(raise_on_error=False)
        return _answers(results), dict(self.front.last_errors)

    def submit(self, request: ImputeRequest) -> None:
        self.front.submit(request)


class GatewayTier:
    """A gateway over ``front``; it starts once the first sweep is queued,
    so that sweep's same-shaped requests share one batch."""

    def __init__(self, front) -> None:
        self.gateway = Gateway(front, GATEWAY_CONFIG, start=False)

    def serve(self, requests: List[ImputeRequest]) -> Tuple[Answers, Errors]:
        futures = self.gateway.submit_many(requests)
        self.gateway.start()
        results = []
        errors: Errors = {}
        for future in futures:
            try:
                results.append(future.result(timeout=60.0))
            except ServiceError as error:
                errors[future.request_id] = str(error)
        return _answers(results), errors

    def submit(self, request: ImputeRequest) -> None:
        self.gateway.submit(request)

    def close(self) -> None:
        self.gateway.close()


class StreamingTier:
    """One stream per request, warm-started on its model; one ``step``."""

    def __init__(self, service: ImputationService) -> None:
        self.streaming = StreamingService(service=service)

    def serve(self, requests: List[ImputeRequest]) -> Tuple[Answers, Errors]:
        for request in requests:
            self.streaming.open_stream(request.request_id,
                                       warm_start=request.model_id,
                                       refit_every=0)
            self.streaming.push(request.request_id, StreamWindow(
                index=0, start=0, stop=request.data.n_time,
                tensor=request.data))
        results = self.streaming.step()
        assert [result.window_index for result in results] == \
            [0] * len(requests)
        return ([(result.stream_id, result.completed, result.latency_seconds)
                 for result in results if result.ok],
                {result.stream_id: result.error
                 for result in results if not result.ok})

    def submit(self, request: ImputeRequest) -> None:
        self.streaming.open_stream(request.request_id,
                                   warm_start=request.model_id)


TIERS = ("service", "gateway", "router", "gateway-router", "streaming")


def _tier(name: str, fitted: Fitted, request):
    if name == "service":
        return QueueTier(_service(fitted))
    if name == "gateway":
        return GatewayTier(_service(fitted))
    if name == "router":
        return QueueTier(request.getfixturevalue("router"))
    if name == "gateway-router":
        return GatewayTier(request.getfixturevalue("router"))
    return StreamingTier(_service(fitted))


@pytest.fixture(params=TIERS)
def tier(request, fitted):
    tier = _tier(request.param, fitted, request)
    yield tier
    close = getattr(tier, "close", None)
    if close is not None:
        close()


# ---------------------------------------------------------------------- #
# the contract
# ---------------------------------------------------------------------- #
def _requests(fitted: Fitted, model_id: str,
              tensors) -> List[ImputeRequest]:
    return [ImputeRequest(model_id=model_id, data=tensor,
                          request_id=f"c{next(fitted.request_ids):06d}")
            for tensor in tensors]


def _poison(window: TimeSeriesTensor) -> TimeSeriesTensor:
    """``window`` plus one series the model was never fitted on."""
    values = np.vstack([window.values, window.values[:1]])
    dimension = window.dimensions[0]
    return TimeSeriesTensor(
        values=values,
        dimensions=[Dimension.categorical(dimension.name, values.shape[0])],
        name="poison")


def _assert_answered(answers: Answers, requests, imputer) -> None:
    """Each request answered once, in order, under its caller's id, with
    the bytes of an in-process ``impute`` and a positive latency."""
    assert [caller_id for caller_id, _, _ in answers] == \
        [request.request_id for request in requests]
    for (_, completed, latency), request in zip(answers, requests):
        np.testing.assert_array_equal(completed.values,
                                      imputer.impute(request.data).values)
        assert latency > 0


@pytest.mark.parametrize("model", ("deepmvi", "mean"))
def test_every_request_answered_once_bit_identically(tier, fitted, model):
    model_id, imputer = fitted.models[model]
    requests = _requests(fitted, model_id, fitted.windows)
    answers, errors = tier.serve(requests)
    assert errors == {}
    _assert_answered(answers, requests, imputer)


def test_poisoned_request_fails_alone(tier, fitted):
    model_id, imputer = fitted.models["deepmvi"]
    requests = _requests(fitted, model_id,
                         fitted.windows[:2] + [_poison(fitted.windows[0])]
                         + fitted.windows[2:])
    poisoned = requests[2]
    answers, errors = tier.serve(requests)
    assert list(errors) == [poisoned.request_id]
    assert "IndexError" in errors[poisoned.request_id]
    _assert_answered(answers, [request for request in requests
                               if request is not poisoned], imputer)


def test_unknown_model_refused_at_the_front_door(tier, fitted):
    (stray,) = _requests(fitted, "no-such-model", fitted.windows[:1])
    with pytest.raises(ServiceError):
        tier.submit(stray)
    # nothing was queued: the next sweep answers only its own request
    model_id, imputer = fitted.models["mean"]
    requests = _requests(fitted, model_id, fitted.windows[:1])
    answers, errors = tier.serve(requests)
    assert errors == {}
    _assert_answered(answers, requests, imputer)
