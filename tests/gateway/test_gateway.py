"""Integration tests of the serving gateway.

Covers the edge cases the subsystem exists for: admission control
(queue-full rejection and blocking backpressure), deadline expiry while
queued, starvation-free priority lanes, mixed-structure traffic, and the
per-request failure isolation of the fused/fallback serving path.
"""

import threading
import time

import numpy as np
import pytest

from repro.api import ImputationService, ImputeRequest
from repro.baselines.base import BaseImputer
from repro.baselines.registry import ImputerRegistry, MethodInfo
from repro.baselines.simple import MeanImputer
from repro.core.config import DeepMVIConfig
from repro.data.missing import MissingScenario, apply_scenario
from repro.exceptions import (
    DeadlineExceededError,
    QueueFullError,
    ServiceError,
    ValidationError,
)
from repro.gateway import Gateway, GatewayConfig

SCENARIO = MissingScenario("mcar", {"incomplete_fraction": 0.5,
                                    "block_size": 4})
TINY_CONFIG = DeepMVIConfig(max_epochs=2, samples_per_epoch=32, patience=1,
                            batch_size=8, n_filters=4, max_context_windows=8)


class _SlowImputer(BaseImputer):
    """Mean-like imputer whose impute sleeps — a controllable traffic jam."""

    name = "slow"

    def __init__(self, delay: float = 0.05):
        self.delay = delay

    def impute(self, tensor=None):
        time.sleep(self.delay)
        if tensor is None:
            tensor = self._fitted_tensor
        return MeanImputer().fit(tensor).impute(tensor)


class _FusePoisonImputer(BaseImputer):
    """Fused pass explodes when any tensor is named "poison"; the
    per-request path only fails for that tensor — exercises the gateway's
    fallback isolation."""

    name = "fusepoison"

    def impute_many(self, tensors):
        if any(t is not None and t.name == "poison" for t in tensors):
            raise RuntimeError("poisoned fused batch")
        return [self.impute(t) for t in tensors]

    def impute(self, tensor=None):
        if tensor is None:
            tensor = self._fitted_tensor
        if tensor.name == "poison":
            raise RuntimeError("poisoned request")
        return MeanImputer().fit(tensor).impute(tensor)


@pytest.fixture
def registry():
    registry = ImputerRegistry()
    registry.register(MethodInfo("mean", MeanImputer, tags=("simple",)))
    registry.register(MethodInfo("slow", _SlowImputer))
    registry.register(MethodInfo("fusepoison", _FusePoisonImputer))
    return registry


@pytest.fixture
def incomplete(small_panel):
    incomplete, _ = apply_scenario(small_panel, SCENARIO, seed=0)
    return incomplete


@pytest.fixture
def mean_service(registry, incomplete):
    service = ImputationService(registry=registry)
    model_id = service.fit(incomplete, method="mean")
    return service, model_id


def _windows(incomplete, count, width=24, stride=7):
    span = incomplete.n_time - width
    return [incomplete.slice_time((i * stride) % span,
                                  (i * stride) % span + width)
            for i in range(count)]


class TestServingCorrectness:
    def test_caller_request_ids_are_preserved(self, mean_service,
                                              incomplete):
        service, model_id = mean_service
        with Gateway(service) as gateway:
            future = gateway.submit(ImputeRequest(
                model_id=model_id, data=incomplete, request_id="mine-1"))
            assert future.result(timeout=10.0).request_id == "mine-1"
            # Duplicate caller ids are fine: correlation is internal.
            futures = [gateway.submit(ImputeRequest(
                model_id=model_id, data=incomplete, request_id="dup"))
                for _ in range(2)]
            assert [f.result(10.0).request_id for f in futures] == \
                ["dup", "dup"]

    def test_sync_impute_convenience(self, mean_service, incomplete):
        service, model_id = mean_service
        with Gateway(service) as gateway:
            result = gateway.impute(incomplete, model_id=model_id,
                                    timeout=10.0)
        assert result.completed.missing_fraction == 0.0

    def test_unknown_model_and_bad_priority_fail_at_the_front_door(
            self, mean_service, incomplete):
        service, model_id = mean_service
        with Gateway(service) as gateway:
            with pytest.raises(ServiceError):
                gateway.submit(incomplete, model_id="nope")
            with pytest.raises(ValidationError):
                gateway.submit(incomplete, model_id=model_id,
                               priority="express")


class TestAdmissionControl:
    def test_queue_full_rejection(self, mean_service, incomplete):
        service, model_id = mean_service
        gateway = Gateway(service, GatewayConfig(max_queue_depth=3,
                                                 admission="reject"),
                          start=False)
        for _ in range(3):
            gateway.submit(incomplete, model_id=model_id)
        with pytest.raises(QueueFullError):
            gateway.submit(incomplete, model_id=model_id)
        assert gateway.stats()["rejected"] == 1
        gateway.close(drain=False)

    def test_block_admission_applies_backpressure(self, registry,
                                                  incomplete):
        service = ImputationService(registry=registry)
        model_id = service.fit(incomplete, method="slow", delay=0.02)
        gateway = Gateway(service, GatewayConfig(
            max_queue_depth=2, admission="block", max_batch_size=1,
            max_wait_ms=0.0))
        futures = [gateway.submit(incomplete, model_id=model_id,
                                  timeout=10.0) for _ in range(5)]
        for future in futures:
            assert future.result(timeout=10.0).completed is not None
        gateway.close()

    def test_sync_impute_timeout_bounds_the_wait_for_queue_space(
            self, mean_service, incomplete):
        service, model_id = mean_service
        gateway = Gateway(service, GatewayConfig(max_queue_depth=1,
                                                 admission="block"),
                          start=False)
        gateway.submit(incomplete, model_id=model_id)
        raised = []

        def call():
            try:
                gateway.impute(incomplete, model_id=model_id, timeout=0.2)
            except Exception as error:
                raised.append(error)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=2.0)
        blocked = caller.is_alive()
        gateway.close(drain=False)      # releases a still-blocked caller
        caller.join(timeout=2.0)
        assert not blocked, "impute(timeout=0.2) still blocked after 2 s"
        assert len(raised) == 1 and isinstance(raised[0], QueueFullError)
        assert gateway.stats()["rejected"] == 1

    def test_closed_gateway_fails_unserved_requests(self, mean_service,
                                                    incomplete):
        service, model_id = mean_service
        gateway = Gateway(service, start=False)
        future = gateway.submit(incomplete, model_id=model_id)
        gateway.close(drain=False)
        with pytest.raises(ServiceError):
            future.result(timeout=1.0)
        with pytest.raises(ServiceError):
            gateway.submit(incomplete, model_id=model_id)
        # Telemetry stays honest: the abandoned request is a failure, not
        # forever "in flight".
        stats = gateway.stats()
        assert stats["failed"] == 1 and stats["in_flight"] == 0


class TestDeadlines:
    def test_deadline_expires_mid_queue(self, mean_service, incomplete):
        service, model_id = mean_service
        gateway = Gateway(service, start=False)
        doomed = gateway.submit(incomplete, model_id=model_id,
                                deadline_ms=10.0)
        healthy = gateway.submit(incomplete, model_id=model_id)
        time.sleep(0.05)                      # deadline passes while queued
        gateway.start()
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=10.0)
        assert healthy.result(timeout=10.0).completed is not None
        assert gateway.stats()["expired"] == 1
        gateway.close()

    def test_default_deadline_from_config(self, mean_service, incomplete):
        service, model_id = mean_service
        gateway = Gateway(service, GatewayConfig(default_deadline_ms=10.0),
                          start=False)
        doomed = gateway.submit(incomplete, model_id=model_id)
        time.sleep(0.05)
        gateway.start()
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=10.0)
        gateway.close()

    def test_invalid_deadline_rejected(self, mean_service, incomplete):
        service, model_id = mean_service
        with Gateway(service) as gateway:
            with pytest.raises(ValidationError):
                gateway.submit(incomplete, model_id=model_id,
                               deadline_ms=0.0)


class TestPriorityLanes:
    def test_batch_lane_completes_under_interactive_flood(self, registry,
                                                          incomplete):
        service = ImputationService(registry=registry)
        model_id = service.fit(incomplete, method="slow", delay=0.004)
        gateway = Gateway(service, GatewayConfig(
            max_batch_size=1, max_wait_ms=0.0, interactive_burst=2,
            max_queue_depth=4096))
        stop_flood = threading.Event()

        def flood():
            while not stop_flood.is_set():
                try:
                    gateway.submit(incomplete, model_id=model_id,
                                   priority="interactive")
                except ServiceError:
                    time.sleep(0.001)

        flooder = threading.Thread(target=flood)
        flooder.start()
        try:
            time.sleep(0.02)                  # flood is established
            batch_future = gateway.submit(incomplete, model_id=model_id,
                                          priority="batch")
            # The batch request must complete while the flood continues —
            # starvation freedom is the burst bound in the scheduler.
            result = batch_future.result(timeout=10.0)
            assert result.completed is not None
        finally:
            stop_flood.set()
            flooder.join(timeout=5.0)
            gateway.close(drain=False)


class TestMixedStructureTraffic:
    def test_mixed_shapes_are_split_into_fusable_groups(self, small_panel):
        incomplete, _ = apply_scenario(small_panel, SCENARIO, seed=0)
        service = ImputationService()
        model_id = service.fit(incomplete, method="deepmvi",
                               config=TINY_CONFIG)
        short = _windows(incomplete, 3, width=24)
        long = _windows(incomplete, 3, width=40)
        direct = [service.impute(w, model_id=model_id)
                  for w in short + long]
        with Gateway(service, GatewayConfig(max_batch_size=8,
                                            max_wait_ms=20.0)) as gateway:
            futures = gateway.submit_many(short + long, model_id=model_id)
            served = [future.result(timeout=30.0) for future in futures]
            stats = gateway.stats()
        for one, many in zip(direct, served):
            np.testing.assert_array_equal(one.completed.values,
                                          many.completed.values)
        # Two incompatible shapes → at least two serving batches, and the
        # same-shape requests still fused.
        assert stats["batches"] >= 2
        assert any(result.fused for result in served)

    def test_poisoned_fused_batch_falls_back_per_request(self, registry,
                                                         incomplete):
        service = ImputationService(registry=registry)
        model_id = service.fit(incomplete, method="fusepoison")
        healthy = [w for w in _windows(incomplete, 2)]
        poison = healthy[0].copy()
        poison.name = "poison"
        with Gateway(service, GatewayConfig(max_batch_size=8,
                                            max_wait_ms=50.0),
                     start=False) as gateway:
            futures = gateway.submit_many([healthy[0], poison, healthy[1]],
                                          model_id=model_id)
            gateway.start()
            good_a = futures[0].result(timeout=10.0)
            good_b = futures[2].result(timeout=10.0)
            with pytest.raises(ServiceError):
                futures[1].result(timeout=10.0)
        # The healthy siblings of the poisoned batch still completed, via
        # the per-request fallback (not fused).
        assert good_a.completed is not None and good_b.completed is not None
        assert not good_a.fused and not good_b.fused
        assert gateway.stats()["failed"] == 1


class TestStatsAndCache:
    def test_stats_shape(self, mean_service, incomplete):
        service, model_id = mean_service
        with Gateway(service) as gateway:
            futures = gateway.submit_many(_windows(incomplete, 5),
                                          model_id=model_id)
            for future in futures:
                future.result(timeout=10.0)
            stats = gateway.stats()
        assert stats["submitted"] == 5 and stats["completed"] == 5
        assert stats["qps"] > 0
        assert 0 <= stats["latency_p50_seconds"] <= \
            stats["latency_p99_seconds"]
        assert stats["model_cache"]["hit_rate"] > 0
        description = gateway.describe()
        assert description["config"]["max_batch_size"] == 16
        assert not description["running"]

    def test_gateway_builds_its_own_service_with_bounded_cache(
            self, tmp_path, incomplete):
        gateway = Gateway(store_dir=str(tmp_path), max_cached_models=2,
                          start=False)
        model_id = gateway.service.fit(incomplete, method="mean")
        assert gateway.service.store.cache_stats()["maxsize"] == 2
        gateway.start()
        assert gateway.impute(incomplete, model_id=model_id,
                              timeout=10.0).completed is not None
        gateway.close()

    def test_config_and_overrides_are_exclusive(self):
        with pytest.raises(ValidationError):
            Gateway(config=GatewayConfig(), max_batch_size=4, start=False)
        with pytest.raises(ValidationError):
            GatewayConfig(max_batch_size=0).validate()
        with pytest.raises(ValidationError):
            GatewayConfig(workers=0).validate()
