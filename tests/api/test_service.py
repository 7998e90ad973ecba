"""Tests of the ImputationService: fit once, serve many."""

import numpy as np
import pytest

from repro import api
from repro.api import service as service_module
from repro.baselines.registry import ImputerRegistry, MethodInfo
from repro.baselines.simple import MeanImputer
from repro.core.config import DeepMVIConfig
from repro.data.missing import MissingScenario, apply_scenario
from repro.evaluation.metrics import mae
from repro.exceptions import ServiceError, ValidationError


class CountingMeanImputer(MeanImputer):
    """Mean imputer that records how many times fit() trained."""

    fit_calls = 0

    def fit(self, tensor):
        type(self).fit_calls += 1
        return super().fit(tensor)


class BrokenImputer(MeanImputer):
    """Fits fine, explodes at serve time."""

    def impute(self, tensor=None):
        raise RuntimeError("boom at serve time")


@pytest.fixture
def counting_registry():
    CountingMeanImputer.fit_calls = 0
    registry = ImputerRegistry()
    registry.register(MethodInfo("counting-mean", CountingMeanImputer))
    return registry


@pytest.fixture
def masked_panel(small_panel):
    scenario = MissingScenario("mcar", {"incomplete_fraction": 1.0,
                                        "block_size": 5})
    incomplete, missing_mask = apply_scenario(small_panel, scenario, seed=1)
    return small_panel, incomplete, missing_mask, scenario


class TestFitOnceServeMany:
    def test_one_fit_serves_many_requests(self, counting_registry, masked_panel):
        truth, incomplete, _, scenario = masked_panel
        service = api.ImputationService(registry=counting_registry)
        model_id = service.fit(incomplete, method="counting-mean")
        assert CountingMeanImputer.fit_calls == 1

        for seed in range(2, 6):
            other, _ = apply_scenario(truth, scenario, seed=seed)
            service.submit(api.ImputeRequest(model_id=model_id, data=other))
        results = service.gather()

        assert len(results) == 4
        assert CountingMeanImputer.fit_calls == 1, \
            "serving requests must not retrain the model"
        assert service.fit_counts[model_id] == 1
        for result in results:
            assert result.from_batch
            assert result.completed.missing_fraction == 0.0

    def test_gather_micro_batches_per_model(self, counting_registry,
                                            masked_panel, monkeypatch):
        _, incomplete, _, _ = masked_panel
        service = api.ImputationService(registry=counting_registry)
        model_a = service.fit(incomplete, method="counting-mean")
        model_b = service.fit(incomplete, method="counting-mean")
        for _ in range(3):
            service.submit(api.ImputeRequest(model_id=model_a))
            service.submit(api.ImputeRequest(model_id=model_b))
        batches = []
        serve = service_module.execute_serving_batch

        def spy(batch):
            batches.append((batch.model_id, len(batch.requests)))
            return serve(batch)

        monkeypatch.setattr(service_module, "execute_serving_batch", spy)
        results = service.gather()
        # 6 requests collapse to one serving batch per distinct model.
        assert len(results) == 6
        assert batches == [(model_a, 3), (model_b, 3)]

    def test_gather_returns_results_in_submit_order(self, masked_panel):
        _, incomplete, _, _ = masked_panel
        service = api.ImputationService()
        model_a = service.fit(incomplete, method="mean")
        model_b = service.fit(incomplete, method="interpolation")
        tickets = [service.submit(api.ImputeRequest(model_id=mid))
                   for mid in (model_a, model_b, model_a)]
        results = service.gather()
        assert [r.request_id for r in results] == tickets
        assert [r.model_id for r in results] == [model_a, model_b, model_a]

    def test_sync_impute_path(self, masked_panel):
        truth, incomplete, missing_mask, _ = masked_panel
        service = api.ImputationService()
        model_id = service.fit(incomplete, method="interpolation")
        result = service.impute(api.ImputeRequest(model_id=model_id))
        assert result.completed.missing_fraction == 0.0
        assert np.isfinite(mae(result.completed, truth, missing_mask))
        assert result.method == "interpolation"


class TestServiceValidation:
    def test_unknown_model_id_rejected(self, masked_panel):
        _, incomplete, _, _ = masked_panel
        service = api.ImputationService()
        with pytest.raises(ServiceError, match="unknown model"):
            service.impute(api.ImputeRequest(model_id="nope", data=incomplete))
        with pytest.raises(ServiceError, match="unknown model"):
            service.submit(api.ImputeRequest(model_id="nope"))

    def test_tensor_without_model_id_rejected(self, masked_panel):
        _, incomplete, _, _ = masked_panel
        service = api.ImputationService()
        with pytest.raises(ValidationError, match="model_id"):
            service.impute(incomplete)

    def test_fit_request_object_accepted(self, masked_panel):
        _, incomplete, _, _ = masked_panel
        service = api.ImputationService()
        model_id = service.fit(api.FitRequest(data=incomplete, method="mean",
                                              model_id="custom-id"))
        assert model_id == "custom-id"
        assert "custom-id" in service.list_models()

    def test_fit_request_with_conflicting_kwargs_rejected(self, masked_panel):
        _, incomplete, _, _ = masked_panel
        service = api.ImputationService()
        request = api.FitRequest(data=incomplete, method="mean")
        with pytest.raises(ValidationError, match="not both"):
            service.fit(request, method="cdrec")

    def test_impute_request_with_conflicting_model_id_rejected(self, masked_panel):
        _, incomplete, _, _ = masked_panel
        service = api.ImputationService()
        model_id = service.fit(incomplete, method="mean")
        with pytest.raises(ValidationError, match="conflicting model ids"):
            service.impute(api.ImputeRequest(model_id=model_id),
                           model_id="some-other-model")

    def test_duplicate_pending_request_id_rejected(self, masked_panel):
        _, incomplete, _, _ = masked_panel
        service = api.ImputationService()
        model_a = service.fit(incomplete, method="mean")
        model_b = service.fit(incomplete, method="interpolation")
        service.submit(api.ImputeRequest(model_id=model_a, request_id="x"))
        with pytest.raises(ValidationError, match="already queued"):
            service.submit(api.ImputeRequest(model_id=model_b, request_id="x"))

    def test_caller_request_object_is_never_mutated(self, masked_panel):
        _, incomplete, _, _ = masked_panel
        service = api.ImputationService()
        model_id = service.fit(incomplete, method="mean")
        request = api.ImputeRequest(model_id=model_id)

        first = service.impute(request)
        second = service.impute(request)
        assert request.request_id is None
        assert first.request_id != second.request_id

        # The same object can then be submitted repeatedly, too.
        ticket_a = service.submit(request)
        ticket_b = service.submit(request)
        assert request.request_id is None
        assert ticket_a != ticket_b
        assert len(service.gather()) == 2

    def test_auto_request_ids_skip_explicit_collisions(self, masked_panel):
        _, incomplete, _, _ = masked_panel
        service = api.ImputationService()
        model_id = service.fit(incomplete, method="mean")
        # Occupy the id the auto counter would produce next.
        service.submit(api.ImputeRequest(model_id=model_id,
                                         request_id="req-000001"))
        auto_id = service.submit(api.ImputeRequest(model_id=model_id))
        assert auto_id != "req-000001"
        results = service.gather()
        assert len(results) == 2
        assert len({r.request_id for r in results}) == 2


class TestGatherFailures:
    @pytest.fixture
    def mixed_service(self, masked_panel):
        _, incomplete, _, _ = masked_panel
        registry = ImputerRegistry()
        registry.register(MethodInfo("mean", MeanImputer))
        registry.register(MethodInfo("broken", BrokenImputer))
        service = api.ImputationService(registry=registry)
        good = service.fit(incomplete, method="mean")
        bad = service.fit(incomplete, method="broken")
        service.submit(api.ImputeRequest(model_id=good))
        service.submit(api.ImputeRequest(model_id=bad))
        service.submit(api.ImputeRequest(model_id=good))
        return service, good

    def test_failed_request_raises_with_partial_results(self, mixed_service):
        service, good = mixed_service
        with pytest.raises(ServiceError, match="failed") as excinfo:
            service.gather()
        partial = excinfo.value.partial_results
        assert [r.model_id for r in partial] == [good, good]
        assert all(r.completed.missing_fraction == 0.0 for r in partial)

    def test_failed_request_keeps_successes_when_not_raising(self, mixed_service):
        service, good = mixed_service
        results = service.gather(raise_on_error=False)
        assert [r.model_id for r in results] == [good, good]
        assert len(service.last_errors) == 1
        assert "boom at serve time" in next(iter(service.last_errors.values()))


class TestModelStore:
    def test_store_dir_survives_restart(self, masked_panel, tmp_path):
        _, incomplete, _, _ = masked_panel
        first = api.ImputationService(store_dir=str(tmp_path))
        model_id = first.fit(incomplete, method="mean")

        # A brand-new service over the same directory serves the model cold.
        second = api.ImputationService(store_dir=str(tmp_path))
        assert model_id in second.list_models()
        result = second.impute(api.ImputeRequest(model_id=model_id))
        assert result.completed.missing_fraction == 0.0

    def test_restart_never_overwrites_persisted_models(self, masked_panel,
                                                       tmp_path):
        _, incomplete, _, _ = masked_panel
        first = api.ImputationService(store_dir=str(tmp_path))
        old_id = first.fit(incomplete, method="mean")

        # A restarted service's auto-id counter must skip ids already on disk
        # instead of silently replacing another run's model.
        second = api.ImputationService(store_dir=str(tmp_path))
        new_id = second.fit(incomplete, method="mean")
        assert new_id != old_id
        assert set(second.list_models()) >= {old_id, new_id}

    def test_cold_store_reports_registry_method_name(self, masked_panel,
                                                     tmp_path):
        _, incomplete, _, _ = masked_panel
        first = api.ImputationService(store_dir=str(tmp_path))
        model_id = first.fit(incomplete, method="mean")

        cold = api.ImputationService(store_dir=str(tmp_path))
        sync = cold.impute(api.ImputeRequest(model_id=model_id))
        cold.submit(api.ImputeRequest(model_id=model_id))
        batched = cold.gather()[0]
        # Warm, cold-sync and cold-batched paths must agree on the name.
        assert sync.method == batched.method == "mean"

    def test_discard_forgets_memory_and_disk(self, masked_panel, tmp_path):
        _, incomplete, _, _ = masked_panel
        service = api.ImputationService(store_dir=str(tmp_path))
        model_id = service.fit(incomplete, method="mean")
        assert model_id in service.store

        service.store.discard(model_id)
        assert model_id not in service.store
        assert model_id not in service.list_models()
        assert not (tmp_path / model_id).exists()
        # a fresh service over the same directory cannot resurrect it
        assert model_id not in api.ImputationService(
            store_dir=str(tmp_path)).list_models()
        # discarding an unknown id is a no-op
        service.store.discard("never-existed")

    def test_gather_serves_two_models_from_artifacts(self, masked_panel,
                                                     tmp_path):
        _, incomplete, _, _ = masked_panel
        service = api.ImputationService(store_dir=str(tmp_path))
        model_a = service.fit(incomplete, method="mean")
        model_b = service.fit(incomplete, method="interpolation")
        # A fresh service over the directory serves both cold, in one sweep.
        cold = api.ImputationService(store_dir=str(tmp_path))
        cold.submit(api.ImputeRequest(model_id=model_a))
        cold.submit(api.ImputeRequest(model_id=model_b))
        results = cold.gather()
        assert [r.model_id for r in results] == [model_a, model_b]
        assert all(r.completed.missing_fraction == 0.0 for r in results)
        assert cold.last_errors == {}


class TestOneLiner:
    def test_impute_accepts_raw_arrays(self):
        values = np.arange(40, dtype=float).reshape(2, 20)
        values[0, 3:6] = np.nan
        completed = api.impute(values, method="interpolation")
        assert completed.missing_fraction == 0.0
        assert np.allclose(completed.values[0, 3:6], [3.0, 4.0, 5.0])

    def test_impute_deepmvi_end_to_end(self, masked_panel):
        truth, incomplete, missing_mask, _ = masked_panel
        completed = api.impute(incomplete, method="deepmvi",
                               config=DeepMVIConfig.fast())
        assert completed.missing_fraction == 0.0
        assert completed.shape == truth.shape
        assert np.isfinite(mae(completed, truth, missing_mask))

    def test_impute_rejects_scalars(self):
        with pytest.raises(ValidationError):
            api.impute(np.float64(3.0))

    def test_make_imputer_resolves_registry_names(self):
        assert isinstance(api.make_imputer("mean"), MeanImputer)
