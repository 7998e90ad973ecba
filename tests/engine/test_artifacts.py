"""Artifact round-trips and the imputer serialisation protocol."""

import numpy as np
import pytest

from repro.baselines.simple import MeanImputer
from repro.baselines.svd import SVDImputer
from repro.core.config import DeepMVIConfig
from repro.core.imputer import DeepMVIImputer
from repro.data.missing import MissingScenario, apply_scenario
from repro.engine.artifacts import load_imputer, save_imputer
from repro.exceptions import NotFittedError


@pytest.fixture
def incomplete(small_panel):
    scenario = MissingScenario("mcar", {"incomplete_fraction": 0.5,
                                        "block_size": 5})
    tensor, _ = apply_scenario(small_panel, scenario, seed=3)
    return tensor


class TestBaseProtocol:
    def test_get_set_state_round_trip(self, incomplete):
        imputer = SVDImputer(rank=2).fit(incomplete)
        restored = SVDImputer.__new__(SVDImputer)
        restored.set_state(imputer.get_state())
        np.testing.assert_array_equal(restored.impute().values,
                                      imputer.impute().values)

    def test_state_is_a_deep_copy(self, incomplete):
        imputer = MeanImputer().fit(incomplete)
        state = imputer.get_state()
        state["_fitted_tensor"].values[:] = 0.0
        assert np.nanmax(np.abs(imputer._fitted_tensor.values)) > 0

    def test_clone_is_unfitted_with_same_config(self, incomplete):
        imputer = SVDImputer(rank=2).fit(incomplete)
        clone = imputer.clone()
        assert clone.rank == 2
        with pytest.raises(NotFittedError):
            clone.impute()


class TestMatrixArtifacts:
    def test_fitted_svd_round_trip(self, incomplete, tmp_path):
        imputer = SVDImputer(rank=2).fit(incomplete)
        save_imputer(imputer, tmp_path / "svd")
        restored = load_imputer(tmp_path / "svd")
        assert isinstance(restored, SVDImputer)
        np.testing.assert_array_equal(restored.impute().values,
                                      imputer.impute().values)

    def test_unfitted_imputer_round_trip(self, tmp_path):
        save_imputer(SVDImputer(rank=4), tmp_path / "svd")
        assert load_imputer(tmp_path / "svd").rank == 4


class TestDeepMVIArtifacts:
    @pytest.fixture(scope="class")
    def fitted(self):
        # Same panel as the function-scoped ``small_panel`` fixture, built
        # here directly so one training run serves the whole class.
        from repro.data.datasets import load_dataset
        panel = load_dataset("airq", size="tiny", seed=7, length=120, shape=(8,))
        scenario = MissingScenario("mcar", {"incomplete_fraction": 0.5,
                                            "block_size": 5})
        tensor, _ = apply_scenario(panel, scenario, seed=3)
        imputer = DeepMVIImputer(config=DeepMVIConfig.fast())
        imputer.fit(tensor)
        return imputer, tensor

    def test_state_dict_survives_save_load(self, fitted, tmp_path):
        imputer, _ = fitted
        save_imputer(imputer, tmp_path / "deepmvi")
        restored = load_imputer(tmp_path / "deepmvi")
        original_state = imputer.model.state_dict()
        restored_state = restored.model.state_dict()
        assert original_state.keys() == restored_state.keys()
        for key in original_state:
            np.testing.assert_array_equal(original_state[key],
                                          restored_state[key])
        assert restored.config == imputer.config

    def test_imputations_identical_after_reload(self, fitted, tmp_path):
        imputer, _ = fitted
        save_imputer(imputer, tmp_path / "deepmvi")
        restored = load_imputer(tmp_path / "deepmvi")
        np.testing.assert_array_equal(restored.impute().values,
                                      imputer.impute().values)

    def test_state_with_log_variance_loads_and_serves_identically(self, fitted):
        """States saved while the network still had its untrained
        ``log_variance`` parameter load without it."""
        imputer, _ = fitted
        state = imputer.get_state()
        state["model"]["state_dict"]["log_variance"] = np.zeros((1,))
        restored = DeepMVIImputer(config=DeepMVIConfig.fast()).set_state(state)
        assert "log_variance" not in restored.model.state_dict()
        np.testing.assert_array_equal(restored.impute().values,
                                      imputer.impute().values)

    def test_train_once_impute_many(self, fitted, small_panel, tmp_path):
        """A model fitted on one scenario imputes other scenarios of the
        same dataset after a save/load round trip."""
        imputer, _ = fitted
        save_imputer(imputer, tmp_path / "deepmvi")
        restored = load_imputer(tmp_path / "deepmvi")
        blackout, _ = apply_scenario(
            small_panel, MissingScenario("blackout", {"block_size": 5}), seed=1)
        np.testing.assert_array_equal(restored.impute(blackout).values,
                                      imputer.impute(blackout).values)

    def test_impute_other_tensor_keeps_fitted_state(self, fitted, small_panel):
        """Satellite fix: imputing a second tensor must not corrupt the
        fitted context for subsequent no-argument impute() calls."""
        imputer, fitted_tensor = fitted
        baseline = imputer.impute().values.copy()
        blackout, _ = apply_scenario(
            small_panel, MissingScenario("blackout", {"block_size": 5}), seed=1)
        imputer.impute(blackout)
        assert imputer._fitted_tensor is fitted_tensor
        np.testing.assert_array_equal(imputer.impute().values, baseline)

    def test_clone_resets_model_and_context(self, fitted):
        imputer, _ = fitted
        clone = imputer.clone()
        assert clone.model is None and clone.context is None
        assert clone.history is None and clone._fitted_tensor is None
        assert clone.config == imputer.config
        with pytest.raises(NotFittedError):
            clone.impute()


class TestArtifactErrors:
    def test_unsupported_state_raises_type_error(self, tmp_path):
        class Weird(MeanImputer):
            pass

        weird = Weird()
        weird.gadget = object()
        with pytest.raises(TypeError, match="cannot serialise"):
            save_imputer(weird, tmp_path / "weird")

    def test_unknown_format_rejected(self, incomplete, tmp_path):
        save_imputer(MeanImputer().fit(incomplete), tmp_path / "m")
        manifest = tmp_path / "m" / "manifest.json"
        manifest.write_text(manifest.read_text().replace(
            '"format": 1', '"format": 99'))
        with pytest.raises(ValueError, match="unsupported artifact format"):
            load_imputer(tmp_path / "m")


class TestNetworkBaselineClone:
    def test_clone_of_fitted_network_baseline_is_unfitted(self, incomplete):
        """Regression: clone() must clear trained networks and cached
        matrices, not just _fitted_tensor."""
        from repro.baselines.brits import BRITSImputer

        imputer = BRITSImputer(hidden_dim=4, crop_length=8, n_epochs=1)
        imputer.fit(incomplete)
        clone = imputer.clone()
        assert clone.network is None and clone._matrix is None
        with pytest.raises(NotFittedError):
            clone.impute()
        # ...but it can be fitted from scratch like a fresh instance.
        assert clone.fit_impute(incomplete).mask.all()
