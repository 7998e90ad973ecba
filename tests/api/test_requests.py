"""Tests of the typed request/response wire objects."""

import base64
import json

import numpy as np
import pytest

from repro.api import (
    FitRequest,
    ImputeRequest,
    ImputeResult,
    tensor_from_dict,
    tensor_to_dict,
)
from repro.baselines.registry import get_registry
from repro.baselines.simple import MeanImputer
from repro.data.dimensions import Dimension
from repro.data.tensor import TimeSeriesTensor
from repro.exceptions import ConfigError, ValidationError


class TestTensorWireFormat:
    def test_round_trip_preserves_values_mask_and_dimensions(self, tiny_tensor):
        restored = tensor_from_dict(tensor_to_dict(tiny_tensor))
        assert restored.name == tiny_tensor.name
        assert (restored.mask == tiny_tensor.mask).all()
        assert np.allclose(np.nan_to_num(restored.values),
                           np.nan_to_num(tiny_tensor.values))
        assert [d.name for d in restored.dimensions] == \
            [d.name for d in tiny_tensor.dimensions]

    def test_wire_format_is_json_serialisable(self, tiny_tensor):
        # NaNs must travel inside the encoded bytes, not leak into the
        # JSON text as bare NaN tokens.
        text = json.dumps(tensor_to_dict(tiny_tensor))
        assert "NaN" not in text
        restored = tensor_from_dict(json.loads(text))
        assert restored.shape == tiny_tensor.shape

    def test_every_float_survives_bit_for_bit(self):
        payload_nan = np.array([0x7FF8_0000_DEAD_BEEF],
                               dtype=np.uint64).view(np.float64)[0]
        subnormal = np.nextafter(0.0, 1.0) * 3
        values = np.array([[payload_nan, np.inf, -np.inf, -0.0],
                           [subnormal, 1.5, np.nan, 2.0]])
        mask = np.array([[0.0, 1.0, 1.0, 1.0],
                         [1.0, 1.0, 0.0, 1.0]])
        tensor = TimeSeriesTensor(
            values=values, dimensions=[Dimension.categorical("s", 2)],
            mask=mask)
        restored = tensor_from_dict(
            json.loads(json.dumps(tensor_to_dict(tensor))))
        np.testing.assert_array_equal(restored.values.view(np.uint64),
                                      values.view(np.uint64))
        np.testing.assert_array_equal(restored.mask, mask)
        assert restored.values.flags.writeable

    def test_mask_with_cells_not_a_multiple_of_eight(self):
        rng = np.random.default_rng(0)
        mask = (rng.random((3, 7)) < 0.6).astype(float)
        tensor = TimeSeriesTensor(
            values=rng.normal(size=(3, 7)),
            dimensions=[Dimension.categorical("s", 3)], mask=mask)
        wire = tensor_to_dict(tensor)
        assert len(base64.b64decode(wire["mask"]["bits"])) == 3  # 21 bits
        restored = tensor_from_dict(json.loads(json.dumps(wire)))
        np.testing.assert_array_equal(restored.mask, mask)

    def test_number_list_form_still_decodes(self):
        # The form older peers, journals and ledgers hold: every value a
        # JSON number, non-finite values null, the mask as floats.
        restored = tensor_from_dict({
            "name": "old",
            "values": {"shape": [2, 3], "data": [1.0, None, 3.0,
                                                 4.0, 5.0, None]},
            "mask": {"shape": [2, 3], "data": [1.0, 0.0, 1.0,
                                               1.0, 1.0, 0.0]},
            "dimensions": [{"name": "s", "kind": "categorical",
                            "members": [0, 1]}]})
        assert restored.name == "old"
        np.testing.assert_array_equal(
            restored.values, [[1.0, np.nan, 3.0], [4.0, 5.0, np.nan]])
        np.testing.assert_array_equal(restored.mask,
                                      [[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])

    @pytest.mark.parametrize("part, field, text, match", [
        ("values", "f8", base64.b64encode(bytes(8 * 59)).decode(),
         "holds 472 bytes; its shape needs 480"),
        ("mask", "bits", base64.b64encode(bytes(7)).decode(),
         "holds 7 bytes; its shape needs 8"),
        ("values", "f8", "not base64!", "not valid base64"),
    ], ids=["byte-count-off-shape", "too-few-mask-bits", "invalid-base64"])
    def test_malformed_wire_is_refused(self, tiny_tensor, part, field, text,
                                       match):
        wire = tensor_to_dict(tiny_tensor)   # 3 x 20: 480 bytes, 60 bits
        wire[part][field] = text
        with pytest.raises(ValidationError, match=match):
            tensor_from_dict(wire)


class TestFitRequest:
    def test_validates_tensor_and_method(self, tiny_tensor):
        request = FitRequest(data=tiny_tensor, method="mean")
        assert request.validate(get_registry()) is request

    def test_rejects_raw_arrays(self):
        with pytest.raises(ValidationError, match="TimeSeriesTensor"):
            FitRequest(data=np.zeros((2, 10))).validate()

    def test_unknown_method_gets_fuzzy_error(self, tiny_tensor):
        with pytest.raises(ConfigError, match="did you mean"):
            FitRequest(data=tiny_tensor, method="deepmv").validate(get_registry())

    def test_round_trip(self, tiny_tensor):
        request = FitRequest(data=tiny_tensor, method="cdrec",
                             method_kwargs={"rank": 2}, model_id="m-1")
        restored = FitRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert restored.method == "cdrec"
        assert restored.method_kwargs == {"rank": 2}
        assert restored.model_id == "m-1"
        assert restored.data.shape == tiny_tensor.shape

    def test_round_trip_with_config_dataclass(self, tiny_tensor):
        # config=DeepMVIConfig(...) is the standard deep-method kwarg and
        # must survive the JSON wire like everything else.
        from repro.core.config import DeepMVIConfig

        request = FitRequest(data=tiny_tensor, method="deepmvi",
                             method_kwargs={"config": DeepMVIConfig.fast()})
        text = json.dumps(request.to_dict())
        restored = FitRequest.from_dict(json.loads(text))
        assert isinstance(restored.method_kwargs["config"], DeepMVIConfig)
        assert restored.method_kwargs["config"] == DeepMVIConfig.fast()

    def test_wire_config_cannot_name_arbitrary_callables(self, tiny_tensor):
        # The wire is untrusted: a payload naming subprocess.run (or any
        # non-dataclass, or anything outside the repro package) must be
        # rejected before it is called.
        payload = FitRequest(data=tiny_tensor, method="mean").to_dict()
        payload["method_kwargs"] = {"x": {
            "__config__": "subprocess:run",
            "fields": {"args": ["touch", "/tmp/pwned"]}}}
        with pytest.raises(ValidationError, match="outside the repro package"):
            FitRequest.from_dict(payload)
        payload["method_kwargs"] = {"x": {
            "__config__": "repro.api.service:ImputationService",
            "fields": {}}}
        with pytest.raises(ValidationError, match="not a config dataclass"):
            FitRequest.from_dict(payload)

    def test_unserialisable_kwargs_rejected(self, tiny_tensor):
        request = FitRequest(data=tiny_tensor, method="mean",
                             method_kwargs={"callback": lambda: None})
        with pytest.raises(ValidationError, match="wire-serialisable"):
            request.to_dict()

    def test_path_traversal_model_id_rejected(self, tiny_tensor):
        with pytest.raises(ValidationError, match="path separators"):
            FitRequest(data=tiny_tensor, method="mean",
                       model_id="../evil").validate()


class TestImputeRequest:
    def test_requires_model_id(self):
        with pytest.raises(ValidationError, match="model_id"):
            ImputeRequest(model_id="").validate()

    def test_data_is_optional(self):
        assert ImputeRequest(model_id="m-1").validate().data is None

    def test_path_traversal_model_id_rejected(self):
        for bad in ("../../outside", "a/b", ".hidden", "x\\y", "evil\n"):
            with pytest.raises(ValidationError):
                ImputeRequest(model_id=bad).validate()

    def test_round_trip_without_data(self):
        restored = ImputeRequest.from_dict(
            ImputeRequest(model_id="m-1", request_id="r-9").to_dict())
        assert restored.model_id == "m-1"
        assert restored.request_id == "r-9"
        assert restored.data is None

    def test_round_trip_with_data(self, tiny_tensor):
        request = ImputeRequest(model_id="m-1", data=tiny_tensor)
        restored = ImputeRequest.from_dict(request.to_dict())
        assert restored.data.shape == tiny_tensor.shape


class TestImputeResult:
    def test_round_trip(self, tiny_tensor):
        result = ImputeResult(request_id="r-1", model_id="m-1", method="mean",
                              completed=tiny_tensor, runtime_seconds=0.25,
                              from_batch=True)
        restored = ImputeResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert restored.request_id == "r-1"
        assert restored.method == "mean"
        assert restored.runtime_seconds == 0.25
        assert restored.from_batch is True
        assert restored.completed.shape == tiny_tensor.shape

    def test_filled_cells_only_given_the_request_data(self, tiny_tensor):
        completed = MeanImputer().fit(tiny_tensor).impute(tiny_tensor)
        result = ImputeResult(request_id="r-1", model_id="m-1",
                              method="mean", completed=completed,
                              latency_seconds=0.5)
        wire = json.loads(json.dumps(result.to_dict(tiny_tensor)))
        assert "completed" not in wire
        assert wire["filled"]["shape"] == [4]   # tiny_tensor's 4 gaps
        restored = ImputeResult.from_dict(wire, tiny_tensor)
        np.testing.assert_array_equal(
            restored.completed.values.view(np.uint64),
            completed.values.view(np.uint64))
        np.testing.assert_array_equal(restored.completed.mask,
                                      completed.mask)
        assert restored.completed.name == completed.name
        assert restored.latency_seconds == 0.5
        with pytest.raises(ValidationError, match="request's data"):
            ImputeResult.from_dict(wire)
        other = tiny_tensor.with_missing(np.eye(3, 20))
        with pytest.raises(ValidationError, match="resent with other data"):
            ImputeResult.from_dict(wire, other)

    def test_answer_that_is_not_a_fill_travels_whole(self, tiny_tensor):
        completed = MeanImputer().fit(tiny_tensor).impute(tiny_tensor)
        completed.values[1, 1] += 1.0          # an observed cell changed
        result = ImputeResult(request_id="r-1", model_id="m-1",
                              method="mean", completed=completed)
        wire = result.to_dict(tiny_tensor)
        assert "filled" not in wire
        restored = ImputeResult.from_dict(json.loads(json.dumps(wire)),
                                          tiny_tensor)
        np.testing.assert_array_equal(restored.completed.values,
                                      completed.values)
