"""ModelRef parsing/rendering, and bare-string ids at every façade."""

import warnings

import numpy as np
import pytest

from repro.api import ImputationService, ImputeRequest, ModelRef
from repro.api.refs import LATEST
from repro.data.dimensions import Dimension
from repro.data.tensor import TimeSeriesTensor
from repro.exceptions import ValidationError
from repro.gateway import Gateway
from repro.streaming import StreamingService, StreamWindow


def small_tensor(seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(3, 32))
    mask = np.ones_like(values)
    mask[0, 4:8] = 0
    return TimeSeriesTensor(values=values,
                            dimensions=[Dimension.categorical("s", 3)],
                            mask=mask)


class TestModelRefParsing:
    def test_bare_string_means_latest(self):
        ref = ModelRef.parse("climate")
        assert ref == ModelRef("climate", LATEST)
        assert not ref.pinned

    def test_pinned_version(self):
        ref = ModelRef.parse("climate@3")
        assert ref == ModelRef("climate", 3)
        assert ref.pinned

    def test_explicit_latest(self):
        assert ModelRef.parse("climate@latest") == ModelRef.latest("climate")

    def test_parse_is_idempotent_on_refs(self):
        ref = ModelRef("m", 2)
        assert ModelRef.parse(ref) is ref

    @pytest.mark.parametrize("bad", ["", "m@0", "m@-1", "m@v2", "m@1.5",
                                     "@2", "a/b@1", None, 7])
    def test_malformed_refs_are_rejected(self, bad):
        with pytest.raises(ValidationError):
            ModelRef.parse(bad)

    @pytest.mark.parametrize("bad_version", [0, -3, True, 1.5, "2"])
    def test_constructor_rejects_bad_versions(self, bad_version):
        with pytest.raises(ValidationError):
            ModelRef("m", bad_version)

    def test_model_id_grammar_still_enforced(self):
        # '@' is ref syntax, never part of the id itself.
        with pytest.raises(ValidationError):
            ModelRef("has@sign", 1)

    def test_str_and_wire_id(self):
        assert str(ModelRef("m", 2)) == "m@2"
        assert str(ModelRef.latest("m")) == "m@latest"
        assert ModelRef("m", 2).wire_id() == "m@2"
        # @latest renders bare: wire-byte-identical to the legacy string.
        assert ModelRef.latest("m").wire_id() == "m"

    def test_refs_are_hashable_and_frozen(self):
        assert len({ModelRef("m", 1), ModelRef("m", 1), ModelRef("m", 2)}) == 2
        with pytest.raises(AttributeError):
            ModelRef("m", 1).version = 2

    def test_request_to_dict_round_trips_refs(self):
        tensor = small_tensor()
        latest = ImputeRequest(model_id=ModelRef.latest("m"), data=tensor)
        assert latest.to_dict()["model_id"] == "m"
        pinned = ImputeRequest(model_id=ModelRef("m", 2), data=tensor)
        assert pinned.to_dict()["model_id"] == "m@2"

    def test_model_ref_property_parses_strings(self):
        tensor = small_tensor()
        request = ImputeRequest(model_id="m@2", data=tensor)
        assert request.model_ref == ModelRef("m", 2)


class TestDeprecationShims:
    """The ``ImputationService.impute`` spellings the bare-id deprecation
    warning once covered. The warning is removed, so each spelling is now
    served with warnings turned into errors."""

    def test_service_string_model_id_warns_but_works(self):
        service = ImputationService()
        tensor = small_tensor()
        model_id = service.fit(tensor, method="mean", model_id="legacy")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = service.impute(tensor, model_id=model_id)
        assert result.completed.missing_fraction == 0.0

    def test_string_request_model_id_warns_but_works(self):
        service = ImputationService()
        tensor = small_tensor()
        service.fit(tensor, method="mean", model_id="legacy")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = service.impute(ImputeRequest(model_id="legacy",
                                                  data=tensor))
        assert result.completed.missing_fraction == 0.0

    def test_model_ref_requests_are_warning_free(self):
        service = ImputationService()
        tensor = small_tensor()
        service.fit(tensor, method="mean", model_id="typed")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = service.impute(
                ImputeRequest(model_id=ModelRef.latest("typed"), data=tensor))
        assert result.completed.missing_fraction == 0.0


def _serve_impute(service, tensor):
    return [service.impute(tensor, model_id="m"),
            service.impute(ImputeRequest(model_id="m", data=tensor)),
            service.impute(ImputeRequest(model_id=ModelRef.latest("m"),
                                         data=tensor))]


def _serve_submit(service, tensor):
    service.submit(tensor, model_id="m")
    service.submit(ImputeRequest(model_id="m", data=tensor))
    service.submit(ImputeRequest(model_id=ModelRef.latest("m"),
                                 data=tensor))
    results = service.gather()
    # One sweep serves every spelling; an @latest ref's wire form is the
    # bare id.
    assert [result.model_id for result in results] == ["m"] * 3
    return results


def _serve_gateway(service, tensor):
    with Gateway(service) as gateway:
        futures = [gateway.submit(tensor, model_id="m"),
                   gateway.submit(ImputeRequest(model_id="m", data=tensor))]
        return [future.result(timeout=30) for future in futures]


def _serve_open_stream(service, tensor):
    streaming = StreamingService(service=service)
    streaming.open_stream("s", warm_start="m", refit_every=0)
    streaming.push("s", StreamWindow(index=0, start=0,
                                     stop=tensor.n_time, tensor=tensor))
    return streaming.step()


@pytest.mark.parametrize("serve", [_serve_impute, _serve_submit,
                                   _serve_gateway, _serve_open_stream],
                         ids=["impute", "submit", "gateway", "open_stream"])
def test_bare_string_model_ids_are_served(serve):
    """ModelRef.parse is the one rule: a bare id means ``@latest``, and no
    façade warns about it (any warning fails the test)."""
    service = ImputationService()
    tensor = small_tensor()
    service.fit(tensor, method="mean", model_id="m")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = serve(service, tensor)
    assert results
    for result in results:
        assert result.completed.missing_fraction == 0.0
