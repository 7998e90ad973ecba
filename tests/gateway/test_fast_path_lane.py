"""Gateway integration tests for the precompute-and-lookup fast path.

The gateway serves every micro-batch through one fused pass under the
model lock; inside it the imputer answers each table hit per cell and
reports per-request ``fast_path`` flags.  These tests pin down an
all-hit batch and a mixed hit/miss batch: exactly-once, in-order
delivery, correct ``fused``/``fast_path`` flags per request, answers
bit-identical to direct serving, and telemetry in ``Gateway.stats()``.
"""

import numpy as np
import pytest

from repro.api import ImputationService
from repro.core.config import DeepMVIConfig
from repro.data.missing import MissingScenario, apply_scenario
from repro.data.tensor import TimeSeriesTensor
from repro.gateway import Gateway, GatewayConfig

SCENARIO = MissingScenario("mcar", {"incomplete_fraction": 0.5,
                                    "block_size": 4})


@pytest.fixture
def incomplete(small_panel):
    incomplete, _ = apply_scenario(small_panel, SCENARIO, seed=0)
    return incomplete


@pytest.fixture
def deepmvi_service(incomplete):
    service = ImputationService()
    model_id = service.fit(incomplete, method="deepmvi",
                           config=DeepMVIConfig.fast())
    return service, model_id


def _copy_of(tensor, name):
    """Content-identical tensor, different object — repeat traffic."""
    return TimeSeriesTensor(values=tensor.values.copy(),
                            dimensions=list(tensor.dimensions),
                            mask=tensor.mask.copy(), name=name)


def _perturbed(tensor, name):
    """Same shape, one observed value changed — guaranteed table miss
    (the normalisation stats shift, failing the compatibility check)."""
    values = tensor.values.copy()
    observed = np.argwhere(tensor.mask.reshape(values.shape) == 1)
    values[tuple(observed[0])] += 1.0
    return TimeSeriesTensor(values=values,
                            dimensions=list(tensor.dimensions),
                            mask=tensor.mask.copy(), name=name)


def test_mixed_batch_hits_and_misses_in_one_fused_pass(deepmvi_service,
                                                       incomplete):
    service, model_id = deepmvi_service
    hit = _copy_of(incomplete, "hit")
    miss = _perturbed(incomplete, "miss")
    direct = [service.impute(t, model_id=model_id) for t in (hit, miss)]
    # The unbatched serving path reports the flag too.
    assert direct[0].fast_path is True
    assert direct[1].fast_path is False

    gateway = Gateway(service, GatewayConfig(max_batch_size=8,
                                             max_wait_ms=20.0),
                      start=False)
    # Queue both before starting so they land in one micro-batch: same
    # model, same shape -> one fusion group, mixed hit/miss inside it.
    futures = gateway.submit_many([hit, miss], model_id=model_id)
    gateway.start()
    served = [future.result(timeout=60.0) for future in futures]
    stats = gateway.stats()
    gateway.close()

    # Exactly-once, in-order delivery.
    assert stats["submitted"] == 2 and stats["completed"] == 2
    assert served[0].completed.name == "hit"
    assert served[1].completed.name == "miss"
    for result in served:
        assert result.from_batch
    # One cell misses -> the whole batch takes the locked fused pass, and
    # the per-request flags split: the identical copy was served from the
    # tables, the perturbed request took the full forward.
    assert served[0].fused and served[1].fused
    assert served[0].fast_path is True
    assert served[1].fast_path is False
    # Both answers agree with unbatched serving.
    for one, many in zip(direct, served):
        np.testing.assert_array_equal(one.completed.values,
                                      many.completed.values)
    assert 0.0 < stats["fast_path_hit_rate"] < 1.0


def test_all_hit_batch_is_served_from_the_tables(deepmvi_service,
                                                  incomplete):
    service, model_id = deepmvi_service
    direct = service.impute(_copy_of(incomplete, "ref"), model_id=model_id)

    gateway = Gateway(service, GatewayConfig(max_batch_size=8,
                                             max_wait_ms=20.0),
                      start=False)
    requests = [_copy_of(incomplete, f"copy-{i}") for i in range(2)]
    futures = gateway.submit_many(requests, model_id=model_id)
    gateway.start()
    served = [future.result(timeout=60.0) for future in futures]
    stats = gateway.stats()
    gateway.close()

    assert [r.completed.name for r in served] == ["copy-0", "copy-1"]
    for result in served:
        # Every cell hit the tables inside the one fused pass.
        assert result.fast_path is True
        assert result.fused is True
        assert result.from_batch
        np.testing.assert_array_equal(result.completed.values,
                                      direct.completed.values)
    assert stats["fast_path_hit_rate"] == 1.0
    # Per-model table telemetry is surfaced through stats().
    info = stats["fast_path"][model_id]
    assert info["built"] is True
    assert info["build_seconds"] >= 0.0
    assert info["nbytes"] > 0
