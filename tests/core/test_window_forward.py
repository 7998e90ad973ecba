"""Oracle for the per-window serving forward.

``DeepMVIImputer.impute_many`` forwards each distinct (request, series
row, context start) once and each distinct (request, series row, window)
once, then runs the per-cell step.  Its answers must equal, bit for bit,
``model.predict`` over ``build_batch`` of each request's cells on its
own, where every cell carries its own context and window.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DeepMVIConfig
from repro.core.imputer import DeepMVIImputer
from repro.data.tensor import TimeSeriesTensor


def _fit(tensor, **overrides):
    fitted_missing = np.zeros(tensor.values.shape, dtype=bool)
    fitted_missing.reshape(-1, tensor.n_time)[0, 5:8] = True
    imputer = DeepMVIImputer(config=DeepMVIConfig.fast(**overrides),
                             auto_window=False)
    return imputer.fit(tensor.with_missing(fitted_missing))


def _request(tensor, missing, shift=0.5):
    """``tensor`` with shifted values (a table miss) and ``missing`` hidden."""
    values = np.where(missing, np.nan, tensor.values + shift)
    return TimeSeriesTensor(values=values,
                            dimensions=list(tensor.dimensions),
                            mask=(~missing).astype(float), name="request")


def _mcar_requests(tensor, seeds, rate=0.15):
    requests = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        missing = rng.random(tensor.values.shape) < rate
        requests.append(_request(tensor, missing, shift=0.1 * seed))
    return requests


def _per_cell_reference(imputer, tensor):
    """The request served alone, one context and one window per cell."""
    plan = imputer._plan(tensor)
    batch = plan.context.build_batch(plan.cells[:, 0], plan.cells[:, 1])
    plan.matrix[plan.cells[:, 0], plan.cells[:, 1]] = \
        imputer.model.predict(batch)
    return plan.complete().values


def _assert_matches_per_cell_forward(imputer, requests):
    served = imputer.impute_many(requests)
    for info in imputer.last_impute_info:
        assert info["fast_path_hits"] == 0
    for request, completed in zip(requests, served):
        np.testing.assert_array_equal(
            completed.values, _per_cell_reference(imputer, request))


@pytest.mark.parametrize("fixture_name",
                         ["tiny_tensor", "small_panel",
                          "small_multidim_panel"])
def test_fixtures(fixture_name, request):
    tensor = request.getfixturevalue(fixture_name)
    if fixture_name == "tiny_tensor":
        tensor = TimeSeriesTensor(
            values=np.nan_to_num(tensor.values, nan=1.0),
            dimensions=list(tensor.dimensions), name="tiny")
    imputer = _fit(tensor)
    _assert_matches_per_cell_forward(imputer,
                                     _mcar_requests(tensor, (1, 2, 3)))


@pytest.mark.parametrize("overrides", [
    {"use_temporal_transformer": False},
    {"use_context_window": False},
    {"use_fine_grained": False},
    {"use_kernel_regression": False},
    {"flatten_dimensions": True},
], ids=["no_tt", "no_context_window", "no_fg", "no_kr", "flattened"])
def test_ablations(small_multidim_panel, overrides):
    imputer = _fit(small_multidim_panel, **overrides)
    _assert_matches_per_cell_forward(
        imputer, _mcar_requests(small_multidim_panel, (4, 5)))


def test_row_with_several_context_starts(small_panel):
    imputer = _fit(small_panel, max_context_windows=4)
    context = imputer.context
    assert context.n_windows > 4
    starts, _ = context.context_span(np.arange(context.n_time))
    assert np.unique(starts).shape[0] > 1
    missing = np.zeros(small_panel.values.shape, dtype=bool)
    missing[2, ::7] = True                  # every context start of row 2
    _assert_matches_per_cell_forward(
        imputer, [_request(small_panel, missing)])


def test_requests_sharing_a_window_with_different_gaps(small_panel):
    imputer = _fit(small_panel)
    first = np.zeros(small_panel.values.shape, dtype=bool)
    second = first.copy()
    first[3, 40:42] = True                  # window 8 of row 3 ...
    second[3, 43] = True                    # ... here with another gap
    second[5, 60:64] = True
    requests = [_request(small_panel, first), _request(small_panel, second)]
    _assert_matches_per_cell_forward(imputer, requests)
    # The shared window really is shared data with different gaps.
    assert not np.array_equal(requests[0].mask, requests[1].mask)


def test_one_window_and_one_cell_requests(small_panel):
    imputer = _fit(small_panel)
    one_window = np.zeros(small_panel.values.shape, dtype=bool)
    one_window[1, 20:25] = True             # all of window 4 of row 1
    one_cell = np.zeros(small_panel.values.shape, dtype=bool)
    one_cell[6, 77] = True
    requests = [_request(small_panel, one_window),
                _request(small_panel, one_cell)]
    _assert_matches_per_cell_forward(imputer, requests)
    for request in requests:
        _assert_matches_per_cell_forward(imputer, [request])
