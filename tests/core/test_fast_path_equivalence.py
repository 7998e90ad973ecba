"""Equivalence suite for the precompute-and-lookup serving fast path.

The fast path's contract is *exactness*, not approximation: a table hit
must reproduce the full forward's prediction (same modules, frozen
parameters, same op order — see :mod:`repro.core.fast_path`), and a miss
must fall back to a forward pass that is bit-identical to serving without
tables at all.  Every test here checks one face of that contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DeepMVIConfig
from repro.core.fast_path import build_fast_path_tables, verify_fast_path
from repro.core.imputer import DeepMVIImputer
from repro.data.dimensions import Dimension
from repro.data.tensor import TimeSeriesTensor

#: table hits must match the full forward to float64 noise; in practice
#: they are bitwise identical and the oracle reports max_abs_diff == 0.0
TIGHT_TOL = 1e-10


def _fit(tensor, **config_overrides):
    config = DeepMVIConfig.fast(**config_overrides)
    return DeepMVIImputer(config=config, auto_window=False).fit(tensor)


def _incomplete(tensor, seed=0):
    """The fixture with MCAR missingness (some fixtures are complete)."""
    from repro.data.missing import mcar

    if (tensor.mask == 0).any():
        return tensor
    missing = mcar(tensor, incomplete_fraction=0.5, missing_rate=0.1,
                   block_size=4, rng=np.random.default_rng(seed))
    return tensor.with_missing(missing.reshape(tensor.values.shape))


def _copy_of(tensor):
    """A content-identical tensor that is a *different object*."""
    return TimeSeriesTensor(values=tensor.values.copy(),
                            dimensions=list(tensor.dimensions),
                            mask=tensor.mask.copy(),
                            name=tensor.name + "-copy")


def _without_fast_path(imputer):
    """The same trained weights, fast path disabled (bitwise reference)."""
    state = imputer.get_state()
    state["config"] = dict(state["config"], fast_path=False)
    state["fast_path"] = None
    return DeepMVIImputer().set_state(state)


# ---------------------------------------------------------------------- #
# table hits match the full forward on every dataset fixture
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("fixture_name",
                         ["tiny_tensor", "small_panel",
                          "small_multidim_panel"])
def test_lookup_matches_full_forward_on_fixtures(fixture_name, request):
    tensor = _incomplete(request.getfixturevalue(fixture_name))
    imputer = _fit(tensor)
    assert imputer.fast_path_tables is not None
    report = verify_fast_path(imputer.model, imputer.context,
                              imputer.fast_path_tables)
    assert report["hit_rate"] == 1.0
    assert report["max_abs_diff"] <= TIGHT_TOL
    # In practice the lookup reproduces the forward bit-for-bit.
    assert report["exact_matches"] == report["hits"] == report["cells"]


@pytest.mark.parametrize("fixture_name",
                         ["tiny_tensor", "small_panel",
                          "small_multidim_panel"])
def test_served_imputation_matches_no_table_serving(fixture_name, request):
    tensor = _incomplete(request.getfixturevalue(fixture_name))
    imputer = _fit(tensor)
    reference = _without_fast_path(imputer)
    fast = imputer.impute()
    assert imputer.last_impute_info[0]["fast_path"] is True
    full = reference.impute()
    np.testing.assert_allclose(fast.values, full.values, atol=TIGHT_TOL)
    # Content-identical copies (repeat serving traffic) hit too.
    served = imputer.impute(_copy_of(tensor))
    assert imputer.last_impute_info[0]["fast_path"] is True
    np.testing.assert_allclose(served.values, full.values, atol=TIGHT_TOL)


@pytest.mark.parametrize("flags", [
    {"use_temporal_transformer": False},
    {"use_kernel_regression": False},
    {"use_fine_grained": False},
    {"use_kernel_regression": False, "use_fine_grained": False},
])
def test_equivalence_under_ablations(small_panel, flags):
    imputer = _fit(_incomplete(small_panel), **flags)
    report = verify_fast_path(imputer.model, imputer.context,
                              imputer.fast_path_tables)
    assert report["hit_rate"] == 1.0
    assert report["max_abs_diff"] <= TIGHT_TOL


# ---------------------------------------------------------------------- #
# forced miss: the fallback is bit-identical to serving without tables
# ---------------------------------------------------------------------- #
def test_forced_miss_falls_back_bit_identical(small_panel):
    small_panel = _incomplete(small_panel)
    imputer = _fit(small_panel)
    reference = _without_fast_path(imputer)
    # Same-shaped requests adopt the fitted normalisation, so shifting the
    # global stats no longer forces a miss — per-window content agreement
    # decides.  Perturbing every observed value of series 0 invalidates
    # every window of that series: each missing cell either spans a
    # perturbed window (series 0) or reads series 0 through its sibling
    # column, so every cell must miss and route through the full forward.
    values = small_panel.values.copy()
    mask = small_panel.mask.reshape(values.shape)
    values[0] = np.where(mask[0] == 1, values[0] + 1.0, values[0])
    perturbed = TimeSeriesTensor(values=values,
                                 dimensions=list(small_panel.dimensions),
                                 mask=small_panel.mask.copy(),
                                 name="perturbed")
    assert imputer.try_fast_path([perturbed]) is None
    via_tables_imputer = imputer.impute(perturbed)
    info = imputer.last_impute_info[0]
    assert info["fast_path_hits"] == 0 and info["fast_path"] is False
    via_reference = reference.impute(perturbed)
    # Bit-identical: the miss path runs exactly today's fused forward.
    assert np.array_equal(via_tables_imputer.values, via_reference.values)


def test_widened_hits_survive_global_stat_shift():
    """Same-shaped traffic with shifted global stats still hits per window.

    Before the per-window widening, *any* request whose observed mean/std
    differed from the fitted tensor's missed the tables wholesale —
    sliding-window streaming traffic never hit.  Serving contexts now
    adopt the fitted normalisation for same-shaped tensors, so a request
    that changed one window serves every unaffected window from the
    tables and only the cells reading the changed window pay a forward
    pass — still bit-identically to table-free serving.
    """
    rng = np.random.default_rng(11)
    n_series, n_time = 4, 200
    values = rng.normal(size=(n_series, n_time)).cumsum(axis=1)
    mask = np.ones_like(values)
    # window=5, max_context_windows=16 (DeepMVIConfig.fast): 40 windows.
    mask[0, 12] = 0      # series 0, window 2  -> span windows 0..15
    mask[0, 191] = 0     # series 0, window 38 -> span covers window 39
    values = np.where(mask == 1, values, np.nan)
    tensor = TimeSeriesTensor(
        values=values, dimensions=[Dimension.categorical("s", n_series)],
        mask=mask, name="stream")
    imputer = _fit(tensor)
    reference = _without_fast_path(imputer)

    # New data lands in the final window only (the live-tail shape of
    # sliding-window traffic); the global stats genuinely shift.
    arrived = values.copy()
    arrived[0, 197] += 3.5
    request = TimeSeriesTensor(
        values=arrived, dimensions=[Dimension.categorical("s", n_series)],
        mask=mask.copy(), name="stream-tick")
    assert float(request.observed_mean_std()[0]) != \
        float(tensor.observed_mean_std()[0])

    # All-or-nothing fast serving refuses (the tail cell misses) ...
    assert imputer.try_fast_path([request]) is None
    # ... but serving splits: the far cell hits, the tail cell forwards.
    served = imputer.impute(request)
    info = imputer.last_impute_info[0]
    assert info["cells"] == 2
    assert info["fast_path_hits"] == 1
    assert info["fast_path"] is False
    full = reference.impute(request)
    np.testing.assert_allclose(served.values, full.values, atol=TIGHT_TOL)


def test_partial_hits_within_one_request():
    """A request can hit for some cells and forward the rest — exactly.

    Swapping two observed values inside one window preserves the
    normalisation stats (same multiset) but invalidates that window, so
    cells whose bounded attention context covers it miss while far-away
    cells still hit.
    """
    rng = np.random.default_rng(7)
    n_series, n_time = 4, 200
    # Integer-valued data keeps every normalisation sum exact in float64,
    # so swapping two values leaves mean/std *bitwise* identical (float
    # summation is order-dependent otherwise and any swap would miss the
    # global compatibility check, not just one window).
    values = rng.integers(-20, 21, size=(n_series, n_time)).cumsum(
        axis=1).astype(np.float64)
    mask = np.ones_like(values)
    # window=5, max_context_windows=16 (DeepMVIConfig.fast): 40 windows,
    # spans cover 16.  Missing cells at windows 2 and 38.
    mask[0, 12] = 0      # series 0, window 2  -> span windows 0..15
    mask[0, 191] = 0     # series 0, window 38 -> span windows 24..39
    mask[1, 192] = 0     # series 1, window 38 -> span windows 24..39
    values = np.where(mask == 1, values, np.nan)
    # Nudge one far-away value so the observed mean is an exact integer:
    # then observed - mean, its squares, and their sums are all integers,
    # exactly representable and order-independent.
    observed_count = int(mask.sum())
    remainder = int(values[mask == 1].sum()) % observed_count
    values[3, 101] -= remainder
    assert float(values[mask == 1].mean()).is_integer()
    tensor = TimeSeriesTensor(
        values=values, dimensions=[Dimension.categorical("s", n_series)],
        mask=mask, name="partial")
    imputer = _fit(tensor)
    reference = _without_fast_path(imputer)

    swapped = values.copy()
    # Swap two observed values of series 0 inside window 39 (t 195..199).
    assert swapped[0, 195] != swapped[0, 197]
    swapped[0, 195], swapped[0, 197] = swapped[0, 197], swapped[0, 195]
    request = TimeSeriesTensor(
        values=swapped, dimensions=[Dimension.categorical("s", n_series)],
        mask=mask.copy(), name="swapped")

    # All-or-nothing fast serving must refuse (one cell misses) ...
    assert imputer.try_fast_path([request]) is None
    # ... but the serving path splits: far cells hit, near cells forward.
    served = imputer.impute(request)
    info = imputer.last_impute_info[0]
    assert info["cells"] == 3
    assert 0 < info["fast_path_hits"] < info["cells"]
    assert info["fast_path"] is False
    # series 0 window 38 misses (span covers the swapped window 39);
    # series 0 window 2 and series 1 window 38 hit (their own row spans
    # avoid it and every row still matches at their target columns).
    assert info["fast_path_hits"] == 2
    full = reference.impute(request)
    np.testing.assert_allclose(served.values, full.values, atol=TIGHT_TOL)


# ---------------------------------------------------------------------- #
# on/off, persistence, states saved by earlier versions
# ---------------------------------------------------------------------- #
def test_off_mode_builds_nothing(tiny_tensor):
    imputer = _fit(tiny_tensor, fast_path=False)
    assert imputer.fast_path_tables is None
    imputer.impute()
    assert imputer.fast_path_tables is None
    assert imputer.last_impute_info[0]["fast_path"] is False
    assert imputer.try_fast_path([None]) is None


def _old_state(imputer, mode, tables=None):
    """``imputer``'s state as saved before the fast path became a bool."""
    state = imputer.get_state()
    state["config"] = dict(state["config"], fast_path=mode,
                           fast_path_staleness_seconds=5.0)
    state["fast_path"] = tables
    return state


def test_old_states_load_and_serve_bit_identically(tiny_tensor):
    imputer = _fit(tiny_tensor)
    # An old "lazy" state carries no tables; an old "fit" one carries
    # them, stamped with their build time.
    stamped = dict(imputer.get_state()["fast_path"], built_at=1.0e9)
    for old in (_old_state(imputer, "lazy"),
                _old_state(imputer, "fit", stamped)):
        loaded = DeepMVIImputer().set_state(old)
        assert loaded.config.fast_path is True
        assert loaded.fast_path_tables is not None
        for request in (None, _copy_of(tiny_tensor)):
            served = loaded.impute(request)
            assert loaded.last_impute_info[0]["fast_path"] is True
            assert np.array_equal(served.values,
                                  imputer.impute(request).values)
    # An old "off" model stays off.
    off = DeepMVIImputer().set_state(_old_state(imputer, "off"))
    assert off.config.fast_path is False and off.fast_path_tables is None


def test_tables_survive_artifact_round_trip(tmp_path, tiny_tensor):
    from repro.engine.artifacts import load_imputer, save_imputer

    imputer = _fit(tiny_tensor)
    expected = imputer.impute()
    save_imputer(imputer, tmp_path / "model")
    loaded = load_imputer(tmp_path / "model")
    assert loaded.fast_path_tables is not None
    served = loaded.impute()
    assert loaded.last_impute_info[0]["fast_path"] is True
    np.testing.assert_allclose(served.values, expected.values,
                               atol=TIGHT_TOL)
    # The rebuilt tables also serve identical-content request traffic.
    assert loaded.try_fast_path([_copy_of(tiny_tensor)]) is not None


def test_fast_path_info_reports_provenance(tiny_tensor):
    imputer = _fit(tiny_tensor)
    info = imputer.fast_path_info()
    assert set(info) == {"built", "cells", "windows", "nbytes",
                         "build_seconds"}
    assert info["built"] is True
    assert info["cells"] > 0 and info["nbytes"] > 0
    assert info["build_seconds"] >= 0.0
    assert imputer.memory_nbytes() > imputer.fast_path_tables.nbytes


def test_build_tables_directly_matches_oracle(small_panel):
    imputer = _fit(_incomplete(small_panel), fast_path=False)
    tables = build_fast_path_tables(imputer.model, imputer.context)
    report = verify_fast_path(imputer.model, imputer.context, tables)
    assert report["hit_rate"] == 1.0
    assert report["max_abs_diff"] <= TIGHT_TOL
