"""Equivalence suite for the vectorised batch-assembly hot path.

The vectorised :meth:`TrainingSampler.sample_batch` and the loop-based
:meth:`TrainingSampler.sample_batch_reference` consume the same random
draws, so from identical generator states they must produce **bit-identical**
batches — every array, every dimension.  The precomputed run-length extent
tables behind :meth:`MissingShapeSampler.sample_shapes` must likewise agree
exactly with the historical per-cell mask walk.
"""

import numpy as np
import pytest

from repro.core.context import DatasetContext
from repro.core.sampling import (
    MissingShapeSampler,
    TrainingSampler,
    _extent_through,
)
from repro.data.missing import MissingScenario, apply_scenario

SCENARIOS = {
    "mcar": MissingScenario("mcar", {"incomplete_fraction": 0.7,
                                     "block_size": 5}),
    "blackout": MissingScenario("blackout", {"block_size": 9}),
    "none": None,
}


def _make_sampler(panel, scenario, seed=0, window=8):
    if scenario is not None:
        incomplete, _ = apply_scenario(panel, scenario, seed=seed)
    else:
        incomplete = panel
    context = DatasetContext(incomplete, window=window, max_context_windows=8)
    shape_sampler = MissingShapeSampler(
        1.0 - context.avail, context.index_table, context.dimension_sizes)
    return context, shape_sampler


def _assert_batches_identical(a, b):
    np.testing.assert_array_equal(a.window_values, b.window_values)
    np.testing.assert_array_equal(a.window_avail, b.window_avail)
    np.testing.assert_array_equal(a.absolute_index, b.absolute_index)
    np.testing.assert_array_equal(a.target_window, b.target_window)
    np.testing.assert_array_equal(a.target_offset, b.target_offset)
    np.testing.assert_array_equal(a.member_indices, b.member_indices)
    np.testing.assert_array_equal(a.targets, b.targets)
    np.testing.assert_array_equal(a.series_rows, b.series_rows)
    np.testing.assert_array_equal(a.target_times, b.target_times)
    assert len(a.sibling_values) == len(b.sibling_values)
    for dim in range(len(a.sibling_values)):
        np.testing.assert_array_equal(a.sibling_member_indices[dim],
                                      b.sibling_member_indices[dim])
        np.testing.assert_array_equal(a.sibling_values[dim],
                                      b.sibling_values[dim])
        np.testing.assert_array_equal(a.sibling_avail[dim],
                                      b.sibling_avail[dim])


class TestVectorisedEqualsReference:
    @pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_single_dim_panel(self, small_panel, scenario_name, batch_size):
        scenario = SCENARIOS[scenario_name]
        context, shapes = _make_sampler(small_panel, scenario)
        vectorised = TrainingSampler(context, shapes,
                                     np.random.default_rng(99))
        _, shapes2 = _make_sampler(small_panel, scenario)
        reference = TrainingSampler(context, shapes2,
                                    np.random.default_rng(99))
        _assert_batches_identical(vectorised.sample_batch(batch_size),
                                  reference.sample_batch_reference(batch_size))

    @pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
    def test_multidim_panel(self, small_multidim_panel, scenario_name):
        scenario = SCENARIOS[scenario_name]
        context, shapes = _make_sampler(small_multidim_panel, scenario)
        vectorised = TrainingSampler(context, shapes,
                                     np.random.default_rng(3))
        _, shapes2 = _make_sampler(small_multidim_panel, scenario)
        reference = TrainingSampler(context, shapes2,
                                    np.random.default_rng(3))
        for _ in range(3):  # stay bit-identical across consecutive batches
            _assert_batches_identical(
                vectorised.sample_batch(32),
                reference.sample_batch_reference(32))

    def test_flattened_dimensions_variant(self, small_multidim_panel):
        incomplete, _ = apply_scenario(
            small_multidim_panel, SCENARIOS["mcar"], seed=5)
        context = DatasetContext(incomplete, window=8, max_context_windows=8,
                                 flatten_dimensions=True)
        shapes = MissingShapeSampler(1.0 - context.avail, context.index_table,
                                     context.dimension_sizes)
        vectorised = TrainingSampler(context, shapes,
                                     np.random.default_rng(0))
        shapes2 = MissingShapeSampler(1.0 - context.avail, context.index_table,
                                      context.dimension_sizes)
        reference = TrainingSampler(context, shapes2,
                                    np.random.default_rng(0))
        _assert_batches_identical(vectorised.sample_batch(48),
                                  reference.sample_batch_reference(48))


class TestExtentTables:
    @pytest.mark.parametrize("scenario_name", ["mcar", "blackout"])
    def test_tables_match_per_cell_walk(self, small_multidim_panel,
                                        scenario_name):
        context, sampler = _make_sampler(small_multidim_panel,
                                         SCENARIOS[scenario_name])
        assert sampler.has_missing()
        sampler._ensure_extent_tables()
        for row, t in sampler.missing_cells[:200]:
            assert sampler._time_extent_map[row, t] == \
                _extent_through(sampler.missing_mask[row], t)
            for dim in range(len(sampler.dimension_sizes)):
                assert sampler._member_extent_maps[dim][row, t] == \
                    sampler._member_extent(int(row), int(t), dim)

    def test_sample_shapes_match_tables(self, small_panel):
        context, sampler = _make_sampler(small_panel, SCENARIOS["mcar"])
        rng = np.random.default_rng(1)
        time_extents, member_extents = sampler.sample_shapes(rng, 128)
        assert time_extents.shape == (128,)
        assert member_extents.shape == (128, 1)
        assert np.all(time_extents >= 1)
        assert np.all(member_extents >= 1)

    def test_sample_shapes_without_missing(self, small_panel):
        sampler = MissingShapeSampler(
            np.zeros((small_panel.n_series, small_panel.n_time)),
            np.arange(small_panel.n_series)[:, None], [small_panel.n_series])
        time_extents, member_extents = sampler.sample_shapes(
            np.random.default_rng(0), 32)
        assert np.all((1 <= time_extents) & (time_extents <= 10))
        assert np.all(member_extents == 1)
