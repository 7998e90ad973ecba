"""Tests of DatasetContext batch construction and sibling bookkeeping."""

import numpy as np
import pytest

from repro.core.context import DatasetContext, collate
from repro.data.missing import MissingScenario, apply_scenario


@pytest.fixture
def context(small_multidim_panel):
    return DatasetContext(small_multidim_panel, window=8, max_context_windows=6)


class TestConstruction:
    def test_padding_to_window_multiple(self, small_panel):
        context = DatasetContext(small_panel, window=7)
        assert context.padded_time % 7 == 0
        assert context.padded_time >= small_panel.n_time
        # padded tail is marked unavailable
        assert context.padded_avail[:, small_panel.n_time:].sum() == 0

    def test_no_padding_when_divisible(self, small_panel):
        context = DatasetContext(small_panel, window=10)
        assert context.padded_time == small_panel.n_time

    def test_values_are_normalised_and_zero_filled(self, small_panel):
        missing = np.zeros_like(small_panel.values)
        missing[0, :5] = 1
        incomplete = small_panel.with_missing(missing)
        context = DatasetContext(incomplete, window=10)
        assert np.isfinite(context.matrix).all()
        assert np.all(context.matrix[0, :5] == 0.0)

    def test_flatten_dimensions(self, small_multidim_panel):
        context = DatasetContext(small_multidim_panel, window=8,
                                 flatten_dimensions=True)
        assert context.dimension_sizes == [12]
        assert context.index_table.shape == (12, 1)

    def test_denormalise_roundtrip(self, small_panel):
        context = DatasetContext(small_panel, window=10)
        value = np.array([1.23])
        np.testing.assert_allclose(
            context.denormalise(context.normalise_value(value)), value)


class TestSiblingRows:
    def test_sibling_counts(self, context):
        # dims are (4 stores, 3 items): siblings along dim0 = 3, dim1 = 2
        assert context.sibling_rows(0).shape == (12, 3)
        assert context.sibling_rows(1).shape == (12, 2)

    def test_siblings_differ_only_in_their_dimension(self, context):
        table = context.index_table
        for dim in range(2):
            siblings = context.sibling_rows(dim)
            for row in range(12):
                for sibling in siblings[row]:
                    same = table[row].copy()
                    other = table[sibling].copy()
                    diffs = np.nonzero(same != other)[0]
                    assert list(diffs) == [dim]

    def test_singleton_dimension_has_no_siblings(self, small_panel):
        # build a context over a panel with an artificial singleton dimension
        from repro.data.dimensions import Dimension
        from repro.data.tensor import TimeSeriesTensor
        values = small_panel.values[:1][None]  # (1, 1, T) -> 1x1
        tensor = TimeSeriesTensor(
            values=values.reshape(1, 1, small_panel.n_time),
            dimensions=[Dimension.categorical("a", 1), Dimension.categorical("b", 1)])
        context = DatasetContext(tensor, window=10)
        assert context.sibling_rows(0).shape == (1, 0)
        assert context.sibling_rows(1).shape == (1, 0)


class TestBatches:
    def test_batch_shapes(self, context):
        rows = np.array([0, 5, 11])
        times = np.array([3, 40, 90])
        batch = context.build_batch(rows, times)
        assert batch.window_values.shape == (3, 6, 8)
        assert batch.window_avail.shape == (3, 6, 8)
        assert batch.absolute_index.shape == (3, 6)
        assert batch.member_indices.shape == (3, 2)
        assert batch.size == 3

    def test_target_window_contains_target_time(self, context):
        rows = np.array([1, 2])
        times = np.array([17, 95])
        batch = context.build_batch(rows, times)
        for i in range(2):
            absolute_window = batch.absolute_index[i, batch.target_window[i]]
            start = absolute_window * context.window
            assert start <= times[i] < start + context.window
            assert batch.target_offset[i] == times[i] % context.window

    def test_window_values_match_matrix(self, context):
        rows = np.array([4])
        times = np.array([20])
        batch = context.build_batch(rows, times)
        window_index = batch.absolute_index[0, batch.target_window[0]]
        start = window_index * context.window
        np.testing.assert_allclose(
            batch.window_values[0, batch.target_window[0]],
            context.padded_matrix[4, start:start + context.window])

    def test_context_bounded_by_max_windows(self, small_panel):
        context = DatasetContext(small_panel, window=6, max_context_windows=4)
        batch = context.build_batch(np.array([0]), np.array([60]))
        assert batch.window_values.shape[1] == 4

    def test_context_clipped_at_series_start_and_end(self, small_panel):
        context = DatasetContext(small_panel, window=6, max_context_windows=4)
        early = context.build_batch(np.array([0]), np.array([0]))
        late = context.build_batch(np.array([0]), np.array([small_panel.n_time - 1]))
        assert early.absolute_index.min() == 0
        assert late.absolute_index.max() == context.n_windows - 1

    def test_series_avail_override_is_used(self, context):
        rows = np.array([0])
        times = np.array([10])
        override = context.padded_avail[rows].copy()
        override[0, 8:16] = 0.0
        batch = context.build_batch(rows, times, series_avail_override=override)
        target_window = batch.target_window[0]
        assert batch.window_avail[0, target_window].sum() == 0

    def test_sibling_values_respect_exclusion(self, context):
        rows = np.array([0])
        times = np.array([10])
        exclusion = [np.zeros((1, 3)), np.zeros((1, 2))]
        exclusion[0][0, :] = 1.0          # exclude every store sibling
        batch = context.build_batch(rows, times, member_exclusion=exclusion)
        assert batch.sibling_avail[0].sum() == 0
        assert batch.sibling_avail[1].sum() == 2

    def test_sibling_values_zeroed_when_unavailable(self, small_multidim_panel):
        scenario = MissingScenario("blackout", {"block_size": 10})
        incomplete, _ = apply_scenario(small_multidim_panel, scenario, seed=0)
        context = DatasetContext(incomplete, window=8)
        start = int(round(0.05 * incomplete.n_time))
        batch = context.build_batch(np.array([0]), np.array([start + 2]))
        # Every sibling is also blacked out at that time.
        assert batch.sibling_avail[0].sum() == 0
        assert np.all(batch.sibling_values[0] == 0)


class TestCollate:
    """collate keeps one row per distinct context and window of a piece."""

    def test_expands_back_to_each_piece(self, context):
        first = context.build_batch(np.array([0, 0, 0, 5]),
                                    np.array([3, 4, 40, 40]))
        second = context.build_batch(np.array([0, 7]), np.array([4, 90]))
        batch = collate([first, second])
        assert batch.size == 6
        windows = batch.window_index
        contexts = batch.context_index[windows]
        for name in ("window_values", "window_avail", "absolute_index"):
            expanded = getattr(batch, name)[contexts]
            np.testing.assert_array_equal(expanded[:4], getattr(first, name))
            np.testing.assert_array_equal(expanded[4:], getattr(second, name))
        np.testing.assert_array_equal(
            batch.target_window[windows],
            np.concatenate([first.target_window, second.target_window]))
        np.testing.assert_array_equal(
            batch.target_times, np.concatenate([first.target_times,
                                                second.target_times]))
        for dim in range(len(batch.sibling_values)):
            np.testing.assert_array_equal(batch.sibling_values[dim][4:],
                                          second.sibling_values[dim])

    def test_one_row_per_distinct_context_and_window(self, context):
        # (0, 3) and (0, 4) share a window; (0, 40) is another window of
        # the same row with another context start.
        piece = context.build_batch(np.array([0, 0, 0, 5]),
                                    np.array([3, 4, 40, 40]))
        batch = collate([piece])
        assert batch.window_values.shape[0] == 3
        assert batch.target_window.shape[0] == 3
        assert batch.window_index[0] == batch.window_index[1]

    def test_pieces_never_share_rows(self, context):
        piece = context.build_batch(np.array([2]), np.array([30]))
        batch = collate([piece, piece])
        assert batch.window_values.shape[0] == 2
        np.testing.assert_array_equal(batch.window_index, [0, 1])
        np.testing.assert_array_equal(batch.context_index, [0, 1])

    def test_zero_cells_raise(self):
        with pytest.raises(ValueError):
            collate([])
