"""Tests of the experiment runner, downstream analytics and reporting."""

import numpy as np
import pytest

from repro.baselines.simple import LinearInterpolationImputer, MeanImputer
from repro.data.missing import MissingScenario, apply_scenario
from repro.evaluation.analytics import (
    aggregate_analytics_error,
    downstream_comparison,
    drop_cell_aggregate,
    true_aggregate,
)
from repro.evaluation.experiments import (
    EXPERIMENTS,
    STANDARD_SCENARIOS,
    get_experiment,
    list_experiments,
    scenario_for,
)
from repro.evaluation.reporting import format_table, pivot, results_to_rows
from repro.evaluation.runner import ExperimentResult, ExperimentRunner


class TestRunner:
    def test_run_cell_reports_error_and_runtime(self, small_panel):
        runner = ExperimentRunner(methods=["mean"])
        scenario = MissingScenario("mcar", {"incomplete_fraction": 0.5, "block_size": 5})
        result = runner.run_cell(small_panel, scenario, "mean")
        assert result.dataset == small_panel.name
        assert result.method == "Mean"
        assert result.mae > 0
        assert result.rmse >= result.mae
        assert result.runtime_seconds >= 0
        assert result.missing_cells > 0

    def test_run_grid_covers_all_combinations(self, small_panel):
        runner = ExperimentRunner(methods=["mean", "interpolation"])
        scenarios = [MissingScenario("miss_disj"), MissingScenario("blackout", {"block_size": 5})]
        results = runner.run_grid([small_panel], scenarios)
        assert len(results) == 4
        methods = {r.method for r in results}
        assert methods == {"Mean", "LinearInterp"}

    def test_method_instances_accepted(self, small_panel):
        runner = ExperimentRunner(methods=[MeanImputer()])
        result = runner.run_cell(small_panel, MissingScenario("miss_disj"), MeanImputer())
        assert result.method == "Mean"

    def test_method_kwargs_forwarded(self, small_panel):
        runner = ExperimentRunner(methods=["svdimp"],
                                  method_kwargs={"svdimp": {"rank": 1}})
        result = runner.run_cell(small_panel, MissingScenario("miss_disj"), "svdimp")
        assert result.mae >= 0

    def test_results_deterministic_given_seed(self, small_panel):
        runner = ExperimentRunner(methods=["mean"], seed=5)
        scenario = MissingScenario("mcar", {"incomplete_fraction": 0.5})
        a = runner.run_cell(small_panel, scenario, "mean")
        b = runner.run_cell(small_panel, scenario, "mean")
        assert a.mae == pytest.approx(b.mae)

    def test_best_method_per_cell(self):
        results = [
            ExperimentResult("d", "s", "A", mae=0.5, rmse=0.6, runtime_seconds=1, missing_cells=5),
            ExperimentResult("d", "s", "B", mae=0.2, rmse=0.3, runtime_seconds=1, missing_cells=5),
        ]
        assert ExperimentRunner.best_method_per_cell(results) == {("d", "s"): "B"}

    def test_as_dict_merges_scenario_params(self):
        result = ExperimentResult("d", "s", "A", 0.1, 0.2, 1.0, 3,
                                  params={"block_size": 10})
        row = result.as_dict()
        assert row["block_size"] == 10 and row["mae"] == 0.1


class TestAnalytics:
    def test_true_and_dropcell_aggregate_agree_when_nothing_missing(self, small_panel):
        np.testing.assert_allclose(drop_cell_aggregate(small_panel),
                                   true_aggregate(small_panel))

    def test_dropcell_aggregate_ignores_missing(self):
        from repro.data.dimensions import Dimension
        from repro.data.tensor import TimeSeriesTensor
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        tensor = TimeSeriesTensor(values=values,
                                  dimensions=[Dimension.categorical("s", 2)])
        missing = np.array([[0.0, 1.0], [0.0, 0.0]])
        incomplete = tensor.with_missing(missing)
        np.testing.assert_allclose(drop_cell_aggregate(incomplete), [2.0, 4.0])

    def test_aggregate_error_handles_nan_estimates(self):
        estimate = np.array([np.nan, 1.0])
        truth = np.array([2.0, 1.0])
        error = aggregate_analytics_error(estimate, truth)
        # nan estimate replaced by the truth's mean (1.5): |1.5-2| / 2 cells
        assert error == pytest.approx(0.25)

    def test_downstream_comparison_perfect_imputer_beats_dropcell(self, small_panel):
        scenario = MissingScenario("mcar", {"incomplete_fraction": 1.0, "block_size": 10})
        incomplete, mask = apply_scenario(small_panel, scenario, seed=3)

        class Oracle(MeanImputer):
            name = "Oracle"

            def fit_impute(self, tensor):
                return small_panel

        comparison = downstream_comparison(
            small_panel, incomplete, {"oracle": Oracle(), "mean": MeanImputer()})
        assert comparison["dropcell_mae"] > 0
        assert comparison["oracle"] == pytest.approx(comparison["dropcell_mae"])
        assert comparison["oracle"] >= comparison["mean"]

    def test_downstream_comparison_multidim_axis(self, small_multidim_panel):
        scenario = MissingScenario("mcar", {"incomplete_fraction": 1.0, "block_size": 5})
        incomplete, _ = apply_scenario(small_multidim_panel, scenario, seed=1)
        comparison = downstream_comparison(
            small_multidim_panel, incomplete, {"interp": LinearInterpolationImputer()})
        assert "interp" in comparison


class TestReportingAndExperiments:
    def _results(self):
        return [
            ExperimentResult("airq", "mcar", "CDRec", 0.5, 0.6, 1.0, 10),
            ExperimentResult("airq", "mcar", "DeepMVI", 0.3, 0.4, 5.0, 10),
            ExperimentResult("climate", "mcar", "DeepMVI", 0.2, 0.3, 5.0, 10),
        ]

    def test_results_to_rows(self):
        rows = results_to_rows(self._results())
        assert len(rows) == 3 and rows[0]["method"] == "CDRec"

    def test_pivot(self):
        table = pivot(self._results())
        assert table["airq"]["DeepMVI"] == 0.3
        assert "CDRec" not in table["climate"]

    def test_format_table_alignment_and_missing_cells(self):
        text = format_table(pivot(self._results()))
        lines = text.splitlines()
        assert "dataset" in lines[0]
        assert any("-" in line for line in lines[1:2])
        assert "0.300" in text
        assert "-" in lines[-1]          # climate has no CDRec entry

    def test_experiment_inventory_covers_all_paper_artifacts(self):
        identifiers = list_experiments()
        for expected in ["table1", "table2", "figure4", "figure5", "figure6",
                         "figure7", "figure8", "figure9", "figure10a",
                         "figure10b", "figure11"]:
            assert expected in identifiers

    def test_every_experiment_uses_registered_datasets_and_scenarios(self):
        from repro.data.datasets import list_datasets
        from repro.data.missing import list_scenarios
        known_datasets = set(list_datasets())
        known_scenarios = set(list_scenarios())
        for spec in EXPERIMENTS.values():
            assert set(spec.datasets) <= known_datasets
            assert set(spec.scenarios) <= known_scenarios | set(STANDARD_SCENARIOS)

    def test_scenario_for_overrides_params(self):
        scenario = scenario_for("mcar", incomplete_fraction=1.0)
        assert scenario.params["incomplete_fraction"] == 1.0
        # the template is not mutated
        assert STANDARD_SCENARIOS["mcar"].params["incomplete_fraction"] == 0.1

    def test_get_experiment(self):
        spec = get_experiment("figure9")
        assert "janatahack" in spec.datasets
        assert "deepmvi1d" in spec.methods
