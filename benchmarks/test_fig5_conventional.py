"""Figure 5: conventional methods on five datasets under the four scenarios.

The paper reports MAE bars for CDRec, DynaMMO, TRMF, SVDImp and DeepMVI on
Chlorine, Temperature, Gas, Meteo and BAFU with x=10% incomplete series
(block size 10) and a size-10 Blackout.  One benchmark per scenario; each
prints a dataset x method MAE table plus the per-dataset winner.
"""

import pytest

from repro.data.missing import MissingScenario
from repro.evaluation.reporting import format_table

from benchmarks._harness import (
    emit,
    evaluate_grid,
    rows_to_table,
    winner_per_row,
)

DATASETS = ("chlorine", "temperature", "gas", "meteo", "bafu")
METHODS = ("cdrec", "dynammo", "trmf", "svdimp", "deepmvi")

SCENARIOS = {
    "mcar": MissingScenario("mcar", {"incomplete_fraction": 0.1, "block_size": 10}),
    "miss_disj": MissingScenario("miss_disj", {"incomplete_fraction": 1.0}),
    "miss_over": MissingScenario("miss_over", {"incomplete_fraction": 1.0}),
    "blackout": MissingScenario("blackout", {"block_size": 10}),
}


@pytest.mark.parametrize("scenario_name", list(SCENARIOS))
def test_fig5_conventional_methods(benchmark, results_dir, scenario_name):
    scenario = SCENARIOS[scenario_name]
    rows = benchmark.pedantic(
        evaluate_grid, args=(DATASETS, {scenario_name: scenario}, METHODS),
        rounds=1, iterations=1)
    table = rows_to_table(rows)
    winners = winner_per_row(table)
    text = format_table(table) + "\n\nper-dataset winner: " + ", ".join(
        f"{dataset}->{method}" for dataset, method in winners.items())
    emit(results_dir, f"figure5_{scenario_name}",
         f"Conventional methods, {scenario_name} (x=10%)", text)

    assert set(table) == set(DATASETS)
    for row in table.values():
        assert set(row) == set(METHODS)
