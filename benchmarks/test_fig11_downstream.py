"""Figure 11: impact of imputation on downstream analytics.

For Climate, Electricity, JanataHack and M5 (MCAR, 100% incomplete series)
the paper aggregates over the first dimension and reports
``MAE(DropCell) − MAE(method)`` — how much better the aggregate becomes by
imputing rather than dropping the missing cells.
"""

from repro.data.missing import MissingScenario, apply_scenario
from repro.evaluation.analytics import downstream_comparison
from repro.evaluation.reporting import format_table

from benchmarks._harness import bench_dataset, build_method, emit

DATASETS = ("climate", "electricity", "janatahack", "m5")
METHODS = ("cdrec", "brits", "gpvae", "transformer", "deepmvi")
MCAR = MissingScenario("mcar", {"incomplete_fraction": 1.0, "block_size": 10})


def _run():
    table = {}
    dropcell = {}
    for dataset_name in DATASETS:
        truth = bench_dataset(dataset_name, seed=0)
        incomplete, _ = apply_scenario(truth, MCAR, seed=1)
        imputers = {method: build_method(method) for method in METHODS}
        comparison = downstream_comparison(truth, incomplete, imputers, axis=0)
        dropcell[dataset_name] = comparison.pop("dropcell_mae")
        table[dataset_name] = comparison
    return table, dropcell


def test_fig11_downstream_analytics(benchmark, results_dir):
    table, dropcell = benchmark.pedantic(_run, rounds=1, iterations=1)
    text = format_table(table, value_format="{:+.4f}")
    text += "\n\nDropCell aggregate MAE per dataset: " + ", ".join(
        f"{dataset}={value:.4f}" for dataset, value in dropcell.items())
    text += "\n(positive entries: imputing beats dropping the missing cells)"
    emit(results_dir, "figure11",
         "Downstream analytics: MAE(DropCell) - MAE(method)", text)
    assert set(table) == set(DATASETS)
    for row in table.values():
        assert set(row) == set(METHODS)
