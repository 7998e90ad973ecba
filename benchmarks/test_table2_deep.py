"""Table 2: comparison with the deep-learning methods.

The paper compares BRITS, GP-VAE, a vanilla Transformer and DeepMVI on the
two multidimensional datasets (M5, JanataHack) under MCAR with 100% of the
series incomplete, and on Climate/Electricity/Meteo under both MCAR and a
size-100 Blackout (scaled down here with the series length).
"""


from repro.data.missing import MissingScenario
from repro.evaluation.reporting import format_table

from benchmarks._harness import bench_dataset, emit, evaluate_cell

METHODS = ("brits", "gpvae", "transformer", "deepmvi")
MCAR = MissingScenario("mcar", {"incomplete_fraction": 1.0, "block_size": 10})
MCAR_DATASETS = ("m5", "janatahack", "climate", "electricity", "meteo")
BLACKOUT_DATASETS = ("climate", "electricity", "meteo")


def _run_mcar():
    table = {}
    for dataset_name in MCAR_DATASETS:
        truth = bench_dataset(dataset_name, seed=0)
        table[dataset_name] = {
            method: evaluate_cell(truth, MCAR, method, seed=1)["mae"]
            for method in METHODS
        }
    return table


def _run_blackout():
    table = {}
    for dataset_name in BLACKOUT_DATASETS:
        truth = bench_dataset(dataset_name, seed=0)
        # The paper uses blocks of 100 on 5k-10k-long series; keep the same
        # ~2-5% relative block length on the scaled-down series.
        block = max(10, truth.n_time // 20)
        scenario = MissingScenario("blackout", {"block_size": block})
        table[dataset_name] = {
            method: evaluate_cell(truth, scenario, method, seed=1)["mae"]
            for method in METHODS
        }
    return table


def test_table2_deep_learning_mcar(benchmark, results_dir):
    table = benchmark.pedantic(_run_mcar, rounds=1, iterations=1)
    emit(results_dir, "table2_mcar",
         "Deep-learning comparison, MCAR x=100%", format_table(table))
    assert set(table) == set(MCAR_DATASETS)


def test_table2_deep_learning_blackout(benchmark, results_dir):
    table = benchmark.pedantic(_run_blackout, rounds=1, iterations=1)
    emit(results_dir, "table2_blackout",
         "Deep-learning comparison, Blackout", format_table(table))
    assert set(table) == set(BLACKOUT_DATASETS)
