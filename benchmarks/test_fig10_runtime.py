"""Figure 10: runtime analysis.

10a — absolute runtime of each method per dataset under MCAR x=100%.  The
paper's shape: matrix-factorisation methods are orders of magnitude faster
than the deep methods, DynaMMO is the slowest conventional method, and
DeepMVI is several times faster than the vanilla Transformer.

10b — DeepMVI runtime as a function of series length (10 series), showing
sub-linear growth because training sees a bounded number of sampled
contexts.
"""


from repro.data.datasets import load_dataset
from repro.data.missing import MissingScenario
from repro.evaluation.reporting import format_table

from benchmarks._harness import (
    bench_dataset,
    emit,
    evaluate_cell,
    is_fast,
)

if is_fast():
    # REPRO_BENCH_FAST: the smoke grid keeps one cheap and one deep method
    # on two datasets so CI proves the figure still *runs*, not its shape.
    DATASETS_10A = ("airq", "climate")
    METHODS_10A = ("cdrec", "svdimp", "deepmvi")
    LENGTHS_10B = (64, 128)
else:
    DATASETS_10A = ("airq", "climate", "meteo", "janatahack", "bafu")
    METHODS_10A = ("cdrec", "svdimp", "trmf", "dynammo", "transformer", "deepmvi")
    LENGTHS_10B = (128, 256, 512, 1024)
MCAR = MissingScenario("mcar", {"incomplete_fraction": 1.0, "block_size": 10})


def _run_10a():
    table = {}
    for dataset_name in DATASETS_10A:
        truth = bench_dataset(dataset_name, seed=0)
        table[dataset_name] = {
            method: evaluate_cell(truth, MCAR, method, seed=1)["runtime"]
            for method in METHODS_10A
        }
    return table


def _run_10b():
    points = []
    for length in LENGTHS_10B:
        truth = load_dataset("airq", seed=0, length=length, shape=(10,))
        cell = evaluate_cell(truth, MCAR, "deepmvi", seed=1)
        points.append((length, cell["runtime"]))
    return points


def test_fig10a_absolute_runtime(benchmark, results_dir):
    table = benchmark.pedantic(_run_10a, rounds=1, iterations=1)
    text = format_table(table, value_format="{:.2f}")
    emit(results_dir, "figure10a", "Absolute runtime in seconds (MCAR x=100%)", text)
    assert set(table) == set(DATASETS_10A)


def test_fig10b_deepmvi_runtime_vs_length(benchmark, results_dir):
    points = benchmark.pedantic(_run_10b, rounds=1, iterations=1)
    lines = ["series length -> DeepMVI runtime (seconds)"]
    lines += [f"  {length:>6} -> {runtime:.2f}" for length, runtime in points]
    emit(results_dir, "figure10b", "DeepMVI runtime vs series length", "\n".join(lines))
    assert len(points) == len(LENGTHS_10B)
