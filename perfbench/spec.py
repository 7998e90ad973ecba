"""The benchmark's definition, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the single source of the
workloads, metrics, units, directions and bounds; :func:`load` only reads
it.  What this module adds is :data:`EXACT_COUNTS`, the per-layer metrics
that must repeat exactly for one seed.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: per-layer metrics that are counts over the fixed, seed-determined
#: verification request set: they must repeat exactly for one seed
EXACT_COUNTS = (
    "core.fit_epochs",
    "core.forward_cells_per_req",
    "core.cells_per_window",
    "core.fast_path_hit_rate",
    "api.fallback_batches",
    "cluster.journal_records_per_req",
    "cluster.ledger_hit_rate",
)


@dataclass(frozen=True)
class Definition:
    document: dict
    run_seconds: int
    #: workload name -> why it exists
    workloads: Dict[str, str]
    end_to_end: List[str]
    per_layer: List[str]
    units: Dict[str, str]


@functools.lru_cache(maxsize=1)
def load() -> Definition:
    document = json.loads(PATH.read_text())
    metrics = document["end_to_end"] + document["per_layer"]
    return Definition(
        document=document,
        run_seconds=document["run_seconds"],
        workloads={entry["name"]: entry["why"]
                   for entry in document["workloads"]},
        end_to_end=[entry["name"] for entry in document["end_to_end"]],
        per_layer=[entry["name"] for entry in document["per_layer"]],
        units={entry["name"]: entry["unit"] for entry in metrics})
