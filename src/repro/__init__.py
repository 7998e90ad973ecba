"""repro: reproduction of DeepMVI (VLDB 2021).

Missing value imputation on multidimensional time series.  The package is
organised as:

``repro.nn``
    A small reverse-mode autograd engine with layers and optimisers used to
    implement the deep models (DeepMVI, BRITS, GP-VAE, Transformer).
``repro.data``
    The multidimensional time-series tensor container, missing-value
    scenario generators, and synthetic stand-ins for the paper's datasets.
``repro.core``
    The DeepMVI model (temporal transformer, fine-grained signal, kernel
    regression) and its self-supervised training procedure.
``repro.baselines``
    Conventional and deep-learning comparison methods.
``repro.evaluation``
    Metrics, the experiment runner, and downstream-analytics tools.
``repro.engine``
    The experiment engine: hashable grid-cell jobs, serial/process-pool
    executors, a resumable result cache, and fitted-imputer artifacts.
``repro.api``
    The public service layer: typed requests, the fit-once/serve-many
    :class:`~repro.api.ImputationService`, the ``repro.api.impute``
    one-liner, and the capability-aware method registry.
``repro.streaming``
    Windowed incremental serving for live feeds: sliding
    :class:`~repro.streaming.WindowedStream` chunks, the multi-stream
    :class:`~repro.streaming.StreamingService` (warm-started or refitted
    on a bounded history every K windows), and the
    :func:`~repro.streaming.replay` scoring harness.
``repro.gateway``
    The concurrent serving gateway: a bounded two-lane request queue with
    admission control and deadlines, an adaptive micro-batcher fusing
    same-model requests into shared forward calls, a worker pool over the
    store's LRU model cache, and serving telemetry
    (:meth:`~repro.gateway.Gateway.stats`).
``repro.cluster``
    The sharded, durable serving tier: consistent-hash routing of models
    across shard worker processes, a SQLite-backed durable store with an
    append-only request journal and exactly-once replay on restart, the
    :class:`~repro.cluster.ClusterRouter` front door (same
    ``submit()/gather()`` surface as the service), and SQL
    window-function analytics over the request logs.
``repro.online``
    Closed-loop online learning: per-stream drift detectors scoring
    self-masked probe cells, drift-triggered warm-start refits into
    versioned model lineages (``model_id@version``,
    :class:`~repro.api.ModelRef`), and a canary controller that
    shadow-scores each new version before promoting it to ``@latest``
    (or rolling it back), journalling every transition.
``repro.obs``
    End-to-end observability across the serving stack: head-sampled
    request tracing (:class:`~repro.obs.TraceContext` propagated from
    gateway admission through the cluster wire protocol into shard
    processes, spans appended to per-process ``traces.jsonl``), stage
    profiling hooks that collapse to no-ops when disabled, a metrics
    registry with a Prometheus text-format HTTP exporter, and the
    ``repro-obs`` CLI for span-tree reconstruction and per-stage
    latency breakdowns.
``repro.analysis``
    The repo's own analysis tooling: the repro-lint AST checker
    (``python -m repro.analysis``) enforcing the project invariants,
    the ``REPRO_LOCKCHECK=1`` dynamic lock-order and guarded-attribute
    detector, and the mypy type-coverage ratchet.  Deliberately not
    imported here: it is a dev/CI tool, not part of the serving
    surface.
"""

from repro.core.config import DeepMVIConfig
from repro.core.imputer import DeepMVIImputer
from repro.data.tensor import TimeSeriesTensor
from repro.data.datasets import load_dataset, list_datasets
from repro.data.missing import (
    MissingScenario,
    mcar,
    mcar_points,
    miss_disj,
    miss_over,
    blackout,
    drift_outage,
    correlated_failure,
    periodic_outage,
)
from repro.evaluation.metrics import mae, rmse
from repro.evaluation.runner import ExperimentRunner
from repro.engine import load_imputer, save_imputer
from repro import api
from repro.api import (
    FitRequest,
    ImputationService,
    ImputeRequest,
    ImputeResult,
)
from repro import streaming
from repro.streaming import StreamingService, StreamWindow, WindowedStream
from repro import gateway
from repro.gateway import Gateway, GatewayConfig
from repro import cluster
from repro.cluster import ClusterRouter
from repro import online
from repro.online import OnlineLoop
from repro import obs
from repro.obs import MetricsExporter, TraceContext

__version__ = "1.8.0"

__all__ = [
    "api",
    "cluster",
    "ClusterRouter",
    "online",
    "OnlineLoop",
    "obs",
    "MetricsExporter",
    "TraceContext",
    "gateway",
    "Gateway",
    "GatewayConfig",
    "streaming",
    "StreamingService",
    "StreamWindow",
    "WindowedStream",
    "FitRequest",
    "ImputationService",
    "ImputeRequest",
    "ImputeResult",
    "DeepMVIConfig",
    "DeepMVIImputer",
    "TimeSeriesTensor",
    "load_dataset",
    "list_datasets",
    "MissingScenario",
    "mcar",
    "mcar_points",
    "miss_disj",
    "miss_over",
    "blackout",
    "drift_outage",
    "correlated_failure",
    "periodic_outage",
    "mae",
    "rmse",
    "ExperimentRunner",
    "save_imputer",
    "load_imputer",
    "__version__",
]
