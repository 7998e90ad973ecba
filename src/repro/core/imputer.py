"""Public DeepMVI imputation API.

:class:`DeepMVIImputer` follows the same ``fit`` / ``impute`` /
``fit_impute`` protocol as the baseline imputers, so the evaluation harness
and downstream code can treat every method uniformly::

    from repro import DeepMVIImputer, load_dataset, mcar

    data = load_dataset("climate", size="small")
    missing = mcar(data, incomplete_fraction=0.5)
    incomplete = data.with_missing(missing)

    imputer = DeepMVIImputer()
    completed = imputer.fit_impute(incomplete)
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional

import numpy as np

from repro.baselines.base import BaseImputer
from repro.core.config import DeepMVIConfig
from repro.core.context import ContextStructure, DatasetContext, collate
from repro.core.fast_path import FastPathTables, build_fast_path_tables
from repro.core.model import DeepMVIModel
from repro.core.sampling import MissingShapeSampler
from repro.core.training import DeepMVITrainer, TrainingHistory
from repro.data.tensor import TimeSeriesTensor
from repro.exceptions import NotFittedError
from repro.obs.trace import stage


@dataclass
class _Plan:
    """One request on its way through serving.

    Its context, the missing cells still to predict, and the normalised
    matrix the predictions scatter into.
    """

    tensor: TimeSeriesTensor
    context: DatasetContext
    cells: np.ndarray
    matrix: np.ndarray

    def complete(self) -> TimeSeriesTensor:
        filled = self.context.denormalise(self.matrix)
        return self.tensor.fill(filled.reshape(self.tensor.values.shape))


class DeepMVIImputer(BaseImputer):
    """Deep missing-value imputation for multidimensional time series.

    Parameters
    ----------
    config:
        :class:`DeepMVIConfig`; defaults to the laptop-scale configuration.
        The window-size heuristic of the paper (use ``window=20`` when the
        average missing block is longer than 100 steps) is applied
        automatically at :meth:`fit` time unless ``auto_window=False``.
    auto_window:
        Whether to apply the paper's window-size rule based on the observed
        missing-block sizes.
    """

    name = "DeepMVI"
    _fitted_attributes = ("model", "context", "history", "_fitted_tensor",
                          "fast_path_tables")

    def __init__(self, config: Optional[DeepMVIConfig] = None,
                 auto_window: bool = True):
        self.config = config or DeepMVIConfig()
        self.auto_window = auto_window
        self.model: Optional[DeepMVIModel] = None
        self.context: Optional[DatasetContext] = None
        self.history: Optional[TrainingHistory] = None
        self._fitted_tensor: Optional[TimeSeriesTensor] = None
        #: precomputed serving tables (:mod:`repro.core.fast_path`), built
        #: with the model whenever the fast path is on; immutable
        self.fast_path_tables: Optional[FastPathTables] = None
        #: per-plan telemetry of the most recent :meth:`impute_many` call
        self.last_impute_info: Optional[List[Dict[str, object]]] = None

    # ------------------------------------------------------------------ #
    def fit(self, tensor: TimeSeriesTensor) -> "DeepMVIImputer":
        """Train the network on the observed part of ``tensor``."""
        config = self.config
        flat_mask = 1.0 - tensor.to_matrix()[1]
        if self.auto_window:
            index_table = tensor.series_index_table()
            shape_probe = MissingShapeSampler(
                missing_mask=flat_mask,
                index_table=index_table if index_table.shape[1] else
                np.arange(flat_mask.shape[0])[:, None],
                dimension_sizes=[d.size for d in tensor.dimensions] or
                [flat_mask.shape[0]],
            )
            config = config.with_window_for_block_size(
                shape_probe.average_time_extent())
        # The window must divide into a sensible number of windows.
        if config.window >= tensor.n_time:
            config = config.ablated()  # copy
            config.window = max(2, tensor.n_time // 4)

        self.config = config
        # A refit may have changed the window/config: every cached serving
        # template is structured for the old settings.
        self._structure_cache().clear()
        self.fast_path_tables = None
        self.context = self._build_context(tensor)
        self.model = DeepMVIModel(
            config=config,
            dimension_sizes=self.context.dimension_sizes,
            max_position=self.context.n_windows + 1,
        )
        trainer = DeepMVITrainer(
            model=self.model,
            context=self.context,
            config=config,
            missing_mask=1.0 - self.context.avail,
        )
        self.history = trainer.fit()
        self._fitted_tensor = tensor
        self.fast_path_tables = self._build_fast_path()
        return self

    # ------------------------------------------------------------------ #
    def impute(self, tensor: Optional[TimeSeriesTensor] = None) -> TimeSeriesTensor:
        """Fill every missing cell of ``tensor`` (default: the fitted one)."""
        return self.impute_many([tensor])[0]

    def impute_many(self, tensors) -> list:
        """Fill the missing cells of many tensors in one fused forward.

        The serving hot path.  Cells the fast-path tables cover are
        answered from them.  The remaining cells of every tensor whose
        batch structure matches (same context width and sibling counts,
        always true for same-shaped tensors) go through one
        :meth:`DeepMVIModel.predict` call: :func:`collate` keeps one row
        per distinct (request, series row, context start) and (request,
        series row, window), so each context is encoded and each window
        attended once, however many of its cells are missing and however
        many requests share the call.  A cell's answer does not depend on
        which other cells share the call.  Results come back in input
        order; each entry of ``tensors`` may be ``None`` for the fitted
        tensor.
        """
        if self.model is None or self.context is None:
            raise NotFittedError("call fit() before impute()")
        if self.model.training:
            # Module.eval walks every submodule: once, not per request.
            self.model.eval()

        plans = []
        for tensor in tensors:
            plan = self._plan(tensor)
            if plan.context is not self.context:
                self._remember_structure(plan.tensor, plan.context)
            plans.append(plan)

        # Serve what the precomputed tables cover (repeat traffic over the
        # fitted data) with gathers instead of forward passes; only the
        # leftover cells flow into the fused-forward sweep below.
        tables = self.fast_path_tables
        info: list = []
        for plan in plans:
            total = int(plan.cells.shape[0])
            served = 0
            if tables is not None and total:
                hits = self._serve_from_tables(tables, plan)
                if hits is not None:
                    served = int(hits.sum())
                    plan.cells = plan.cells[~hits]
            info.append({
                "cells": total,
                "fast_path_hits": served,
                "fast_path": tables is not None and served == total,
            })
        self.last_impute_info = info

        # Fuse across tensors whose batches can be concatenated.
        groups: dict = {}
        for index, plan in enumerate(plans):
            context = plan.context
            signature = (
                min(context.max_context_windows, context.n_windows),
                context.window,
                tuple(context.sibling_rows(dim).shape[1]
                      for dim in range(context.n_dims)),
            )
            groups.setdefault(signature, []).append(index)

        batch_size = self.config.impute_batch_size
        for indices in groups.values():
            misses = [plans[index] for index in indices
                      if plans[index].cells.shape[0]]
            if not misses:
                continue
            # Each request's cells in impute_batch_size pieces; collate
            # keys contexts and windows per piece, so requests never
            # share a row, and compacts each piece as it is built.
            batch = collate(
                plan.context.build_batch(
                    series_rows=plan.cells[start:start + batch_size, 0],
                    target_times=plan.cells[start:start + batch_size, 1])
                for plan in misses
                for start in range(0, plan.cells.shape[0], batch_size))
            with stage("serve.forward", cells=batch.size):
                predictions = self.model.predict(batch)
            offset = 0
            for plan in misses:
                rows, times = plan.cells.T
                plan.matrix[rows, times] = \
                    predictions[offset:offset + rows.shape[0]]
                offset += rows.shape[0]

        return [plan.complete() for plan in plans]

    # ------------------------------------------------------------------ #
    def fit_impute(self, tensor: TimeSeriesTensor) -> TimeSeriesTensor:
        """Convenience: :meth:`fit` then :meth:`impute` on the same tensor."""
        return self.fit(tensor).impute(tensor)

    # ------------------------------------------------------------------ #
    # serving plans and the fast path (precompute-and-lookup serving)
    # ------------------------------------------------------------------ #
    def _plan(self, tensor: Optional[TimeSeriesTensor]) -> _Plan:
        """Context, missing cells and output matrix of one request.

        ``None`` and the fitted tensor reuse the fitted context.  Any other
        tensor gets a local context around the trained parameters (the
        fitted state must survive for later no-arg calls); structural
        tables are shared via a per-shape template so window-shaped
        traffic pays only the per-request value plumbing, and same-shaped
        traffic normalises with the fitted statistics so unchanged windows
        stay fast-path-compatible.  Reads state only: callers that may
        write the structure cache do so themselves.
        """
        if tensor is None or tensor is self._fitted_tensor:
            tensor, context = self._fitted_tensor, self.context
        else:
            with stage("serve.context_build"):
                context = self._build_context(
                    tensor, structure_from=self._structure_template(tensor),
                    normalisation=self._serving_normalisation(tensor))
        cells = np.argwhere(context.avail == 0)
        # Ignore cells that fall outside the original (unpadded) range.
        cells = cells[cells[:, 1] < context.n_time]
        return _Plan(tensor, context, cells, context.matrix.copy())

    @staticmethod
    def _serve_from_tables(tables: FastPathTables,
                           plan: _Plan) -> Optional[np.ndarray]:
        """Scatter the table hits of ``plan`` into its matrix.

        Returns the per-cell hit mask, or None when the request is
        structurally incompatible with the tables (a total miss).
        """
        match = tables.match_windows(plan.context)
        if match is None:
            return None
        hits, predictions = tables.lookup(plan.context, plan.cells, match)
        hit_cells = plan.cells[hits]
        plan.matrix[hit_cells[:, 0], hit_cells[:, 1]] = predictions[hits]
        return hits

    def _build_fast_path(self) -> Optional[FastPathTables]:
        """Tables for the current model + context (None when off)."""
        if not self.config.fast_path:
            return None
        return build_fast_path_tables(
            self.model, self.context,
            batch_size=self.config.impute_batch_size)

    def try_fast_path(self, tensors) -> Optional[list]:
        """All-or-nothing table-only serving; None unless *every* cell hits.

        No serving tier calls this: :meth:`impute_many` answers each table
        hit per cell on its own.  It reads only immutable state (the table
        object, the frozen fitted context), writes none of the caches and
        gives up at the first request with a miss.
        """
        tables = self.fast_path_tables
        if tables is None or self.model is None or self.context is None:
            return None
        completed = []
        for tensor in tensors:
            plan = self._plan(tensor)
            hits = self._serve_from_tables(tables, plan)
            if hits is None or not hits.all():
                return None
            completed.append(plan.complete())
        return completed

    def fast_path_info(self) -> Dict[str, object]:
        """JSON-able fast-path telemetry (build cost, size)."""
        tables = self.fast_path_tables
        info: Dict[str, object] = {"built": tables is not None}
        if tables is not None:
            info.update(tables.describe())
        return info

    def memory_nbytes(self) -> int:
        """Resident bytes of the fitted state (for LRU byte accounting).

        Sums the live arrays without copying: parameters, the fitted
        tensor, the context's padded buffers and the fast-path tables.
        """
        total = 0
        if self.model is not None:
            total += sum(param.data.nbytes
                         for _, param in self.model.named_parameters())
        if self._fitted_tensor is not None:
            total += self._fitted_tensor.values.nbytes
            total += self._fitted_tensor.mask.nbytes
        if self.context is not None:
            total += self.context.padded_matrix.nbytes
            total += self.context.padded_avail.nbytes
        if self.fast_path_tables is not None:
            total += self.fast_path_tables.nbytes
        return total

    # ------------------------------------------------------------------ #
    # serialisation (engine artifacts / process boundaries)
    # ------------------------------------------------------------------ #
    def _build_context(self, tensor: TimeSeriesTensor,
                       structure_from: Optional[ContextStructure] = None,
                       normalisation: Optional[tuple] = None,
                       ) -> DatasetContext:
        return DatasetContext(
            tensor,
            window=self.config.window,
            max_context_windows=self.config.max_context_windows,
            flatten_dimensions=self.config.flatten_dimensions,
            structure_from=structure_from,
            normalisation=normalisation,
        )

    def _serving_normalisation(self, tensor: TimeSeriesTensor,
                               ) -> Optional[tuple]:
        """Fitted ``(mean, std)`` for same-shaped serving traffic.

        Serving contexts over tensors shaped like the fitted one adopt the
        *training* normalisation instead of re-estimating statistics from
        the request: that is the standard serve-with-training-stats
        contract, and it is what widens the fast path from "globally
        identical snapshot" to **per-window** compatibility — a sliding
        window whose raw content overlaps the fitted data normalises
        bit-identically on the unchanged windows, so
        :meth:`FastPathTables.match_windows` can serve those windows from
        the tables and only the genuinely new windows pay a forward pass.
        Differently-shaped tensors (a refit candidate, an unrelated
        dataset) keep estimating their own statistics.
        """
        if self.context is not None and self._fitted_tensor is not None \
                and tensor.values.shape == self._fitted_tensor.values.shape:
            return (self.context.mean, self.context.std)
        return None

    # -- serving structure cache ---------------------------------------- #
    # Contexts over same-shaped tensors share their structural tables
    # (index table, sibling rows); the serving hot path builds one context
    # per request, so value-free ContextStructure templates are remembered
    # per shape.  The cache is transient (never serialised — get_state
    # doesn't know about it) and lazily created so instances restored via
    # set_state/clone work too; fit() clears it because a refit may change
    # config.window, invalidating every template.
    _STRUCTURE_CACHE_LIMIT = 8

    def _structure_cache(self) -> dict:
        cache = getattr(self, "_serving_structures", None)
        if cache is None:
            cache = {}
            self._serving_structures = cache
        return cache

    def _structure_template(self, tensor: TimeSeriesTensor):
        if self.context is not None and self._fitted_tensor is not None \
                and tensor.values.shape == self._fitted_tensor.values.shape:
            return self.context.structure()
        return self._structure_cache().get(tensor.values.shape)

    def _remember_structure(self, tensor: TimeSeriesTensor,
                            context: DatasetContext) -> None:
        cache = self._structure_cache()
        if len(cache) >= self._STRUCTURE_CACHE_LIMIT \
                and tensor.values.shape not in cache:
            cache.clear()
        # Unconditional refresh: a template gone stale (e.g. the window
        # changed between refits) must be replaced, not shadow the cache
        # slot forever.  Only the value-free structural tables are kept.
        cache[tensor.values.shape] = context.structure()

    def get_state(self) -> Dict[str, object]:
        """Snapshot config + trained parameters as arrays and plain values.

        The network itself is not stored — only its ``state_dict`` plus the
        structural facts needed to rebuild it — so the snapshot is picklable
        and artifact-serialisable.
        """
        state: Dict[str, object] = {
            "name": self.name,
            "config": asdict(self.config),
            "auto_window": self.auto_window,
            "fitted_tensor": (self._fitted_tensor.copy()
                              if self._fitted_tensor is not None else None),
            "model": None,
            "history": None,
            # Tables travel with the model so cold-started stores serve
            # fast immediately (no rebuild on artifact load).
            "fast_path": (self.fast_path_tables.to_state()
                          if self.fast_path_tables is not None else None),
        }
        if self.model is not None:
            state["model"] = {
                "dimension_sizes": list(self.model.dimension_sizes),
                "max_position": int(self.model.max_position),
                "state_dict": self.model.state_dict(),
            }
        if self.history is not None:
            state["history"] = {
                "train_losses": list(self.history.train_losses),
                "validation_losses": list(self.history.validation_losses),
                "best_epoch": self.history.best_epoch,
                "best_validation_loss": self.history.best_validation_loss,
                "stopped_early": self.history.stopped_early,
                "wall_time_seconds": self.history.wall_time_seconds,
            }
        return state

    def set_state(self, state: Dict[str, object]) -> "DeepMVIImputer":
        """Rebuild the imputer — network, context and all — from a snapshot."""
        self.name = state.get("name", type(self).name)
        # States saved by earlier versions may carry fields the config no
        # longer has (a table staleness budget), which are dropped, and a
        # fast-path mode string, of which only "off" meant no tables.
        known = {item.name for item in fields(DeepMVIConfig)}
        config = {key: value for key, value in state["config"].items()
                  if key in known}
        if isinstance(config.get("fast_path"), str):
            config["fast_path"] = config["fast_path"] != "off"
        self.config = DeepMVIConfig(**config)
        self.auto_window = bool(state["auto_window"])
        self._fitted_tensor = state.get("fitted_tensor")
        self.model = None
        self.context = None
        self.history = None
        self.fast_path_tables = None
        self.last_impute_info = None

        model_state = state.get("model")
        if model_state is not None:
            self.model = DeepMVIModel(
                config=self.config,
                dimension_sizes=list(model_state["dimension_sizes"]),
                max_position=int(model_state["max_position"]),
            )
            self.model.load_state_dict(model_state["state_dict"])
        if self._fitted_tensor is not None and self.model is not None:
            self.context = self._build_context(self._fitted_tensor)

        fast_state = state.get("fast_path")
        if self.context is not None and self.config.fast_path:
            # Hit detection re-anchors on the rebuilt context's padded
            # arrays; the reference data itself is never stored twice.
            # States saved without tables get them built here.
            self.fast_path_tables = (
                FastPathTables.from_state(fast_state).attach(self.context)
                if fast_state is not None else self._build_fast_path())

        history_state = state.get("history")
        if history_state is not None:
            self.history = TrainingHistory(
                train_losses=list(history_state["train_losses"]),
                validation_losses=list(history_state["validation_losses"]),
                best_epoch=int(history_state["best_epoch"]),
                best_validation_loss=float(history_state["best_validation_loss"]),
                stopped_early=bool(history_state["stopped_early"]),
                wall_time_seconds=float(history_state["wall_time_seconds"]),
            )
        return self

