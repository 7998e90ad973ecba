"""Precompute-and-lookup fast path for steady-state DeepMVI serving.

A cell that misses the tables runs the serving forward of
:meth:`~repro.core.model.DeepMVIModel.predict` in three stages: once per
distinct context, once per distinct window, once per cell.  The tables
memoise the first two, borrowing the ``fast_regressor`` idiom from
MuyGPyS: at fit / refit time :func:`build_fast_path_tables` runs stages
1-2 over every fitted window that holds a missing cell and stores their
results; at serve time a cell whose (series, window) keys hit the tables
skips to the shared per-cell step
(:func:`~repro.core.model.serve_cells`): NumPy gathers plus one small
matmul.  Every other cell goes through the forward.

Why the tables are exact, not approximate — every signal of Eqn. 6
factorises over keys that can be enumerated at fit time:

* ``htt`` — :meth:`~repro.core.temporal_transformer.TemporalTransformer.
  pooled_hidden` depends only on the target's *(series row, absolute
  window)* pair: the attention context, mask and query are all derived
  from the window, never from the offset inside it.  The per-offset
  decode (Eqn. 14) is a ``(1, p) @ (p, p)`` matmul against a frozen
  slice of the position decoder — the one small matmul of the lookup.
* ``hfg`` — the fine-grained signal is the masked mean of the target
  window: again a pure *(series, window)* function.
* ``hkr`` — the kernel-regression summaries (U/V/W, Eqns. 17-21) depend
  on the sibling values at the target *(series, time)* cell, with the
  learned embeddings and the top-L pre-selection frozen after training.
  They are precomputed per fitted-missing cell.
* the output layer is a frozen affine map over the concatenated signals,
  applied by the same per-row reduction as on a miss.

A request hits the table for cell ``(r, t)`` when its *normalised* data
agrees with the fitted tensor on every window the prediction reads:
series ``r``'s windows across the bounded attention context of ``t``, and
every series' window at ``t`` (the sibling column).  Requests for the
fitted tensor itself (``data=None``) hit trivially; identical-content
copies hit after an elementwise comparison; anything else falls back to
the fused forward — which is why the lookup can be bit-comparable to the
full network instead of "close".

The hit condition is **per window**, not all-or-nothing: serving
contexts over tensors shaped like the fitted one adopt the fitted
normalisation (:meth:`DeepMVIImputer._serving_normalisation`), so the
global mean/std compatibility check in :meth:`FastPathTables.
match_windows` passes for any same-shaped request and raw per-window
content agreement decides each window individually.  Sliding-window
streaming traffic therefore serves its unchanged windows from the tables
and pays forward passes only for the windows that actually moved.

Tables are built together with the model they serve (at fit time, or
when a saved model without tables is restored) and are exact for it, so
they have no lifecycle: no staleness, no refresh.  They are immutable
once built; serving reads them per cell inside
:meth:`DeepMVIImputer.impute_many`, which the gateway runs under its
model lock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.context import DatasetContext, collate
from repro.core.model import row_chunks, serve_cells
from repro.obs.trace import stage

__all__ = ["FastPathTables", "build_fast_path_tables", "verify_fast_path"]


@dataclass
class FastPathTables:
    """Per-model lookup tables answering table-hit cells without a forward.

    Built by :func:`build_fast_path_tables`; attached to the fitted
    context with :meth:`attach` (the reference arrays used for hit
    detection are re-derived from the fitted tensor after deserialisation,
    so they are never stored twice).
    """

    # -- compatibility facts (a request must agree on all of these) ------ #
    window: int
    n_series: int
    n_windows: int
    n_time: int
    padded_time: int
    mean: float
    std: float

    # -- per-(series, window) tables ------------------------------------- #
    #: (n_series, n_windows) slot of each window in ``hidden``/``fg``; -1
    #: for windows holding no fitted-missing cell (they never need serving)
    window_slot: np.ndarray = None
    #: (K, p) pooled hidden vectors of the temporal transformer, or None
    #: when the module is ablated
    hidden: Optional[np.ndarray] = None
    #: (K,) fine-grained window means, or None when ablated
    fg: Optional[np.ndarray] = None

    # -- per-cell tables -------------------------------------------------- #
    #: (n_series, n_time) slot of each fitted-missing cell in ``kr``; -1
    #: for observed cells
    cell_slot: np.ndarray = None
    #: (M, 3 * n_dims) kernel-regression U/V/W rows, or None when ablated
    kr: Optional[np.ndarray] = None

    # -- frozen output parameters ----------------------------------------- #
    #: (w, p, p) position decoder (Eqn. 14), or None without the transformer
    position_decoder: Optional[np.ndarray] = None
    #: (w, p) position bias, or None without the transformer
    position_bias: Optional[np.ndarray] = None
    #: (input_dim, 1) output-layer weight
    output_weight: np.ndarray = None
    #: (1,) output-layer bias
    output_bias: np.ndarray = None

    # -- provenance -------------------------------------------------------- #
    #: number of fitted-missing cells the tables cover
    cells: int = 0
    #: wall-clock seconds the build took
    build_seconds: float = 0.0

    # -- attached, never serialised ---------------------------------------- #
    #: padded normalised fitted matrix / availability, for hit detection
    _ref_matrix: Optional[np.ndarray] = field(default=None, repr=False)
    _ref_avail: Optional[np.ndarray] = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    def attach(self, context: DatasetContext) -> "FastPathTables":
        """Point hit detection at the fitted context's padded arrays."""
        self._ref_matrix = context.padded_matrix
        self._ref_avail = context.padded_avail
        return self

    @property
    def nbytes(self) -> int:
        """Memory footprint of the table arrays (for LRU accounting)."""
        total = 0
        for array in (self.window_slot, self.hidden, self.fg, self.cell_slot,
                      self.kr, self.position_decoder, self.position_bias,
                      self.output_weight, self.output_bias):
            if array is not None:
                total += array.nbytes
        return total

    # ------------------------------------------------------------------ #
    def match_windows(self, context: DatasetContext) -> Optional[np.ndarray]:
        """Per-(series, window) agreement of a request with the fitted data.

        Returns an ``(n_series, n_windows)`` boolean matrix, or ``None``
        when the request context is structurally incompatible (different
        shape, window size or normalisation) — a total miss.  Comparison
        happens on the *normalised* padded matrices: the network only ever
        sees normalised values, so agreement there is exactly the
        condition under which the precomputed signals apply (the context's
        mean/std are used for denormalisation either way).

        The mean/std equality below is not as restrictive as it looks:
        same-shaped serving contexts are built with the *fitted*
        normalisation (:meth:`DeepMVIImputer._serving_normalisation`), so
        for them the check passes by construction and per-window raw
        content agreement decides hits — which is what lets sliding-window
        traffic hit on its unchanged windows.  Contexts that estimated
        their own statistics (differently-shaped tensors, tables restored
        against a different fit) still miss wholesale here, keeping the
        lookups exact.
        """
        if self._ref_matrix is None or self._ref_avail is None:
            return None
        if (context.window != self.window
                or context.n_series != self.n_series
                or context.n_windows != self.n_windows
                or context.padded_time != self.padded_time
                or float(context.mean) != self.mean
                or float(context.std) != self.std):
            return None
        if context.padded_matrix is self._ref_matrix:
            # The fitted context itself (data=None requests): trivial hit.
            return np.ones((self.n_series, self.n_windows), dtype=bool)
        shape = (self.n_series, self.n_windows, self.window)
        values_equal = (context.padded_matrix.reshape(shape)
                        == self._ref_matrix.reshape(shape)).all(axis=2)
        avail_equal = (context.padded_avail.reshape(shape)
                       == self._ref_avail.reshape(shape)).all(axis=2)
        return values_equal & avail_equal

    def lookup(self, context: DatasetContext, cells: np.ndarray,
               match: np.ndarray):
        """Serve the table-hit subset of ``cells``: gathers + the cell step.

        Hits skip stages 1-2 of :meth:`DeepMVIModel.predict` and run its
        stage 3, :func:`~repro.core.model.serve_cells`, on the stored
        signals, so a hit gives the miss path's answer bit for bit.

        Parameters
        ----------
        context:
            The request's :class:`DatasetContext` (already known
            compatible — ``match`` came from :meth:`match_windows`).
        cells:
            ``(B, 2)`` array of (series row, time) missing cells.
        match:
            The window-agreement matrix from :meth:`match_windows`.

        Returns
        -------
        (hits, predictions):
            ``hits`` is a ``(B,)`` boolean mask of cells answered from the
            tables; ``predictions`` is a ``(B,)`` array of normalised
            predictions, valid only where ``hits`` is True.
        """
        predictions = np.zeros(cells.shape[0])
        if cells.shape[0] == 0:
            return np.zeros(0, dtype=bool), predictions
        # The profiling hook attaches to the active trace span (a traced
        # request activated by the serving tier); untraced calls get a
        # shared no-op.
        with stage("serve.table_lookup", cells=int(cells.shape[0])):
            rows = cells[:, 0]
            times = cells[:, 1]
            windows = times // self.window

            # A cell hits when (a) the target series' windows agree across
            # the whole bounded attention context (what pooled_hidden
            # reads), and (b) every series' window at the target time
            # agrees (what the kernel regression's sibling gather reads).
            # Both checks run on the match matrix with one cumulative sum —
            # no per-cell loops.
            col_ok = match.all(axis=0)                          # (n_windows,)
            bad = np.concatenate(
                [np.zeros((self.n_series, 1), dtype=np.int64),
                 (~match).astype(np.int64).cumsum(axis=1)], axis=1)
            start, span = context.context_span(times)
            span_ok = (bad[rows, start + span] - bad[rows, start]) == 0
            wslot = self.window_slot[rows, windows]
            cslot = self.cell_slot[rows, times]
            hits = span_ok & col_ok[windows] & (wslot >= 0) & (cslot >= 0)
            if not hits.any():
                return hits, predictions

            windows = wslot[hits]
            predictions[hits] = serve_cells(
                None if self.hidden is None else self.hidden[windows],
                times[hits] % self.window,
                None if self.fg is None else self.fg[windows],
                None if self.kr is None else self.kr[cslot[hits]],
                self.position_decoder, self.position_bias,
                self.output_weight, self.output_bias)
            return hits, predictions

    # ------------------------------------------------------------------ #
    # serialisation (rides inside DeepMVIImputer.get_state)
    # ------------------------------------------------------------------ #
    def to_state(self) -> Dict[str, object]:
        return {
            "window": int(self.window),
            "n_series": int(self.n_series),
            "n_windows": int(self.n_windows),
            "n_time": int(self.n_time),
            "padded_time": int(self.padded_time),
            "mean": float(self.mean),
            "std": float(self.std),
            "window_slot": self.window_slot,
            "hidden": self.hidden,
            "fg": self.fg,
            "cell_slot": self.cell_slot,
            "kr": self.kr,
            "position_decoder": self.position_decoder,
            "position_bias": self.position_bias,
            "output_weight": self.output_weight,
            "output_bias": self.output_bias,
            "cells": int(self.cells),
            "build_seconds": float(self.build_seconds),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "FastPathTables":
        # Keys not read here (states saved by earlier versions also carry
        # a build timestamp) are ignored.
        return cls(
            window=int(state["window"]),
            n_series=int(state["n_series"]),
            n_windows=int(state["n_windows"]),
            n_time=int(state["n_time"]),
            padded_time=int(state["padded_time"]),
            mean=float(state["mean"]),
            std=float(state["std"]),
            window_slot=np.asarray(state["window_slot"]),
            hidden=None if state["hidden"] is None
            else np.asarray(state["hidden"]),
            fg=None if state["fg"] is None else np.asarray(state["fg"]),
            cell_slot=np.asarray(state["cell_slot"]),
            kr=None if state["kr"] is None else np.asarray(state["kr"]),
            position_decoder=None if state["position_decoder"] is None
            else np.asarray(state["position_decoder"]),
            position_bias=None if state["position_bias"] is None
            else np.asarray(state["position_bias"]),
            output_weight=np.asarray(state["output_weight"]),
            output_bias=np.asarray(state["output_bias"]),
            cells=int(state["cells"]),
            build_seconds=float(state["build_seconds"]),
        )

    def describe(self) -> Dict[str, object]:
        """JSON-able summary for telemetry (Gateway.stats, CLI tables)."""
        return {
            "cells": int(self.cells),
            "windows": int((self.window_slot >= 0).sum())
            if self.window_slot is not None else 0,
            "nbytes": int(self.nbytes),
            "build_seconds": float(self.build_seconds),
        }


# ---------------------------------------------------------------------- #
def build_fast_path_tables(model, context: DatasetContext,
                           batch_size: int = 256) -> FastPathTables:
    """Precompute the serving tables for a fitted model + context.

    Fills the per-window rows with stages 1-2 of
    :meth:`DeepMVIModel.predict` (:meth:`DeepMVIModel.window_signals`)
    and the per-cell kernel-regression rows with the real module, in
    ``impute_batch_size`` chunks, so the tables memoise exactly what a
    miss computes: a hit then runs only the shared per-cell step.  Cost
    is one imputation sweep's worth of forward work, paid once per fit
    instead of once per request.
    """
    from repro.nn.tensor import no_grad

    start_clock = time.perf_counter()

    missing = np.argwhere(context.avail == 0)
    missing = missing[missing[:, 1] < context.n_time]
    rows = missing[:, 0].astype(np.int64)
    times = missing[:, 1].astype(np.int64)
    n_cells = rows.shape[0]

    cell_slot = np.full((context.n_series, context.n_time), -1, dtype=np.int64)
    cell_slot[rows, times] = np.arange(n_cells)

    # One hidden/fg row per distinct (series, window) pair holding at least
    # one fitted-missing cell; any cell of the pair is a valid
    # representative because neither signal depends on the offset.
    window_slot = np.full((context.n_series, context.n_windows), -1,
                          dtype=np.int64)
    pair_keys = rows * context.n_windows + (times // context.window)
    _, first_index = np.unique(pair_keys, return_index=True)
    rep_rows = rows[first_index]
    rep_times = times[first_index]
    n_pairs = rep_rows.shape[0]
    window_slot[rep_rows, rep_times // context.window] = np.arange(n_pairs)

    hidden = fg = None
    if n_pairs:
        # Stages 1-2 of the serving forward, one representative cell per
        # pair: every context is encoded once for all of its windows.
        batch = collate(
            context.build_batch(rep_rows[start:start + batch_size],
                                rep_times[start:start + batch_size])
            for start in range(0, n_pairs, batch_size))
        hidden, fg = model.window_signals(batch)
        hidden = None if hidden is None else hidden[batch.window_index]
        fg = None if fg is None else fg[batch.window_index]
    else:
        if model.temporal_transformer is not None:
            hidden = np.zeros((0, model.temporal_transformer.output_dim))
        if model.config.use_fine_grained:
            fg = np.zeros(0)

    kr = None
    if model.kernel_regression is not None:
        kr = np.zeros((n_cells, model.kernel_regression.output_dim))
        for chunk in row_chunks(n_cells, batch_size):
            batch = context.build_batch(rows[chunk], times[chunk])
            with no_grad():
                hkr = model.kernel_regression(
                    batch.member_indices, batch.sibling_member_indices,
                    batch.sibling_values, batch.sibling_avail)
            kr[chunk] = hkr.data

    transformer = model.temporal_transformer
    tables = FastPathTables(
        window=int(context.window),
        n_series=int(context.n_series),
        n_windows=int(context.n_windows),
        n_time=int(context.n_time),
        padded_time=int(context.padded_time),
        mean=float(context.mean),
        std=float(context.std),
        window_slot=window_slot,
        hidden=hidden,
        fg=fg,
        cell_slot=cell_slot,
        kr=kr,
        position_decoder=None if transformer is None
        else transformer.position_decoder.data.copy(),
        position_bias=None if transformer is None
        else transformer.position_bias.data.copy(),
        output_weight=model.output_layer.weight.data.copy(),
        output_bias=model.output_layer.bias.data.copy(),
        cells=int(n_cells),
        build_seconds=time.perf_counter() - start_clock,
    )
    return tables.attach(context)


# ---------------------------------------------------------------------- #
def verify_fast_path(model, context: DatasetContext,
                     tables: FastPathTables) -> Dict[str, float]:
    """Equivalence oracle: table lookup vs the full forward, cell by cell.

    Runs both paths over every fitted-missing cell of ``context`` and
    reports the hit coverage plus the worst absolute deviation.  Used by
    the equivalence test suite; also handy for ad-hoc validation after a
    refactor of either path.
    """
    missing = np.argwhere(context.avail == 0)
    missing = missing[missing[:, 1] < context.n_time]
    match = tables.match_windows(context)
    if match is None:
        raise ValueError("tables are incompatible with the given context")
    if missing.shape[0] == 0:
        return {"cells": 0, "hits": 0, "hit_rate": 1.0,
                "max_abs_diff": 0.0, "exact_matches": 0}
    hits, fast = tables.lookup(context, missing, match)
    batch = context.build_batch(missing[:, 0], missing[:, 1])
    full = model.predict(batch)
    deviation = np.abs(fast[hits] - full[hits])
    return {
        "cells": int(missing.shape[0]),
        "hits": int(hits.sum()),
        "hit_rate": float(hits.mean()) if missing.shape[0] else 1.0,
        "max_abs_diff": float(deviation.max()) if hits.any() else 0.0,
        "exact_matches": int((fast[hits] == full[hits]).sum()),
    }
