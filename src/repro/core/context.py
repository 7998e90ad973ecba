"""Dataset context and batch construction for DeepMVI.

The neural modules only ever see small numpy arrays describing a batch of
target cells (their temporal context windows, sibling values, availability
masks).  This module owns the bookkeeping that turns a
:class:`~repro.data.tensor.TimeSeriesTensor` into those arrays:

* flattening to a ``(n_series, T)`` matrix and padding the time axis to a
  multiple of the window size;
* mapping flat series rows to per-dimension member indices and sibling rows;
* cropping a bounded context of windows around each target;
* gathering sibling values at the target time, honouring both the dataset's
  availability and the per-sample synthetic missing cuboid used in training;
* collating serving requests so that each distinct context and window is
  forwarded once (:func:`collate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.data.tensor import TimeSeriesTensor


@dataclass
class Batch:
    """Inputs for one forward pass of :class:`repro.core.model.DeepMVIModel`.

    Three kinds of rows: contexts (``window_values`` and its siblings),
    windows (``target_window``) and target cells (everything else).
    :meth:`DatasetContext.build_batch` gives every cell its own window
    and context; :func:`collate` shares them between the cells of one
    request and maps rows through ``context_index`` and ``window_index``.
    """

    #: (N, C, w) context-window values (missing -> 0)
    window_values: np.ndarray
    #: (N, C, w) availability of the context windows
    window_avail: np.ndarray
    #: (N, C) absolute window index of each context window
    absolute_index: np.ndarray
    #: (W,) index within its context of each window
    target_window: np.ndarray
    #: (B,) offset of the target inside its window
    target_offset: np.ndarray
    #: (B, n_dims) member index of the target along each dimension
    member_indices: np.ndarray
    #: per-dimension (B, S_i) sibling member indices
    sibling_member_indices: List[np.ndarray] = field(default_factory=list)
    #: per-dimension (B, S_i) sibling values at the target time (missing -> 0)
    sibling_values: List[np.ndarray] = field(default_factory=list)
    #: per-dimension (B, S_i) sibling availability
    sibling_avail: List[np.ndarray] = field(default_factory=list)
    #: (B,) ground-truth values (training only; zeros at inference)
    targets: np.ndarray = None
    #: (B,) flat series row of each target
    series_rows: np.ndarray = None
    #: (B,) target time index
    target_times: np.ndarray = None
    #: (W,) context row of each window; None when window ``i`` is row ``i``
    context_index: Optional[np.ndarray] = None
    #: (B,) window row of each cell; None when cell ``i`` is window ``i``
    window_index: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        """Number of target cells."""
        return self.target_offset.shape[0]


def collate(pieces: Iterable[Batch]) -> Batch:
    """One serving batch that forwards each context and window once.

    Each piece is one request's cells as :meth:`DatasetContext.build_batch`
    assembles them, one context and one window per cell.  The temporal
    transformer's keys and values depend only on a context (series row,
    context start) and its pooled hidden only on a window (series row,
    window), so the result keeps one row per distinct context and window
    of each piece.  Pieces never share rows: two requests can agree on a
    (row, window) and still differ in their data.  Contexts come out in
    (piece, row, start) order, windows in (piece, row, window) order and
    cells in input order.

    Pieces are compacted one at a time, so a generator of pieces keeps
    only one piece's per-cell windows alive.  Pieces must have compatible
    shapes (same context width, window size and sibling counts).
    """
    contexts: List[tuple] = []
    windows: List[tuple] = []
    cells: List[Batch] = []
    window_rows: List[np.ndarray] = []
    n_contexts = n_windows = 0
    for piece in pieces:
        if piece.size == 0:
            continue
        rows = piece.series_rows
        start = piece.absolute_index[:, 0]
        window = start + piece.target_window
        span = int(window.max()) + 1              # start <= window < span
        _, first_context, cell_context = np.unique(
            rows * span + start, return_index=True, return_inverse=True)
        _, first_window, cell_window = np.unique(
            rows * span + window, return_index=True, return_inverse=True)
        contexts.append((piece.window_values[first_context],
                         piece.window_avail[first_context],
                         piece.absolute_index[first_context]))
        windows.append((piece.target_window[first_window],
                        cell_context[first_window] + n_contexts))
        window_rows.append(cell_window + n_windows)
        cells.append(replace(piece, window_values=None, window_avail=None,
                             absolute_index=None, target_window=None))
        n_contexts += first_context.shape[0]
        n_windows += first_window.shape[0]
    if not cells:
        raise ValueError("cannot collate zero cells")

    def stacked(name: str) -> np.ndarray:
        return np.concatenate([getattr(piece, name) for piece in cells])

    def stacked_dims(name: str) -> List[np.ndarray]:
        return [np.concatenate([getattr(piece, name)[dim] for piece in cells])
                for dim in range(len(getattr(cells[0], name)))]

    values, avail, absolute = (np.concatenate(parts)
                               for parts in zip(*contexts))
    target_window, context_index = (np.concatenate(parts)
                                    for parts in zip(*windows))
    return Batch(
        window_values=values,
        window_avail=avail,
        absolute_index=absolute,
        target_window=target_window,
        target_offset=stacked("target_offset"),
        member_indices=stacked("member_indices"),
        sibling_member_indices=stacked_dims("sibling_member_indices"),
        sibling_values=stacked_dims("sibling_values"),
        sibling_avail=stacked_dims("sibling_avail"),
        targets=stacked("targets"),
        series_rows=stacked("series_rows"),
        target_times=stacked("target_times"),
        context_index=context_index,
        window_index=np.concatenate(window_rows),
    )


@dataclass
class ContextStructure:
    """The shareable, value-free structural tables of a :class:`DatasetContext`.

    What ``structure_from`` actually needs: the shape-derived tables plus
    the facts that decide compatibility.  Caching one of these instead of
    a whole context avoids pinning the template request's value buffers
    (four ``(n_series, padded_time)`` arrays) for the cache's lifetime.
    """

    window: int
    flatten_dimensions: bool
    n_series: int
    dimension_sizes: List[int]
    n_dims: int
    index_table: np.ndarray
    sibling_rows: List[np.ndarray]


class DatasetContext:
    """Precomputed flat views and index tables for one dataset.

    Parameters
    ----------
    tensor:
        The (possibly incomplete) dataset.  Values are normalised globally;
        missing cells are stored as zero and tracked by the availability
        matrix.
    window:
        DeepMVI window size ``w``; the time axis is zero-padded to a
        multiple of it.
    max_context_windows:
        Bound on the number of windows handed to the temporal transformer
        (centred on the target window).
    flatten_dimensions:
        Treat the member combination as a single flat dimension
        (the DeepMVI1D variant).
    structure_from:
        Optional :class:`ContextStructure` (or already-built context) to
        share structural tables with.  The index table and sibling-row
        tables depend only on the tensor's *shape* (dimension sizes), not
        its values, yet they dominate context-construction cost — the
        serving hot path builds one context per request over same-shaped
        window tensors, so reusing a template's tables makes request
        contexts cheap.  An incompatible template (different
        shape/window/config) is silently ignored and the tables are
        rebuilt, so passing a stale template is always safe.
    normalisation:
        Optional ``(mean, std)`` override.  By default the context
        estimates normalisation from the tensor's own observed cells; a
        serving caller passes the *fitted* statistics instead so request
        tensors are normalised exactly like the training data — which is
        what lets the fast-path tables compare request windows to fitted
        windows bit-for-bit (:meth:`FastPathTables.match_windows`).
    """

    def __init__(self, tensor: TimeSeriesTensor, window: int,
                 max_context_windows: int = 64,
                 flatten_dimensions: bool = False,
                 structure_from: Optional[ContextStructure] = None,
                 normalisation: Optional[Tuple[float, float]] = None):
        self.window = window
        self.max_context_windows = max_context_windows
        self.flatten_dimensions = flatten_dimensions

        # Value plumbing, open-coded for the serving hot path but
        # bit-identical to the classic tensor.normalised().to_matrix()
        # pipeline (same elementwise operations in the same order): one
        # context is built per serving request, and the intermediate
        # normalised TimeSeriesTensor plus np.pad bookkeeping used to
        # dominate its cost.
        if normalisation is not None:
            self.mean, self.std = float(normalisation[0]), \
                float(normalisation[1])
        else:
            self.mean, self.std = tensor.observed_mean_std()
        self.n_series, self.n_time = tensor.n_series, tensor.n_time
        matrix = ((tensor.values - self.mean) / self.std).reshape(
            self.n_series, self.n_time)
        mask = tensor.mask.reshape(self.n_series, self.n_time)
        matrix = np.where(mask == 1, matrix, 0.0)
        matrix = np.nan_to_num(matrix, nan=0.0)
        self.matrix = matrix
        self.avail = mask.copy()

        # Pad the time axis to a multiple of the window size.
        remainder = self.n_time % window
        pad = 0 if remainder == 0 else window - remainder
        self.padded_time = self.n_time + pad
        self.padded_matrix = np.zeros((self.n_series, self.padded_time))
        self.padded_matrix[:, :self.n_time] = matrix
        self.padded_avail = np.zeros((self.n_series, self.padded_time))
        self.padded_avail[:, :self.n_time] = self.avail
        self.n_windows = self.padded_time // window

        # Member-index table and per-dimension sibling rows — shared with
        # the template when it matches, rebuilt otherwise.
        if flatten_dimensions or tensor.n_dims == 0:
            sizes = [self.n_series]
        else:
            sizes = [d.size for d in tensor.dimensions]
        if structure_from is not None \
                and self._shares_structure(structure_from, sizes):
            self.dimension_sizes = structure_from.dimension_sizes
            self.index_table = structure_from.index_table
            self.n_dims = structure_from.n_dims
            self._sibling_rows = structure_from.sibling_rows
            return
        if flatten_dimensions or tensor.n_dims == 0:
            self.dimension_sizes = sizes
            self.index_table = np.arange(self.n_series, dtype=np.int64)[:, None]
        else:
            self.dimension_sizes = sizes
            self.index_table = tensor.series_index_table()
        self.n_dims = len(self.dimension_sizes)
        self._sibling_rows = self._build_sibling_rows()

    def _shares_structure(self, other: ContextStructure,
                          sizes: List[int]) -> bool:
        """Whether ``other``'s structural tables apply to this context."""
        return (other.window == self.window
                and other.flatten_dimensions == self.flatten_dimensions
                and other.n_series == self.n_series
                and other.dimension_sizes == sizes)

    def structure(self) -> ContextStructure:
        """This context's shareable structural tables (no value buffers)."""
        return ContextStructure(
            window=self.window,
            flatten_dimensions=self.flatten_dimensions,
            n_series=self.n_series,
            dimension_sizes=self.dimension_sizes,
            n_dims=self.n_dims,
            index_table=self.index_table,
            sibling_rows=self._sibling_rows,
        )

    # ------------------------------------------------------------------ #
    def _build_sibling_rows(self) -> List[np.ndarray]:
        """For each dimension, an ``(n_series, K_i - 1)`` table of sibling rows.

        Row ``r``'s siblings along dimension ``i`` are the flat rows of all
        series that agree with ``r`` on every member index except the
        ``i``-th.
        """
        tables: List[np.ndarray] = []
        strides = np.ones(self.n_dims, dtype=np.int64)
        for i in range(self.n_dims - 2, -1, -1):
            strides[i] = strides[i + 1] * self.dimension_sizes[i + 1]
        for dim, size in enumerate(self.dimension_sizes):
            if size <= 1:
                tables.append(np.zeros((self.n_series, 0), dtype=np.int64))
                continue
            rows = np.arange(self.n_series, dtype=np.int64)
            own_member = self.index_table[:, dim]
            base = rows - own_member * strides[dim]
            others = np.arange(size, dtype=np.int64)
            all_rows = base[:, None] + others[None, :] * strides[dim]   # (n_series, K_i)
            keep = others[None, :] != own_member[:, None]
            siblings = all_rows[keep].reshape(self.n_series, size - 1)
            tables.append(siblings)
        return tables

    def sibling_rows(self, dim: int) -> np.ndarray:
        """Sibling flat-row table for dimension ``dim``."""
        return self._sibling_rows[dim]

    # ------------------------------------------------------------------ #
    def context_span(self, target_time: np.ndarray) -> Tuple[np.ndarray, int]:
        """Start window of the bounded context for each target, plus its size."""
        context = min(self.max_context_windows, self.n_windows)
        target_window = target_time // self.window
        start = np.clip(target_window - context // 2, 0, self.n_windows - context)
        return start.astype(np.int64), context

    def build_batch(self, series_rows: np.ndarray, target_times: np.ndarray,
                    series_avail_override: Optional[np.ndarray] = None,
                    member_exclusion: Optional[List[np.ndarray]] = None,
                    targets: Optional[np.ndarray] = None) -> Batch:
        """Assemble a :class:`Batch` for the given target cells.

        Parameters
        ----------
        series_rows, target_times:
            ``(B,)`` flat series row and time index of each target.
        series_avail_override:
            Optional ``(B, padded_time)`` availability of the *target's own
            series* replacing the dataset availability — used during
            training to hide the synthetic missing block.
        member_exclusion:
            Optional per-dimension ``(B, S_i)`` boolean arrays marking
            siblings that fall inside the synthetic missing cuboid and must
            therefore be treated as missing.
        targets:
            ``(B,)`` ground-truth values (normalised scale) for training.
        """
        series_rows = np.asarray(series_rows, dtype=np.int64)
        target_times = np.asarray(target_times, dtype=np.int64)
        batch = series_rows.shape[0]
        w = self.window

        start, context = self.context_span(target_times)
        offsets = start[:, None] + np.arange(context)[None, :]             # (B, C)
        # One np.take per array over (series, window) rows of the padded
        # arrays — no (B, T_pad) intermediate.  The row views are O(1)
        # reshapes of contiguous data, recomputed per call so the context
        # never carries duplicate buffers (pickling a stored view would
        # serialise the full array twice).
        flat = series_rows[:, None] * self.n_windows + offsets          # (B, C)
        window_values = np.take(self.padded_matrix.reshape(-1, w), flat,
                                axis=0)
        if series_avail_override is not None:
            rows = np.arange(batch)[:, None]
            window_avail = series_avail_override.reshape(
                batch, self.n_windows, w)[rows, offsets]
        else:
            window_avail = np.take(self.padded_avail.reshape(-1, w), flat,
                                   axis=0)
        target_window = (target_times // w) - start
        target_offset = target_times % w

        member_indices = self.index_table[series_rows]                      # (B, n_dims)

        sibling_member_indices: List[np.ndarray] = []
        sibling_values: List[np.ndarray] = []
        sibling_avail: List[np.ndarray] = []
        for dim in range(self.n_dims):
            sib_rows = self._sibling_rows[dim][series_rows]                  # (B, S)
            if sib_rows.shape[1] == 0:
                sibling_member_indices.append(np.zeros((batch, 0), dtype=np.int64))
                sibling_values.append(np.zeros((batch, 0)))
                sibling_avail.append(np.zeros((batch, 0)))
                continue
            values = self.matrix[sib_rows, target_times[:, None]]
            avail = self.avail[sib_rows, target_times[:, None]]
            if member_exclusion is not None and member_exclusion[dim].size:
                avail = avail * (1.0 - member_exclusion[dim])
            sibling_member_indices.append(self.index_table[sib_rows, dim])
            sibling_values.append(values * avail)
            sibling_avail.append(avail)

        return Batch(
            window_values=window_values,
            window_avail=window_avail,
            absolute_index=offsets,
            target_window=target_window,
            target_offset=target_offset,
            member_indices=member_indices,
            sibling_member_indices=sibling_member_indices,
            sibling_values=sibling_values,
            sibling_avail=sibling_avail,
            targets=targets if targets is not None else np.zeros(batch),
            series_rows=series_rows,
            target_times=target_times,
        )

    # ------------------------------------------------------------------ #
    def denormalise(self, values: np.ndarray) -> np.ndarray:
        """Map model outputs back to the original value scale."""
        return values * self.std + self.mean

    def normalise_value(self, values: np.ndarray) -> np.ndarray:
        """Map original-scale values to the model's normalised scale."""
        return (values - self.mean) / self.std
