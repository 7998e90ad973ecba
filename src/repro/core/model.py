"""The DeepMVI network: combining temporal, local and cross-series signals.

Equation 6 of the paper: the mean of the predictive distribution for a
missing cell is a linear combination of

* ``htt`` — the temporal transformer's coarse-grained signal,
* ``hfg`` — the fine-grained local signal (window mean),
* ``hkr`` — the kernel-regression cross-series signal,

trained with a squared-error loss.  The ablation flags of
:class:`repro.core.config.DeepMVIConfig` drop individual signals to
reproduce Section 5.5.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import DeepMVIConfig
from repro.core.context import Batch
from repro.core.fine_grained import fine_grained_signal
from repro.core.kernel_regression import KernelRegression
from repro.core.temporal_transformer import TemporalTransformer
from repro.nn import functional as F
from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor, no_grad


class DeepMVIModel(Module):
    """End-to-end DeepMVI network for a dataset with known dimension sizes.

    Parameters
    ----------
    config:
        Hyper-parameters and ablation flags.
    dimension_sizes:
        Member counts of the non-time dimensions (after optional
        flattening), used to size the kernel-regression embeddings.
    max_position:
        Upper bound on window indices (for positional encodings).
    """

    def __init__(self, config: DeepMVIConfig, dimension_sizes: Sequence[int],
                 max_position: int = 4096,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(config.seed)
        self.config = config
        self.dimension_sizes = list(dimension_sizes)
        self.max_position = max_position

        self.temporal_transformer: Optional[TemporalTransformer] = None
        if config.use_temporal_transformer:
            self.temporal_transformer = TemporalTransformer(
                window=config.window,
                n_filters=config.n_filters,
                n_heads=config.n_heads,
                max_position=max_position,
                use_context_window=config.use_context_window,
                rng=rng,
            )

        self.kernel_regression: Optional[KernelRegression] = None
        if config.use_kernel_regression and self.dimension_sizes:
            embedding_dim = config.embedding_dim
            if config.flatten_dimensions:
                # DeepMVI1D: a single flattened dimension with embeddings of
                # size 2k so the comparison with the structured variant is
                # parameter-fair (Section 5.5.4).
                embedding_dim = 2 * config.embedding_dim
            self.kernel_regression = KernelRegression(
                dimension_sizes=self.dimension_sizes,
                embedding_dim=embedding_dim,
                gamma=config.kernel_gamma,
                top_l=config.top_l_siblings,
                rng=rng,
            )

        input_dim = 0
        if self.temporal_transformer is not None:
            input_dim += self.temporal_transformer.output_dim
        if config.use_fine_grained:
            input_dim += 1
        if self.kernel_regression is not None:
            input_dim += self.kernel_regression.output_dim
        if input_dim == 0:
            raise ValueError(
                "all DeepMVI signal modules are disabled; enable at least one")
        self.output_dim = input_dim
        self.output_layer = Linear(input_dim, 1, rng=rng)
        # Zero-init the combiner so the initial prediction is the (normalised)
        # dataset mean; the signal modules then learn under a well-scaled loss.
        self.output_layer.weight.data[:] = 0.0

    # ------------------------------------------------------------------ #
    def forward(self, batch: Batch) -> Tensor:
        """Predict the (normalised) value of every target cell in ``batch``.

        Returns a ``(B,)`` tensor of predictive means.
        """
        features: List[Tensor] = []

        if self.temporal_transformer is not None:
            htt = self.temporal_transformer(
                batch.window_values, batch.window_avail, batch.absolute_index,
                batch.target_window, batch.target_offset)
            features.append(htt)

        if self.config.use_fine_grained:
            hfg = fine_grained_signal(
                batch.window_values, batch.window_avail, batch.target_window)
            features.append(Tensor(hfg))

        if self.kernel_regression is not None:
            hkr = self.kernel_regression(
                batch.member_indices, batch.sibling_member_indices,
                batch.sibling_values, batch.sibling_avail)
            features.append(hkr)

        combined = features[0] if len(features) == 1 else F.concatenate(features, axis=-1)
        prediction = self.output_layer(combined)                     # (B, 1)
        return prediction.reshape(batch.size)

    # ------------------------------------------------------------------ #
    def predict(self, batch: Batch) -> np.ndarray:
        """Numpy predictions without a gradient tape: the serving forward.

        Three stages, each in chunks of at most
        ``config.impute_batch_size`` rows:

        1. per context: :meth:`TemporalTransformer.encode_contexts`, once
           for each distinct context a chunk of windows reads;
        2. per window: :meth:`TemporalTransformer.attend` and the
           fine-grained mean (:meth:`window_signals`);
        3. per cell: the kernel regression and :func:`serve_cells`, the
           step table hits run too.

        A batch from :meth:`DatasetContext.build_batch` has one context
        and one window per cell; :func:`repro.core.context.collate`
        shares them, which changes no answer.

        Training's :meth:`forward` keeps the ``Linear`` output layer and
        the all-offset decode.  Serving differs so that a cell's answer
        never depends on which other cells share the call: BLAS computes
        a matrix-vector product in blocks of rows, so a row of
        ``(B, in) @ (in, 1)`` changes with ``B``, and a one-row matrix
        product takes that path too.  :func:`serve_cells` therefore
        applies the output layer as a per-row reduction, and a chunk of
        one row is padded to two.
        """
        hidden, fg = self.window_signals(batch)
        window_index = batch.window_index if batch.window_index is not None \
            else np.arange(batch.size)
        transformer = self.temporal_transformer
        kernel = self.kernel_regression
        predictions = np.empty(batch.size)
        for rows in row_chunks(batch.size, self.config.impute_batch_size):
            windows = window_index[rows]
            hkr = None
            if kernel is not None:
                with no_grad():
                    hkr = kernel(batch.member_indices[rows], *(
                        [part[rows] for part in parts]
                        for parts in (batch.sibling_member_indices,
                                      batch.sibling_values,
                                      batch.sibling_avail))).data
            predictions[rows] = serve_cells(
                None if hidden is None else hidden[windows],
                batch.target_offset[rows],
                None if fg is None else fg[windows],
                hkr,
                None if transformer is None
                else transformer.position_decoder.data,
                None if transformer is None
                else transformer.position_bias.data,
                self.output_layer.weight.data,
                self.output_layer.bias.data)
        return predictions

    def window_signals(self, batch: Batch,
                       ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Stages 1-2 of :meth:`predict`: ``(hidden, fg)`` per window row.

        ``hidden`` is the ``(W, p)`` pooled hidden of every window in
        ``batch.target_window`` (None without the temporal transformer);
        ``fg`` the ``(W,)`` fine-grained window mean (None when ablated).
        :func:`repro.core.fast_path.build_fast_path_tables` stores both.
        """
        n_windows = batch.target_window.shape[0]
        context_index = batch.context_index \
            if batch.context_index is not None else np.arange(n_windows)
        hidden = fg = None
        transformer = self.temporal_transformer
        if transformer is not None:
            hidden = np.empty((n_windows, transformer.output_dim))
            for rows in row_chunks(n_windows, self.config.impute_batch_size):
                contexts, local = np.unique(context_index[rows],
                                            return_inverse=True)
                with no_grad():
                    hidden[rows] = transformer.pooled_hidden(
                        batch.window_values[contexts],
                        batch.window_avail[contexts],
                        batch.absolute_index[contexts],
                        batch.target_window[rows], local).data
        if self.config.use_fine_grained:
            fg = fine_grained_signal(batch.window_values, batch.window_avail,
                                     batch.target_window, context_index)[:, 0]
        return hidden, fg


def row_chunks(total: int, size: int) -> Iterator[np.ndarray]:
    """Row indices of consecutive chunks of at most ``size`` rows.

    A chunk of one row repeats it, so every matrix product runs on at
    least two rows (see :meth:`DeepMVIModel.predict`); writing a result
    back through the indices stores the row once.
    """
    for start in range(0, total, size):
        rows = np.arange(start, min(start + size, total))
        yield rows if rows.shape[0] > 1 else np.repeat(rows, 2)


def serve_cells(hidden: Optional[np.ndarray], target_offset: np.ndarray,
                fg: Optional[np.ndarray], hkr: Optional[np.ndarray],
                position_decoder: Optional[np.ndarray],
                position_bias: Optional[np.ndarray],
                output_weight: np.ndarray,
                output_bias: np.ndarray) -> np.ndarray:
    """Per-cell serving step (Eqns. 14 and 6), shared by misses and hits.

    ``hidden`` and ``fg`` are the ``(B, p)`` pooled hidden and ``(B,)``
    fine-grained mean of each cell's window, ``hkr`` its ``(B, 3 n_dims)``
    kernel-regression summary; None marks an ablated signal.  Decodes
    only the target offset, with one ``(1, p) @ (p, p)`` product per
    cell (bit-identical to
    :meth:`TemporalTransformer.decode_offset`), and applies the output
    layer as a per-row reduction, so every row's answer is independent
    of the others.
    """
    features = []
    if hidden is not None:
        raw = np.matmul(hidden[:, None, :],
                        position_decoder[target_offset])[:, 0, :]
        raw = raw + position_bias[target_offset]
        features.append(raw * (raw > 0))                    # exact relu
    if fg is not None:
        features.append(fg[:, None])
    if hkr is not None:
        features.append(hkr)
    combined = features[0] if len(features) == 1 \
        else np.concatenate(features, axis=-1)
    return (combined * output_weight[:, 0]).sum(axis=-1) + output_bias[0]
