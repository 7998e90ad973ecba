"""The Temporal Transformer module (Section 4.1 of the paper).

The module extracts a coarse-grained, seasonality-like signal for a target
time index from the rest of its own series:

1. the series is cut into non-overlapping windows of length ``w`` and each
   window is embedded with a linear map (Eqn. 7);
2. the *query* and *key* of a window are built from the concatenated
   embeddings of its **left and right neighbour windows** plus a positional
   encoding (Eqns. 8–9) — this is the paper's central deviation from the
   vanilla transformer: the missing window itself never contributes to its
   own query, and keys of windows containing missing values are suppressed;
3. masked multi-head attention pools the *values* (Eqn. 10–12) of fully
   observed windows;
4. a small feed-forward decoder produces one output vector per position of
   the target window (Eqns. 13–14), from which the target position's vector
   is selected.

Steps 1-2 depend only on a target's context and step 3 only on its window,
so :meth:`TemporalTransformer.pooled_hidden` runs them as two stages,
:meth:`~TemporalTransformer.encode_contexts` and
:meth:`~TemporalTransformer.attend`: serving encodes each distinct context
once and attends each distinct window once.

Implementation note: the paper normalises attention scores by the sum of raw
inner products (Eqn. 11).  This reproduction uses a masked softmax of scaled
inner products instead, which implements the same "ignore missing windows,
ignore the target window" semantics while being numerically stable when
inner products are negative.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Linear, Module, Parameter
from repro.nn import init
from repro.nn.tensor import Tensor


class ContextEncoding(NamedTuple):
    """Output of :meth:`TemporalTransformer.encode_contexts`."""

    #: (N, H, C, 2p) per-head query of every context window
    queries: Tensor
    #: (N, H, C, 2p) per-head key of every context window
    keys: Tensor
    #: (N, H, C, p) per-head value of every context window
    values: Tensor
    #: (N, C) 1 where a context window has no missing value
    fully_available: np.ndarray


class TemporalTransformer(Module):
    """Window-based masked attention over a single series.

    Parameters
    ----------
    window:
        Window size ``w`` of the non-overlapping convolution.
    n_filters:
        Feature size ``p`` of each window embedding.
    n_heads:
        Number of attention heads.
    max_position:
        Upper bound on the absolute window index, used to precompute the
        sinusoidal positional encodings.
    use_context_window:
        When ``False`` (the "No Context Window" ablation) queries and keys
        are built from the positional encoding alone, removing the
        left/right-neighbour context information.
    """

    def __init__(self, window: int, n_filters: int, n_heads: int,
                 max_position: int = 4096, use_context_window: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.window = window
        self.n_filters = n_filters
        self.n_heads = n_heads
        self.use_context_window = use_context_window
        self.context_dim = 2 * n_filters

        # Eqn. 7: non-overlapping convolution (window -> p features).
        self.conv_weight = Parameter(init.xavier_uniform((window, n_filters), rng))
        self.conv_bias = Parameter(init.zeros((n_filters,)))

        # Eqns. 8-10: per-head query/key/value projections, fused over heads.
        self.query_proj = Linear(self.context_dim, n_heads * self.context_dim, rng=rng)
        self.key_proj = Linear(self.context_dim, n_heads * self.context_dim, rng=rng)
        self.value_proj = Linear(n_filters, n_heads * n_filters, rng=rng)

        # Eqn. 13: feed-forward decoder.
        self.decoder1 = Linear(n_heads * n_filters, n_filters, rng=rng)
        self.decoder2 = Linear(n_filters, n_filters, rng=rng)
        # Eqn. 14: per-offset output transform W_d in R^{w x p x p}.
        self.position_decoder = Parameter(
            init.xavier_normal((window, n_filters, n_filters), rng))
        self.position_bias = Parameter(init.zeros((window, n_filters)))

        self._positional = F.positional_encoding(max_position, self.context_dim)

    # ------------------------------------------------------------------ #
    @property
    def output_dim(self) -> int:
        """Size of the per-target output vector ``htt``."""
        return self.n_filters

    def _positional_slice(self, absolute_index: np.ndarray) -> np.ndarray:
        """Positional encodings for absolute window indices ``(B, C)``."""
        max_needed = int(absolute_index.max()) + 1
        if max_needed > self._positional.shape[0]:
            self._positional = F.positional_encoding(max_needed, self.context_dim)
        return self._positional[absolute_index]

    def forward(self, window_values: np.ndarray, window_avail: np.ndarray,
                absolute_index: np.ndarray, target_window: np.ndarray,
                target_offset: np.ndarray) -> Tensor:
        """Compute ``htt`` for a batch of target positions.

        Parameters
        ----------
        window_values:
            ``(B, C, w)`` values of the context windows with missing entries
            replaced by zero.
        window_avail:
            ``(B, C, w)`` availability of those entries (0/1).
        absolute_index:
            ``(B, C)`` absolute window index of each context window (for the
            positional encoding).
        target_window:
            ``(B,)`` index *within the context* of the window containing the
            target position.
        target_offset:
            ``(B,)`` offset of the target position within its window
            (``t % w``).

        Returns
        -------
        Tensor
            ``(B, n_filters)`` coarse-grained temporal signal.
        """
        hidden = self.pooled_hidden(window_values, window_avail,
                                    absolute_index, target_window)
        return self.decode_offset(hidden, target_offset)

    def pooled_hidden(self, window_values: np.ndarray, window_avail: np.ndarray,
                      absolute_index: np.ndarray, target_window: np.ndarray,
                      context_index: Optional[np.ndarray] = None) -> Tensor:
        """Attention-pooled hidden vector per target *window* (Eqns. 7-13).

        Everything up to (but excluding) the per-offset output transform,
        as the composition of two stages: :meth:`encode_contexts` over
        every row of ``window_values``, then :meth:`attend` for every
        entry of ``target_window``.  The result depends only on the
        target's (series, window) pair, not on the offset within the
        window — which is what lets serving compute it once per window
        and :mod:`repro.core.fast_path` store it per window.

        With ``context_index=None`` row ``i`` is target ``i``'s own
        context (the training batch).  Otherwise the rows are distinct
        contexts and window ``i`` attends within row ``context_index[i]``,
        so each context is encoded once however many of its windows are
        asked for.  Either way every window runs the same operations.
        """
        encoded = self.encode_contexts(window_values, window_avail,
                                       absolute_index)
        return self.attend(encoded, target_window, context_index)

    def encode_contexts(self, window_values: np.ndarray,
                        window_avail: np.ndarray,
                        absolute_index: np.ndarray) -> ContextEncoding:
        """Per-context stage (Eqns. 7-10): what all windows of a context share.

        Window features, neighbour context, per-head queries, keys and
        values of every context window, plus each window's key
        availability (1 when the window has no missing value).
        """
        batch, context, window = window_values.shape
        if window != self.window:
            raise ValueError(f"window mismatch: got {window}, expected {self.window}")

        masked_values = window_values * window_avail
        values_t = Tensor(masked_values)

        # Eqn. 7 — window features Y_j.
        y = values_t @ self.conv_weight + self.conv_bias          # (N, C, p)

        # Left/right neighbour features within the context.
        y_prev = self._shift(y, direction=1)                      # Y_{j-1}
        y_next = self._shift(y, direction=-1)                     # Y_{j+1}
        positional = self._positional_slice(absolute_index)       # (N, C, 2p)
        if self.use_context_window:
            context_features = F.concatenate([y_prev, y_next], axis=-1) + Tensor(positional)
        else:
            context_features = Tensor(np.broadcast_to(
                positional, (batch, context, self.context_dim)).copy())

        # Eqns. 8-10, all heads at once.
        queries = self.query_proj(context_features)               # (N, C, H*2p)
        keys = self.key_proj(context_features)                    # (N, C, H*2p)
        values = self.value_proj(y)                               # (N, C, H*p)

        return ContextEncoding(
            queries=self._split_heads(queries, self.context_dim),  # (N, H, C, 2p)
            keys=self._split_heads(keys, self.context_dim),
            values=self._split_heads(values, self.n_filters),      # (N, H, C, p)
            fully_available=window_avail.min(axis=-1),             # (N, C)
        )

    def attend(self, encoded: ContextEncoding, target_window: np.ndarray,
               context_index: Optional[np.ndarray] = None) -> Tensor:
        """Per-window stage (Eqns. 11-13): target query, attention, decode.

        ``target_window`` and ``context_index`` as in
        :meth:`pooled_hidden`.  A window gathers its context's keys and
        values, so callers bound the number of windows per call.
        """
        batch = target_window.shape[0]
        keys, values = encoded.keys, encoded.values
        if context_index is None:
            rows = np.arange(batch)
        else:
            rows = context_index
            keys, values = keys[rows], values[rows]

        # Keys of windows with any missing value are suppressed (Eqn. 9) and
        # the target window never attends to itself.
        attend_mask = encoded.fully_available[rows]                # (B, C)
        attend_mask[np.arange(batch), target_window] = 0.0
        attention_mask = attend_mask[:, None, None, :]             # (B, 1, 1, C)

        # Query of the target window only.
        target_query = self._gather_window(encoded.queries, rows,
                                           target_window)          # (B, H, 1, 2p)

        pooled, _ = F.batched_attention(target_query, keys, values, attention_mask)
        pooled = pooled.reshape(batch, self.n_heads * self.n_filters)  # Eqn. 12

        # Eqn. 13 — feed-forward decoding.
        return self.decoder2(self.decoder1(pooled.relu()).relu()).relu()  # (B, p)

    def decode_offset(self, hidden: Tensor,
                      target_offset: np.ndarray) -> Tensor:
        """Per-offset output transform (Eqn. 14) applied to a pooled hidden.

        Computes every offset's output vector and selects the target's —
        the exact operation order of the original fused forward, so the
        split ``pooled_hidden`` + ``decode_offset`` pipeline is
        bit-identical to it.
        """
        batch = hidden.shape[0]
        hidden_b = hidden.reshape(batch, 1, 1, self.n_filters)
        per_offset = hidden_b @ self.position_decoder              # (B, w, 1, p)
        per_offset = per_offset.reshape(batch, self.window, self.n_filters)
        per_offset = per_offset + self.position_bias
        output = per_offset[np.arange(batch), target_offset, :]    # (B, p)
        return output.relu()

    # ------------------------------------------------------------------ #
    def _split_heads(self, x: Tensor, head_dim: int) -> Tensor:
        """(B, C, H*d) -> (B, H, C, d)."""
        batch, context, _ = x.shape
        return x.reshape(batch, context, self.n_heads, head_dim).transpose(0, 2, 1, 3)

    @staticmethod
    def _gather_window(x: Tensor, rows: np.ndarray,
                       window_index: np.ndarray) -> Tensor:
        """One context position per target: (N, H, C, d) -> (B, H, 1, d)."""
        batch = rows.shape[0]
        selected = x[rows, :, window_index, :]                      # (B, H, d)
        return selected.reshape(batch, x.shape[1], 1, x.shape[3])

    @staticmethod
    def _shift(y: Tensor, direction: int) -> Tensor:
        """Shift window features along the context axis, zero-padding the edge.

        ``direction=+1`` yields ``Y_{j-1}`` (features of the left neighbour),
        ``direction=-1`` yields ``Y_{j+1}``.
        """
        batch, context, dim = y.shape
        zero = Tensor(np.zeros((batch, 1, dim)))
        if direction == 1:
            return F.concatenate([zero, y[:, : context - 1, :]], axis=1)
        return F.concatenate([y[:, 1:, :], zero], axis=1)
