"""Fine-grained local signal (Section 4.1.1, Eqn. 15 of the paper).

For a target position ``t`` inside window ``j`` the fine-grained signal is
simply the mean of the *available* values inside that window.  It carries no
trainable parameters — it is an input feature that the output layer learns
to weigh against the temporal-transformer and kernel-regression signals —
and is most useful for very small missing blocks (Figure 8 of the paper).
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def fine_grained_signal(window_values: np.ndarray, window_avail: np.ndarray,
                        target_window: np.ndarray,
                        context_index: Optional[np.ndarray] = None,
                        ) -> np.ndarray:
    """Masked mean of the target window's observed values.

    Parameters
    ----------
    window_values:
        ``(N, C, w)`` context-window values (missing entries may hold
        anything; they are excluded through the mask).
    window_avail:
        ``(N, C, w)`` availability mask.
    target_window:
        ``(B,)`` index within the context of the window containing the
        target position.
    context_index:
        Optional ``(B,)`` context row of each target; by default target
        ``i`` reads row ``i``.

    Returns
    -------
    ``(B, 1)`` array; zero when the whole target window is missing.
    """
    rows = np.arange(target_window.shape[0]) if context_index is None \
        else context_index
    values = window_values[rows, target_window, :]
    avail = window_avail[rows, target_window, :]
    counts = avail.sum(axis=-1)
    sums = (values * avail).sum(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)
    return means[:, None]

