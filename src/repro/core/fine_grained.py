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


def local_neighbourhood_signal(series_values: np.ndarray, series_avail: np.ndarray,
                               target_time: np.ndarray, radius: int = 5) -> np.ndarray:
    """Alternative fine-grained feature: masked mean of a ±radius neighbourhood.

    Not used by the default DeepMVI configuration (the paper uses the window
    mean) but exposed for experimentation; the extension benchmarks compare
    both variants.
    """
    batch, length = series_values.shape
    output = np.zeros((batch, 1))
    for row in range(batch):
        t = int(target_time[row])
        lo = max(0, t - radius)
        hi = min(length, t + radius + 1)
        avail = series_avail[row, lo:hi]
        values = series_values[row, lo:hi]
        count = avail.sum()
        output[row, 0] = (values * avail).sum() / count if count > 0 else 0.0
    return output
