"""Loss functions used by the deep models."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.tensor import Tensor, as_tensor


def mse_loss(prediction: Tensor, target, mask: Optional[np.ndarray] = None) -> Tensor:
    """Mean squared error, optionally restricted to ``mask`` positions."""
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    diff = prediction - target
    squared = diff * diff
    if mask is None:
        return squared.mean()
    mask = np.asarray(mask, dtype=np.float64)
    count = max(float(mask.sum()), 1.0)
    return (squared * Tensor(mask)).sum() / count


def kl_divergence_standard_normal(mean: Tensor, log_variance: Tensor) -> Tensor:
    """KL( N(mean, exp(log_var)) || N(0, 1) ), averaged over all elements.

    Used by the GP-VAE baseline's variational objective.
    """
    mean = as_tensor(mean)
    log_variance = as_tensor(log_variance)
    kl = 0.5 * (log_variance.exp() + mean * mean - 1.0 - log_variance)
    return kl.mean()
