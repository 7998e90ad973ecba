"""The finite-difference gradient oracle of the autograd tests."""

from typing import Callable

import numpy as np


def numerical_gradient(func: Callable[[np.ndarray], float], x: np.ndarray,
                       eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = func(x)
        flat[i] = original - eps
        minus = func(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad
