"""Tests of the finite-difference gradient oracle."""

import numpy as np

from tests.nn.conftest import numerical_gradient


class TestNumericalGradient:
    def test_quadratic(self):
        x = np.array([1.0, -2.0, 3.0])
        grad = numerical_gradient(lambda arr: float((arr ** 2).sum()), x)
        np.testing.assert_allclose(grad, 2 * x, atol=1e-5)

    def test_matrix_input(self):
        x = np.arange(6, dtype=float).reshape(2, 3)
        grad = numerical_gradient(lambda arr: float(arr.sum()), x)
        np.testing.assert_allclose(grad, np.ones((2, 3)), atol=1e-6)
