"""Gradient correctness of every elementary Tensor operation.

Each test compares the analytic gradient produced by backward() with a
central-difference numerical gradient.
"""

import numpy as np
import pytest

from repro.nn.tensor import Tensor

from tests.nn.conftest import numerical_gradient


def _check_unary(op, x, tol=1e-5):
    """Compare analytic and numerical gradients of a scalar-reduced unary op."""
    tensor = Tensor(x, requires_grad=True)
    out = op(tensor).sum()
    out.backward()
    numeric = numerical_gradient(lambda arr: float(op(Tensor(arr)).sum().item()), x)
    np.testing.assert_allclose(tensor.grad, numeric, atol=tol, rtol=1e-4)


def _check_binary(op, x, y, tol=1e-5):
    tx = Tensor(x, requires_grad=True)
    ty = Tensor(y, requires_grad=True)
    out = op(tx, ty).sum()
    out.backward()
    numeric_x = numerical_gradient(
        lambda arr: float(op(Tensor(arr), Tensor(y)).sum().item()), x)
    numeric_y = numerical_gradient(
        lambda arr: float(op(Tensor(x), Tensor(arr)).sum().item()), y)
    np.testing.assert_allclose(tx.grad, numeric_x, atol=tol, rtol=1e-4)
    np.testing.assert_allclose(ty.grad, numeric_y, atol=tol, rtol=1e-4)


class TestArithmetic:
    def test_add_gradient(self, rng):
        _check_binary(lambda a, b: a + b, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))

    def test_add_broadcast_gradient(self, rng):
        _check_binary(lambda a, b: a + b, rng.normal(size=(3, 4)), rng.normal(size=(4,)))

    def test_sub_gradient(self, rng):
        _check_binary(lambda a, b: a - b, rng.normal(size=(2, 5)), rng.normal(size=(2, 5)))

    def test_rsub_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        out = (3.0 - x).sum()
        out.backward()
        np.testing.assert_allclose(x.grad, [-1.0, -1.0])

    def test_mul_gradient(self, rng):
        _check_binary(lambda a, b: a * b, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))

    def test_mul_broadcast_scalar_gradient(self, rng):
        x = rng.normal(size=(3, 4))
        tensor = Tensor(x, requires_grad=True)
        out = (tensor * 2.5).sum()
        out.backward()
        np.testing.assert_allclose(tensor.grad, np.full_like(x, 2.5))

    def test_div_gradient(self, rng):
        _check_binary(lambda a, b: a / b,
                      rng.normal(size=(3, 3)),
                      rng.uniform(0.5, 2.0, size=(3, 3)))

    def test_rtruediv(self):
        x = Tensor([2.0, 4.0], requires_grad=True)
        out = (1.0 / x).sum()
        out.backward()
        np.testing.assert_allclose(x.grad, [-0.25, -1.0 / 16.0])

    def test_pow_gradient(self, rng):
        _check_unary(lambda a: a ** 3, rng.uniform(0.5, 2.0, size=(4,)))

    def test_neg_gradient(self, rng):
        _check_unary(lambda a: -a, rng.normal(size=(3, 2)))

    def test_matmul_2d_gradient(self, rng):
        _check_binary(lambda a, b: a @ b, rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))

    def test_matmul_batched_gradient(self, rng):
        _check_binary(lambda a, b: a @ b,
                      rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 2)))

    def test_matmul_broadcast_gradient(self, rng):
        # (B, 1, 1, p) @ (w, p, q) -> (B, w, 1, q): the pattern used by the
        # temporal transformer's per-offset decoder.
        _check_binary(lambda a, b: a @ b,
                      rng.normal(size=(2, 1, 1, 3)), rng.normal(size=(4, 3, 2)))

    def test_matmul_vector_gradient(self, rng):
        _check_binary(lambda a, b: a @ b, rng.normal(size=(3, 4)), rng.normal(size=(4,)))


class TestElementwiseFunctions:
    def test_exp_gradient(self, rng):
        _check_unary(lambda a: a.exp(), rng.normal(size=(3, 3)))

    def test_log_gradient(self, rng):
        _check_unary(lambda a: a.log(), rng.uniform(0.5, 3.0, size=(4,)))

    def test_sqrt_gradient(self, rng):
        _check_unary(lambda a: a.sqrt(), rng.uniform(0.5, 3.0, size=(4,)))

    def test_abs_gradient(self, rng):
        _check_unary(lambda a: a.abs(), rng.normal(size=(5,)) + 0.5)

    def test_relu_gradient(self, rng):
        x = rng.normal(size=(10,))
        x[np.abs(x) < 0.1] += 0.3  # stay away from the kink
        _check_unary(lambda a: a.relu(), x)

    def test_relu_zeroes_negative(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_gradient(self, rng):
        _check_unary(lambda a: a.sigmoid(), rng.normal(size=(6,)))

    def test_tanh_gradient(self, rng):
        _check_unary(lambda a: a.tanh(), rng.normal(size=(6,)))

    def test_sigmoid_range(self, rng):
        out = Tensor(rng.normal(size=(100,)) * 10).sigmoid()
        assert np.all(out.data > 0) and np.all(out.data < 1)


class TestReductionsAndShapes:
    def test_sum_all_gradient(self, rng):
        _check_unary(lambda a: a.sum(), rng.normal(size=(3, 4)))

    def test_sum_axis_gradient(self, rng):
        _check_unary(lambda a: a.sum(axis=1), rng.normal(size=(3, 4)))

    def test_sum_keepdims_gradient(self, rng):
        _check_unary(lambda a: a.sum(axis=0, keepdims=True), rng.normal(size=(3, 4)))

    def test_mean_all_gradient(self, rng):
        _check_unary(lambda a: a.mean(), rng.normal(size=(2, 5)))

    def test_mean_axis_gradient(self, rng):
        _check_unary(lambda a: a.mean(axis=-1), rng.normal(size=(2, 5)))

    def test_mean_value(self):
        assert Tensor([[1.0, 3.0], [5.0, 7.0]]).mean().item() == pytest.approx(4.0)

    def test_reshape_gradient(self, rng):
        _check_unary(lambda a: (a.reshape(6) * np.arange(6)).sum(),
                     rng.normal(size=(2, 3)))

    def test_transpose_gradient(self, rng):
        _check_unary(lambda a: (a.transpose() * np.arange(6).reshape(3, 2)).sum(),
                     rng.normal(size=(2, 3)))

    def test_transpose_axes_gradient(self, rng):
        weights = np.arange(24).reshape(3, 4, 2)
        _check_unary(lambda a: (a.transpose(1, 2, 0) * weights).sum(),
                     rng.normal(size=(2, 3, 4)))

    def test_swapaxes_gradient(self, rng):
        weights = np.arange(12).reshape(2, 3, 2)
        _check_unary(lambda a: (a.swapaxes(1, 2) * weights).sum(),
                     rng.normal(size=(2, 2, 3)))

    def test_getitem_slice_gradient(self, rng):
        _check_unary(lambda a: a[:, 1:3].sum(), rng.normal(size=(3, 5)))

    def test_getitem_fancy_gradient(self, rng):
        index = np.array([0, 2, 2])
        x = rng.normal(size=(3, 4))
        tensor = Tensor(x, requires_grad=True)
        out = tensor[index].sum()
        out.backward()
        expected = np.zeros_like(x)
        expected[0] += 1
        expected[2] += 2
        np.testing.assert_allclose(tensor.grad, expected)

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.ones((4,)), requires_grad=True)
        out = x[np.array([1, 1, 1])].sum()
        out.backward()
        np.testing.assert_allclose(x.grad, [0, 3, 0, 0])
