"""Property-based gradient checks of the autograd engine (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from tests.nn.conftest import numerical_gradient

_settings = settings(max_examples=25, deadline=None)


def small_arrays(min_side=1, max_side=4):
    shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=min_side, max_side=max_side)
    return hnp.arrays(
        dtype=np.float64,
        shape=shapes,
        elements=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    )


@_settings
@given(small_arrays())
def test_sum_gradient_is_ones(x):
    tensor = Tensor(x, requires_grad=True)
    tensor.sum().backward()
    np.testing.assert_allclose(tensor.grad, np.ones_like(x))


@_settings
@given(small_arrays())
def test_mean_gradient_is_uniform(x):
    tensor = Tensor(x, requires_grad=True)
    tensor.mean().backward()
    np.testing.assert_allclose(tensor.grad, np.full_like(x, 1.0 / x.size))


@_settings
@given(small_arrays())
def test_tanh_chain_matches_numerical(x):
    tensor = Tensor(x, requires_grad=True)
    out = (tensor.tanh() * 2.0 + 1.0).sum()
    out.backward()
    numeric = numerical_gradient(
        lambda arr: float((Tensor(arr).tanh() * 2.0 + 1.0).sum().item()), x)
    np.testing.assert_allclose(tensor.grad, numeric, atol=1e-4)


@_settings
@given(small_arrays(), small_arrays())
def test_add_gradient_shapes_match_inputs(x, y):
    a = Tensor(x, requires_grad=True)
    b = Tensor(y, requires_grad=True)
    try:
        out = a + b
    except ValueError:
        return  # shapes not broadcastable: nothing to check
    out.sum().backward()
    assert a.grad.shape == x.shape
    assert b.grad.shape == y.shape


@_settings
@given(small_arrays())
def test_mul_by_zero_gives_zero_gradient_to_other_factor(x):
    a = Tensor(x, requires_grad=True)
    zeros = Tensor(np.zeros_like(x))
    (a * zeros).sum().backward()
    np.testing.assert_allclose(a.grad, np.zeros_like(x))


@_settings
@given(small_arrays())
def test_softmax_output_is_probability_vector(x):
    out = F.softmax(Tensor(x), axis=-1).data
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(out.shape[:-1]), atol=1e-9)


@_settings
@given(st.data())
def test_masked_softmax_respects_arbitrary_masks(data):
    length = data.draw(st.integers(2, 6))
    x = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=length, max_size=length)))
    mask = np.array(data.draw(st.lists(st.integers(0, 1), min_size=length, max_size=length)),
                    dtype=float)
    out = F.masked_softmax(Tensor(x[None]), mask[None]).data[0]
    assert np.all(out[mask == 0] == 0)
    if mask.sum() > 0:
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-6)


@_settings
@given(small_arrays(max_side=3), small_arrays(max_side=3))
def test_matmul_gradient_matches_numerical_when_compatible(x, y):
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[0]:
        return
    a = Tensor(x, requires_grad=True)
    b = Tensor(y, requires_grad=True)
    (a @ b).sum().backward()
    numeric_a = numerical_gradient(
        lambda arr: float((Tensor(arr) @ Tensor(y)).sum().item()), x)
    numeric_b = numerical_gradient(
        lambda arr: float((Tensor(x) @ Tensor(arr)).sum().item()), y)
    np.testing.assert_allclose(a.grad, numeric_a, atol=1e-5)
    np.testing.assert_allclose(b.grad, numeric_b, atol=1e-5)
