"""Tests of the differentiable functional operations."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from tests.nn.conftest import numerical_gradient


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = F.softmax(Tensor(rng.normal(size=(4, 7))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_is_shift_invariant(self, rng):
        x = rng.normal(size=(3, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_handles_large_values(self):
        out = F.softmax(Tensor([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()
        assert out.data[0, 0] == pytest.approx(1.0)

    def test_gradient(self, rng):
        x = rng.normal(size=(2, 4))
        weights = rng.normal(size=(2, 4))
        tensor = Tensor(x, requires_grad=True)
        (F.softmax(tensor) * weights).sum().backward()
        numeric = numerical_gradient(
            lambda arr: float((F.softmax(Tensor(arr)) * weights).sum().item()), x)
        np.testing.assert_allclose(tensor.grad, numeric, atol=1e-5)


class TestMaskedSoftmax:
    def test_masked_positions_get_zero_probability(self, rng):
        x = rng.normal(size=(2, 5))
        mask = np.array([[1, 1, 0, 1, 0], [0, 1, 1, 1, 1]], dtype=float)
        out = F.masked_softmax(Tensor(x), mask).data
        assert np.all(out[mask == 0] == 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), [1.0, 1.0], atol=1e-6)

    def test_all_masked_gives_zeros(self):
        out = F.masked_softmax(Tensor([[1.0, 2.0]]), np.zeros((1, 2))).data
        np.testing.assert_allclose(out, [[0.0, 0.0]])

    def test_gradient_flows_through_unmasked_only(self, rng):
        x = rng.normal(size=(1, 4))
        mask = np.array([[1, 1, 1, 0]], dtype=float)
        tensor = Tensor(x, requires_grad=True)
        F.masked_softmax(tensor, mask)[0, 0].backward()
        assert tensor.grad[0, 3] == pytest.approx(0.0, abs=1e-12)


class TestConcatenateAndStack:
    def test_concatenate_values(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
        out = F.concatenate([Tensor(a), Tensor(b)], axis=1)
        np.testing.assert_allclose(out.data, np.concatenate([a, b], axis=1))

    def test_concatenate_gradient_splits_correctly(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = F.concatenate([a, b], axis=1)
        weights = np.arange(10).reshape(2, 5).astype(float)
        (out * weights).sum().backward()
        np.testing.assert_allclose(a.grad, weights[:, :3])
        np.testing.assert_allclose(b.grad, weights[:, 3:])

    def test_concatenate_negative_axis(self, rng):
        a, b = rng.normal(size=(2, 2, 2)), rng.normal(size=(2, 2, 3))
        out = F.concatenate([Tensor(a), Tensor(b)], axis=-1)
        assert out.shape == (2, 2, 5)

    def test_stack_creates_new_axis(self, rng):
        parts = [Tensor(rng.normal(size=(3,))) for _ in range(4)]
        out = F.stack(parts, axis=0)
        assert out.shape == (4, 3)

    def test_stack_gradient(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        out = F.stack([a, b], axis=1)            # (3, 2)
        weights = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        (out * weights).sum().backward()
        np.testing.assert_allclose(a.grad, weights[:, 0])
        np.testing.assert_allclose(b.grad, weights[:, 1])


class TestEmbedding:
    def test_lookup_values(self, rng):
        weight = Tensor(rng.normal(size=(5, 3)))
        indices = np.array([[0, 4], [2, 2]])
        out = F.embedding(weight, indices)
        assert out.shape == (2, 2, 3)
        np.testing.assert_allclose(out.data[0, 1], weight.data[4])

    def test_gradient_accumulates_for_repeated_indices(self, rng):
        weight = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        out = F.embedding(weight, np.array([1, 1, 3]))
        out.sum().backward()
        np.testing.assert_allclose(weight.grad[1], [2.0, 2.0])
        np.testing.assert_allclose(weight.grad[3], [1.0, 1.0])
        np.testing.assert_allclose(weight.grad[0], [0.0, 0.0])


class TestDropoutWhereClip:
    def test_dropout_identity_in_eval(self, rng):
        x = Tensor(rng.normal(size=(10,)))
        out = F.dropout(x, 0.5, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_scales_kept_units(self, rng):
        x = Tensor(np.ones((1000,)))
        out = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(0))
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 0.35 < (out.data > 0).mean() < 0.65

    def test_where_selects(self):
        out = F.where(np.array([True, False]), Tensor([1.0, 1.0]), Tensor([2.0, 2.0]))
        np.testing.assert_allclose(out.data, [1.0, 2.0])

    def test_where_gradient_routing(self):
        x = Tensor([1.0, 1.0], requires_grad=True)
        y = Tensor([2.0, 2.0], requires_grad=True)
        F.where(np.array([True, False]), x, y).sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 0.0])
        np.testing.assert_allclose(y.grad, [0.0, 1.0])

    def test_clip_values_and_gradient(self):
        x = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
        out = F.clip(x, 0.0, 1.0)
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestConvAndPositional:
    def test_positional_encoding_shape_and_range(self):
        enc = F.positional_encoding(50, 16)
        assert enc.shape == (50, 16)
        assert np.all(np.abs(enc) <= 1.0 + 1e-12)

    def test_positional_encoding_distinct_positions(self):
        enc = F.positional_encoding(20, 8)
        assert not np.allclose(enc[0], enc[7])

    def test_positional_encoding_odd_dim(self):
        enc = F.positional_encoding(10, 7)
        assert enc.shape == (10, 7)
        assert np.isfinite(enc).all()


class TestBatchedAttention:
    def test_output_is_convex_combination_of_values(self, rng):
        q = Tensor(rng.normal(size=(1, 1, 4)))
        k = Tensor(rng.normal(size=(1, 3, 4)))
        v = Tensor(rng.normal(size=(1, 3, 2)))
        mask = np.ones((1, 1, 3))
        out, weights = F.batched_attention(q, k, v, mask)
        assert out.shape == (1, 1, 2)
        np.testing.assert_allclose(weights.data.sum(axis=-1), [[1.0]], atol=1e-6)
        lo = v.data.min(axis=1)
        hi = v.data.max(axis=1)
        assert np.all(out.data[0, 0] >= lo[0] - 1e-9)
        assert np.all(out.data[0, 0] <= hi[0] + 1e-9)

    def test_masked_keys_receive_zero_weight(self, rng):
        q = Tensor(rng.normal(size=(1, 1, 4)))
        k = Tensor(rng.normal(size=(1, 3, 4)))
        v = Tensor(rng.normal(size=(1, 3, 2)))
        mask = np.array([[[1.0, 0.0, 1.0]]])
        _, weights = F.batched_attention(q, k, v, mask)
        assert weights.data[0, 0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_gradient_flows_to_values(self, rng):
        v = Tensor(rng.normal(size=(1, 3, 2)), requires_grad=True)
        q = Tensor(rng.normal(size=(1, 1, 4)))
        k = Tensor(rng.normal(size=(1, 3, 4)))
        out, _ = F.batched_attention(q, k, v, np.ones((1, 1, 3)))
        out.sum().backward()
        assert v.grad is not None
        assert np.any(v.grad != 0)
