"""Tests of the loss functions."""

import numpy as np
import pytest

from repro.nn.losses import kl_divergence_standard_normal, mse_loss
from repro.nn.tensor import Tensor


class TestMSE:
    def test_zero_for_identical(self, rng):
        x = rng.normal(size=(4, 5))
        assert mse_loss(Tensor(x), Tensor(x)).item() == pytest.approx(0.0)

    def test_matches_numpy(self, rng):
        a, b = rng.normal(size=(6,)), rng.normal(size=(6,))
        expected = float(((a - b) ** 2).mean())
        assert mse_loss(Tensor(a), Tensor(b)).item() == pytest.approx(expected)

    def test_mask_restricts_cells(self):
        prediction = Tensor([1.0, 100.0])
        target = Tensor([1.0, 0.0])
        mask = np.array([1.0, 0.0])
        assert mse_loss(prediction, target, mask=mask).item() == pytest.approx(0.0)

    def test_mask_normalises_by_count(self):
        prediction = Tensor([2.0, 0.0, 0.0, 0.0])
        target = Tensor([0.0, 0.0, 0.0, 0.0])
        mask = np.array([1.0, 1.0, 0.0, 0.0])
        assert mse_loss(prediction, target, mask=mask).item() == pytest.approx(2.0)

    def test_gradient_direction(self):
        prediction = Tensor([3.0], requires_grad=True)
        mse_loss(prediction, Tensor([1.0])).backward()
        assert prediction.grad[0] > 0

    def test_empty_mask_does_not_divide_by_zero(self):
        loss = mse_loss(Tensor([1.0]), Tensor([0.0]), mask=np.array([0.0]))
        assert np.isfinite(loss.item())


class TestKL:
    def test_zero_for_standard_normal(self):
        kl = kl_divergence_standard_normal(Tensor([0.0, 0.0]), Tensor([0.0, 0.0]))
        assert kl.item() == pytest.approx(0.0)

    def test_positive_otherwise(self, rng):
        kl = kl_divergence_standard_normal(
            Tensor(rng.normal(size=(5,)) + 1.0), Tensor(rng.normal(size=(5,))))
        assert kl.item() > 0
