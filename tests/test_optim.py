"""Tests for optimizers, gradient clipping and the learning-rate scaling rule."""

import numpy as np
import pytest

from repro.nn.optim import Adam, clip_grad_norm, sqrt_batch_scaled_lr
from repro.nn.tensor import Tensor


def quadratic_loss(parameter):
    """Simple convex objective ||p - 3||^2; sets ``parameter.grad``, returns the loss."""
    diff = parameter.data - np.float32(3.0)
    parameter.grad = 2.0 * diff
    return float((diff * diff).sum())


def run_optimizer(optimizer_cls, steps=200, **kwargs):
    parameter = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    optimizer = optimizer_cls([parameter], **kwargs)
    for _ in range(steps):
        loss = quadratic_loss(parameter)
        optimizer.step()
    return parameter, loss


class TestOptimizers:
    def test_adam_converges(self):
        _, loss = run_optimizer(Adam, lr=0.1)
        assert loss < 1e-2

    def test_adamw_converges(self):
        """The paper's AdamW runs at weight decay 0: Adam takes the textbook
        AdamW steps at ``wd = 0`` (in float64 here) and converges."""
        parameter, loss = run_optimizer(Adam, lr=0.1)
        weight_decay = 0.0
        expected = np.zeros(4)
        m = np.zeros(4)
        v = np.zeros(4)
        for step in range(1, 201):
            grad = 2.0 * (expected - 3.0)
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad * grad
            m_hat, v_hat = m / (1 - 0.9**step), v / (1 - 0.999**step)
            expected -= 0.1 * (m_hat / (np.sqrt(v_hat) + 1e-8) + weight_decay * expected)
        np.testing.assert_allclose(parameter.data, expected, rtol=0, atol=1e-4)
        assert loss < 1e-2

    def test_empty_parameters_raise(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_invalid_lr_raises(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0], requires_grad=True)], lr=0.0)

    def test_step_count_increments(self):
        parameter = Tensor([0.0], requires_grad=True)
        optimizer = Adam([parameter], lr=0.1)
        parameter.grad = np.array([1.0], dtype=np.float32)
        optimizer.step()
        optimizer.step()
        assert optimizer.step_count == 2

    def test_skips_parameters_without_grad(self):
        parameter = Tensor([1.0], requires_grad=True)
        optimizer = Adam([parameter], lr=0.1)
        optimizer.step()  # no grad -> unchanged
        np.testing.assert_allclose(parameter.data, [1.0])


class TestClipGradNorm:
    def test_clips_to_max_norm(self):
        parameter = Tensor(np.zeros(4), requires_grad=True)
        parameter.grad = np.full(4, 10.0)
        norm = clip_grad_norm([parameter], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(parameter.grad) == pytest.approx(1.0, rel=1e-5)

    def test_no_clip_when_below(self):
        parameter = Tensor(np.zeros(2), requires_grad=True)
        parameter.grad = np.array([0.1, 0.1])
        clip_grad_norm([parameter], max_norm=5.0)
        np.testing.assert_allclose(parameter.grad, [0.1, 0.1])

    def test_norm_matches_legacy_astype_reduction(self):
        # Pin the value of the old implementation, which materialized a
        # float64 copy of every gradient: sum(g.astype(float64)**2).  The
        # single-pass einsum reduction must agree to float64 precision.
        rng = np.random.default_rng(7)
        parameters = []
        for shape in [(64, 32), (128,), (3, 5, 7)]:
            parameter = Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)
            parameter.grad = rng.standard_normal(shape).astype(np.float32) * 10.0
            parameters.append(parameter)
        legacy_total = 0.0
        for parameter in parameters:
            legacy_total += float(np.sum(parameter.grad.astype(np.float64) ** 2))
        legacy_norm = float(np.sqrt(legacy_total))
        norm = clip_grad_norm(parameters, max_norm=1e9)  # no clipping, pure norm
        assert norm == pytest.approx(legacy_norm, rel=1e-12)

    def test_does_not_copy_gradients(self):
        # The reduction must run over the gradient buffers in place: the
        # arrays must be the same objects (identity) and unchanged when no
        # clipping occurs.
        parameter = Tensor(np.zeros(16), requires_grad=True)
        parameter.grad = np.linspace(-1.0, 1.0, 16).astype(np.float32)
        buffer = parameter.grad
        clip_grad_norm([parameter], max_norm=1e6)
        assert parameter.grad is buffer

    def test_noncontiguous_gradient(self):
        parameter = Tensor(np.zeros((4, 6)), requires_grad=True)
        strided = np.arange(24, dtype=np.float32).reshape(6, 4).T
        parameter.grad = strided  # non-contiguous view
        expected = float(np.sqrt(np.sum(strided.astype(np.float64) ** 2)))
        norm = clip_grad_norm([parameter], max_norm=1e9)
        assert norm == pytest.approx(expected, rel=1e-12)


class TestSchedulers:
    def test_sqrt_batch_scaling_rule(self):
        base = sqrt_batch_scaled_lr(3e-4, base_batch_size=128, batch_size=128)
        doubled = sqrt_batch_scaled_lr(3e-4, base_batch_size=128, batch_size=256)
        assert base == pytest.approx(3e-4)
        assert doubled == pytest.approx(3e-4 * np.sqrt(2))

    def test_sqrt_scaling_invalid(self):
        with pytest.raises(ValueError):
            sqrt_batch_scaled_lr(0.0, 1, 1)
