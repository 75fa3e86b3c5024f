"""Tests for repro.nn.functional (layer norm, cross-entropy, dropout) and the
softmax inside the fused kernels."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.backend import numpy_backend
from repro.nn.tensor import Tensor


def _attention_weights(scores):
    """The fused attention kernel's softmax weights for ``(T, T)`` scores.

    With ``q = scores``, ``k = I`` and ``v = I`` the kernel's output is its
    attention weight matrix.
    """
    eye = np.eye(scores.shape[-1], dtype=scores.dtype)
    out, _ = numpy_backend.scaled_dot_product_attention(scores[None], eye[None], eye[None], 1.0)
    return out[0]


class TestSoftmax:
    """The softmax inside the fused attention and cross-entropy kernels."""

    def test_rows_sum_to_one(self, rng):
        weights = _attention_weights(rng.standard_normal((4, 4)).astype(np.float32))
        np.testing.assert_allclose(weights.sum(axis=-1), np.ones(4), atol=1e-5)

    def test_numerical_stability_large_logits(self):
        logits = np.array([[1000.0, 1000.0, 999.0]], dtype=np.float32)
        assert np.isfinite(_attention_weights(np.repeat(logits, 3, axis=0))).all()
        loss, _ = numpy_backend.cross_entropy(logits, np.array([2]))
        assert np.isfinite(loss)

    def test_gradient_sums_to_zero(self, rng):
        logits = rng.standard_normal((2, 5)).astype(np.float32)
        _, residuals = numpy_backend.cross_entropy(logits, np.array([1, 4]))
        grad = numpy_backend.VJPS["cross_entropy"](residuals, 1.0)
        # softmax minus the one-hot target: every row sums to ~0.
        np.testing.assert_allclose(grad.sum(axis=-1), np.zeros(2), atol=1e-6)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = rng.standard_normal((1, 6)).astype(np.float32)
        loss, _ = numpy_backend.cross_entropy(x, np.array([3]))
        softmax = np.exp(x[0]) / np.exp(x[0]).sum()
        np.testing.assert_allclose(loss, -np.log(softmax[3]), atol=1e-5)


class TestLayerNorm:
    def test_output_normalized(self, rng):
        dim = 8
        x = Tensor(rng.standard_normal((5, dim)).astype(np.float32))
        weight = Tensor(np.ones(dim, dtype=np.float32))
        bias = Tensor(np.zeros(dim, dtype=np.float32))
        out = F.layer_norm(x, weight, bias)
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(5), atol=1e-5)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones(5), atol=1e-2)

    def test_affine_parameters_receive_grads(self, rng):
        dim = 4
        x = Tensor(rng.standard_normal((3, dim)).astype(np.float32), requires_grad=True)
        weight = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        bias = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)
        F.layer_norm(x, weight, bias).backward(np.ones((3, dim)))
        assert weight.grad is not None and bias.grad is not None and x.grad is not None
        np.testing.assert_allclose(bias.grad, 3 * np.ones(dim))


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.array([[[10.0, -10.0], [-10.0, 10.0]]]), requires_grad=True)
        loss = F.cross_entropy(logits, np.array([[0, 1]]))
        assert float(loss.data) < 1e-3

    def test_uniform_prediction_log_vocab(self):
        vocab = 8
        logits = Tensor(np.zeros((1, 3, vocab)), requires_grad=True)
        loss = F.cross_entropy(logits, np.zeros((1, 3), dtype=np.int64))
        assert float(loss.data) == pytest.approx(np.log(vocab), abs=1e-4)

    def test_ignore_index_masks_positions(self):
        logits = Tensor(np.zeros((1, 4, 5)), requires_grad=True)
        targets = np.array([[1, -100, 2, -100]])
        loss = F.cross_entropy(logits, targets, ignore_index=-100)
        loss.backward()
        grads = logits.grad[0]
        assert np.abs(grads[1]).sum() == 0.0
        assert np.abs(grads[3]).sum() == 0.0
        assert np.abs(grads[0]).sum() > 0.0

    def test_all_ignored_raises(self):
        logits = Tensor(np.zeros((1, 2, 3)), requires_grad=True)
        with pytest.raises(ValueError):
            F.cross_entropy(logits, np.full((1, 2), -100), ignore_index=-100)

    def test_shape_mismatch_raises(self):
        logits = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            F.cross_entropy(logits, np.zeros((2, 2), dtype=np.int64))

    def test_gradient_is_probability_minus_onehot(self):
        logits = Tensor(np.zeros((1, 1, 4)), requires_grad=True)
        F.cross_entropy(logits, np.array([[2]])).backward()
        expected = np.full(4, 0.25)
        expected[2] -= 1.0
        np.testing.assert_allclose(logits.grad[0, 0], expected, atol=1e-5)


class TestDropout:
    def test_training_zeroes_and_rescales(self, rng):
        mask = F.draw_dropout_mask((200, 200), 0.4, rng)
        zero_fraction = float((mask == 0).mean())
        assert 0.3 < zero_fraction < 0.5
        assert set(np.unique(mask)) == {np.float32(0.0), np.float32(1.0 / 0.6)}
        assert mask.mean() == pytest.approx(1.0, abs=0.05)


class TestMasks:
    def test_causal_mask_upper_triangle(self):
        mask = F.attention_scores_mask(4)
        assert mask.shape == (4, 4)
        assert not mask[2, 1] and mask[1, 2]
