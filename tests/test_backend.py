"""Tests for the fused kernels in repro.nn.backend: contract, lookup, workspace.

The kernel module is the boundary the layers call into; these tests pin the
primitive/VJP contract, that every caller looks a kernel up on the module at
call time (so a timer or a test can rebind it in place), and the invariant
the rest of ``repro.nn`` is built on: the autograd reference and the
array-level inference path call the *same* forward kernels, so their outputs
are bit-identical.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.backend import numpy_backend
from repro.nn.layers import Linear
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerConfig, TransformerLM


def _tiny_model():
    config = TransformerConfig(
        vocab_size=64,
        dim=16,
        num_layers=2,
        num_heads=2,
        max_seq_len=12,
    )
    return TransformerLM(config, rng=np.random.default_rng(0))


class TestCallTimeLookup:
    def test_kernels_are_looked_up_at_call_time(self, monkeypatch):
        calls = {"linear": 0, "vjp": 0}
        linear, linear_vjp = numpy_backend.linear, numpy_backend.VJPS["linear"]

        def counting_linear(*args):
            calls["linear"] += 1
            return linear(*args)

        def counting_vjp(*args):
            calls["vjp"] += 1
            return linear_vjp(*args)

        monkeypatch.setattr(numpy_backend, "linear", counting_linear)
        monkeypatch.setitem(numpy_backend.VJPS, "linear", counting_vjp)
        rng = np.random.default_rng(0)

        layer = Linear(8, 4, rng=rng)
        layer.raw_forward(rng.standard_normal((3, 8)).astype(np.float32))
        assert calls == {"linear": 1, "vjp": 0}

        calls.update(linear=0, vjp=0)
        model = _tiny_model()
        tokens = rng.integers(1, 64, size=(2, 6))
        model.train_step(tokens, np.ones_like(tokens, dtype=bool), tokens)
        assert calls["linear"] > 0 and calls["vjp"] > 0

        calls.update(linear=0, vjp=0)
        x = Tensor(rng.standard_normal((3, 8)).astype(np.float32), requires_grad=True)
        out = F.linear(x, layer.weight, layer.bias)
        out.backward(np.ones_like(out.data))
        assert calls == {"linear": 1, "vjp": 1}


class TestContract:
    def test_primitives_return_out_and_residuals(self):
        out, residuals = numpy_backend.linear(np.ones((2, 3)), np.ones((4, 3)), np.zeros(4))
        np.testing.assert_allclose(out, np.full((2, 4), 3.0))
        assert residuals is not None

    def test_every_vjp_has_a_primitive(self):
        assert set(numpy_backend.VJPS) <= set(numpy_backend.PRIMITIVES)

    def test_vjp_gradients_are_caller_owned(self):
        # Gradients must be fresh allocations: mutating one must not corrupt
        # the residuals or the incoming grad (the autograd layer accumulates
        # into them in place).
        x = np.random.default_rng(0).standard_normal((3, 4))
        out, residuals = numpy_backend.gelu(x)
        grad = np.ones_like(out)
        grad_before = grad.copy()
        grad_x = numpy_backend.VJPS["gelu"](residuals, grad)
        grad_x += 123.0
        np.testing.assert_array_equal(grad, grad_before)
        assert grad_x.base is None or grad_x.base is not grad


class TestWorkspace:
    def test_reuses_buffer_for_same_tag_and_shape(self):
        workspace = numpy_backend.Workspace()
        first = workspace.get("hidden", (4, 8))
        second = workspace.get("hidden", (4, 8))
        assert first is second

    def test_reallocates_on_shape_change(self):
        workspace = numpy_backend.Workspace()
        first = workspace.get("hidden", (4, 8))
        second = workspace.get("hidden", (2, 8))
        assert first is not second
        assert second.shape == (2, 8)

    def test_reallocates_on_dtype_change(self):
        workspace = numpy_backend.Workspace()
        first = workspace.get("x", (4,), dtype=np.float32)
        second = workspace.get("x", (4,), dtype=np.float64)
        assert first is not second and second.dtype == np.float64

    def test_distinct_tags_are_distinct_buffers(self):
        workspace = numpy_backend.Workspace()
        assert workspace.get(("a", 0), (4,)) is not workspace.get(("a", 1), (4,))

    def test_nbytes_and_clear(self):
        workspace = numpy_backend.Workspace()
        workspace.get("x", (8,), dtype=np.float32)
        assert workspace.nbytes() == 32
        workspace.clear()
        assert workspace.nbytes() == 0


class TestForwardBitIdentity:
    """Grad path and raw path share kernels, so logits match bit for bit."""

    def test_inference_mode_logits_bit_identical(self):
        model = _tiny_model()
        model.eval()
        tokens = np.array([[3, 7, 11, 2], [0, 0, 5, 9]])
        mask = tokens != 0
        recorded = model(tokens, attention_mask=mask)
        raw = model.hidden_states(tokens, attention_mask=mask) @ model.token_embedding.weight.data.T
        np.testing.assert_array_equal(recorded.data, raw)

    def test_grad_wrapper_matches_raw_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 5, 8)).astype(np.float32)
        w = rng.standard_normal((8,)).astype(np.float32)
        b = rng.standard_normal((8,)).astype(np.float32)
        wrapped = F.layer_norm(
            Tensor(x, requires_grad=True), Tensor(w, requires_grad=True), Tensor(b)
        )
        raw, _ = numpy_backend.layernorm(x, w, b)
        np.testing.assert_array_equal(wrapped.data, raw)


def _dense_cross_entropy(logits, targets, ignore_index):
    """The all-rows formulation: log-softmax everywhere, ignored rows zeroed."""
    flat_logits = logits.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    valid = flat_targets != ignore_index
    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = log_probs[np.arange(flat_targets.size), np.where(valid, flat_targets, 0)]
    loss = np.asarray(-(picked * valid).sum() / int(valid.sum()), dtype=logits.dtype)
    grad = np.exp(log_probs)
    grad[np.arange(flat_targets.size), np.where(valid, flat_targets, 0)] -= 1.0
    grad *= valid[:, None]
    grad *= 1.0 / int(valid.sum())
    return loss, grad.reshape(logits.shape)


class TestCrossEntropyRows:
    """The kernel's softmax skips ignored rows without changing a bit."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_all_rows_formulation(self, seed):
        rng = np.random.default_rng(seed)
        batch, seq, vocab = int(rng.integers(1, 6)), int(rng.integers(1, 30)), 37
        logits = (rng.standard_normal((batch, seq, vocab)) * 3).astype(np.float32)
        labelled = rng.random((batch, seq)) < 0.6
        targets = np.where(labelled, rng.integers(0, vocab, (batch, seq)), -100)
        targets[0, 0] = 1
        loss, residuals = numpy_backend.cross_entropy(logits, targets, -100)
        grad = numpy_backend.VJPS["cross_entropy"](residuals, 1.0)
        expected_loss, expected_grad = _dense_cross_entropy(logits, targets, -100)
        assert loss.tobytes() == expected_loss.tobytes()
        np.testing.assert_array_equal(grad, expected_grad)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
