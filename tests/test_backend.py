"""Tests for the repro.nn.backend seam: selection, contract, workspace.

The backend layer is the boundary the fused kernels live behind; these tests
pin its public API (registration, env-var selection, the primitive/VJP
contract) and the invariant the rest of ``repro.nn`` is built on: the
autograd reference and the array-level inference path call the *same*
forward kernels, so their outputs are bit-identical.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.nn import backend
from repro.nn.backend import numpy_backend
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerConfig, TransformerLM


@pytest.fixture(autouse=True)
def _restore_active_backend():
    previous = backend.active()
    yield
    backend._active = previous


class TestSelection:
    def test_numpy_is_registered_and_default(self):
        assert "numpy" in backend.available_backends()
        assert backend.active().name == "numpy"

    def test_get_backend_unknown_name_raises_with_listing(self):
        with pytest.raises(RuntimeError, match="unknown backend 'cuda'.*numpy"):
            backend.get_backend("cuda")

    def test_register_backend_and_set(self):
        backend.register_backend("numpy-alias", lambda: numpy_backend)
        try:
            assert "numpy-alias" in backend.available_backends()
            previous = backend.set_backend("numpy-alias")
            assert previous is not None
            assert backend.active() is numpy_backend
        finally:
            backend._LOADERS.pop("numpy-alias", None)

    def test_register_empty_name_raises(self):
        with pytest.raises(ValueError):
            backend.register_backend("", lambda: numpy_backend)

    def test_env_var_resolved_on_first_use(self):
        # Fresh interpreter: REPRO_BACKEND must pick the backend lazily.
        code = (
            "import os; os.environ['REPRO_BACKEND'] = 'numpy';"
            "from repro.nn.backend import active; print(active().name)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "numpy"

    def test_env_var_unknown_backend_fails_loudly(self):
        code = (
            "import os; os.environ['REPRO_BACKEND'] = 'no-such-backend';"
            "from repro.nn.backend import active; active()"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert result.returncode != 0
        assert "no-such-backend" in result.stderr


class TestContract:
    def test_primitives_return_out_and_residuals(self):
        out, residuals = numpy_backend.softmax(np.zeros((2, 3)))
        np.testing.assert_allclose(out, np.full((2, 3), 1.0 / 3.0))
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

    def _model(self):
        config = TransformerConfig(
            vocab_size=64,
            dim=16,
            num_layers=2,
            num_heads=2,
            max_seq_len=12,
            dropout_rate=0.0,
        )
        model = TransformerLM(config, rng=np.random.default_rng(0))
        model.eval()
        return model

    def test_inference_mode_logits_bit_identical(self):
        model = self._model()
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
        from repro.nn import functional as F

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
