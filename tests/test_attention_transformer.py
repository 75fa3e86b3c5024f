"""Tests for causal attention and the transformer language model."""

import numpy as np
import pytest

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.functional import cross_entropy
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerConfig, TransformerLM


class TestAttention:
    def test_output_shape(self, rng):
        attention = MultiHeadSelfAttention(16, 4, rng=rng)
        x = Tensor(rng.standard_normal((2, 5, 16)).astype(np.float32))
        assert attention(x).shape == (2, 5, 16)

    def test_dim_not_divisible_raises(self, rng):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3, rng=rng)

    def test_causality(self, rng):
        """Changing a future token must not change earlier positions' output."""
        attention = MultiHeadSelfAttention(8, 2, rng=rng)
        attention.eval()
        x1 = rng.standard_normal((1, 6, 8)).astype(np.float32)
        x2 = x1.copy()
        x2[0, 5, :] += 10.0  # perturb only the last position
        out1 = attention(Tensor(x1)).data
        out2 = attention(Tensor(x2)).data
        np.testing.assert_allclose(out1[0, :5], out2[0, :5], atol=1e-5)
        assert not np.allclose(out1[0, 5], out2[0, 5])

    def test_padding_mask_blocks_attention(self, rng):
        attention = MultiHeadSelfAttention(8, 2, rng=rng)
        attention.eval()
        x = rng.standard_normal((1, 4, 8)).astype(np.float32)
        mask_full = np.array([[True, True, True, True]])
        mask_padded = np.array([[True, True, False, False]])
        # With padding masked out, outputs at the first two positions must not
        # depend on the padded content.
        x_alt = x.copy()
        x_alt[0, 2:, :] += 5.0
        out_a = attention(Tensor(x), attention_mask=mask_padded).data
        out_b = attention(Tensor(x_alt), attention_mask=mask_padded).data
        np.testing.assert_allclose(out_a[0, :2], out_b[0, :2], atol=1e-5)
        # Without the padding mask the (causally last) position does see the
        # perturbed content, so its output must change.
        out_full_a = attention(Tensor(x), attention_mask=mask_full).data
        out_full_b = attention(Tensor(x_alt), attention_mask=mask_full).data
        assert not np.allclose(out_full_a[0, 3], out_full_b[0, 3], atol=1e-5)


class TestTransformerConfig:
    def test_invalid_heads(self):
        with pytest.raises(ValueError):
            TransformerConfig(dim=30, num_heads=4)

    def test_invalid_dropout(self):
        with pytest.raises(ValueError):
            TransformerConfig(dropout_rate=1.5)


class TestTransformerLM:
    @pytest.fixture()
    def model(self, rng):
        config = TransformerConfig(
            vocab_size=40, max_seq_len=16, dim=16, num_layers=2, num_heads=2
        )
        return TransformerLM(config, rng=rng)

    def test_logits_shape(self, model, rng):
        tokens = rng.integers(0, 40, size=(3, 10))
        assert model(tokens).shape == (3, 10, 40)

    def test_return_hidden(self, model, rng):
        tokens = rng.integers(0, 40, size=(2, 6))
        mask = np.ones((2, 6), dtype=bool)
        mask[1, :2] = False  # left padding
        hidden = model.hidden_states(tokens, attention_mask=mask)
        logits = model(tokens, attention_mask=mask).data
        assert hidden.shape == (2, 6, 16)
        assert logits.shape == (2, 6, 40)
        # The tied head: the graph-free hidden states carry forward's logits.
        assert np.array_equal(hidden @ model.token_embedding.weight.data.T, logits)

    def test_too_long_sequence_raises(self, model, rng):
        with pytest.raises(ValueError):
            model(rng.integers(0, 40, size=(1, 30)))

    def test_non_2d_input_raises(self, model):
        with pytest.raises(ValueError):
            model(np.array([1, 2, 3]))

    def test_causality_of_logits(self, model, rng):
        tokens = rng.integers(0, 40, size=(1, 8))
        altered = tokens.copy()
        altered[0, -1] = (altered[0, -1] + 1) % 40
        model.eval()
        logits_a = model(tokens).data
        logits_b = model(altered).data
        np.testing.assert_allclose(logits_a[0, :-1], logits_b[0, :-1], atol=1e-5)

    def test_hidden_states_returns_array(self, model, rng):
        hidden = model.hidden_states(rng.integers(0, 40, size=(1, 5)))
        assert isinstance(hidden, np.ndarray)
        assert hidden.shape == (1, 5, 16)

    def test_hidden_states_restores_training_mode_on_error(self, model, rng):
        model.train()
        with pytest.raises(ValueError, match="exceeds max_seq_len"):
            model.hidden_states(rng.integers(0, 40, size=(1, 30)))
        assert model.training
        assert all(module.training for module in model.modules())

    def test_tied_embeddings_reduce_parameters(self, rng):
        config_tied = TransformerConfig(vocab_size=50, dim=16, num_layers=1, num_heads=2)
        config_untied = TransformerConfig(
            vocab_size=50, dim=16, num_layers=1, num_heads=2, tie_embeddings=False
        )
        tied = TransformerLM(config_tied, rng=rng)
        untied = TransformerLM(config_untied, rng=rng)
        assert untied.num_parameters() > tied.num_parameters()

    def test_training_reduces_loss(self, model, rng):
        tokens = rng.integers(0, 40, size=(4, 10))
        targets = np.roll(tokens, -1, axis=1)
        optimizer = Adam(model.trainable_parameters(), lr=5e-3)
        initial = float(cross_entropy(model(tokens), targets).data)
        for _ in range(25):
            model.zero_grad()
            loss = cross_entropy(model(tokens), targets)
            loss.backward()
            optimizer.step()
        assert float(loss.data) < initial * 0.8

    def test_parameter_count_tuple(self, model):
        total, trainable = model.parameter_count()
        assert total == trainable > 0
