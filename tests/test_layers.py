"""Tests for repro.nn.layers (Module base class and concrete layers)."""

import numpy as np
import pytest

from repro.nn.layers import Dropout, Embedding, FeedForward, LayerNorm, Linear, Module
from repro.nn.tensor import Tensor


class Stack(Module):
    """A module holding a list of submodules (parameter discovery walks lists)."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = list(modules)


class TestLinear:
    def test_output_shape_and_bias(self, rng):
        layer = Linear(8, 3, rng=rng)
        x = Tensor(rng.standard_normal((5, 8)).astype(np.float32))
        assert layer(x).shape == (5, 3)
        assert len(layer.parameters()) == 2

    def test_batched_input(self, rng):
        layer = Linear(6, 4, rng=rng)
        x = Tensor(rng.standard_normal((2, 3, 6)).astype(np.float32))
        assert layer(x).shape == (2, 3, 4)

    def test_gradients_flow_to_weight_and_bias(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        layer(x).backward(np.ones((4, 2)))
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestEmbedding:
    def test_lookup_shape(self, rng):
        embedding = Embedding(10, 4, rng=rng)
        ids = np.array([[1, 2], [3, 4]])
        assert embedding(ids).shape == (2, 2, 4)

    def test_out_of_range_raises(self, rng):
        embedding = Embedding(5, 2, rng=rng)
        with pytest.raises(IndexError):
            embedding(np.array([[7]]))

    def test_gradient_accumulates_per_row(self, rng):
        embedding = Embedding(6, 3, rng=rng)
        embedding(np.array([[0, 0, 1]])).backward(np.ones((1, 3, 3)))
        assert np.allclose(embedding.weight.grad[0], 2.0)
        assert np.allclose(embedding.weight.grad[1], 1.0)
        assert np.allclose(embedding.weight.grad[2], 0.0)


class TestLayerNormModule:
    def test_parameters_registered(self):
        layer = LayerNorm(8)
        assert len(layer.parameters()) == 2

    def test_forward_shape(self, rng):
        layer = LayerNorm(8)
        x = Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32))
        assert layer(x).shape == (2, 5, 8)


class TestDropoutModule:
    def test_eval_mode_identity(self, rng):
        """In eval mode the layer draws no mask and leaves its stream alone."""
        layer = Dropout(0.5, rng=rng)
        layer.eval()
        state = str(rng.bit_generator.state)
        assert layer.draw_mask((4, 4)) is None
        assert str(rng.bit_generator.state) == state

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.5)


class TestModuleMechanics:
    def test_named_parameters_recursive(self, rng):
        model = Stack(Linear(4, 4, rng=rng), LayerNorm(4), Linear(4, 2, rng=rng))
        names = [name for name, _ in model.named_parameters()]
        assert any("layers.0.weight" in name for name in names)
        assert any("layers.2.bias" in name for name in names)
        assert len(names) == 6

    def test_num_parameters_counts(self, rng):
        layer = Linear(4, 3, rng=rng)
        assert layer.num_parameters() == 4 * 3 + 3

    def test_train_eval_propagates(self, rng):
        model = Stack(Dropout(0.2, rng=rng), Linear(2, 2, rng=rng))
        model.eval()
        assert all(not module.training for module in model.modules())
        model.train()
        assert all(module.training for module in model.modules())

    def test_zero_grad_clears(self, rng):
        layer = Linear(3, 3, rng=rng)
        layer(Tensor(np.ones((1, 3), dtype=np.float32))).backward(np.ones((1, 3)))
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self, rng):
        layer_a = Linear(4, 4, rng=np.random.default_rng(1))
        layer_b = Linear(4, 4, rng=np.random.default_rng(2))
        assert not np.allclose(layer_a.weight.data, layer_b.weight.data)
        layer_b.load_state_dict(layer_a.state_dict())
        np.testing.assert_allclose(layer_a.weight.data, layer_b.weight.data)

    def test_state_dict_mismatch_raises(self, rng):
        layer = Linear(4, 4, rng=rng)
        state = layer.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(ValueError):
            layer.load_state_dict(state)

    def test_state_dict_shape_mismatch_raises(self, rng):
        layer = Linear(4, 4, rng=rng)
        state = layer.state_dict()
        state["weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)


class TestFeedForward:
    def test_shapes_and_grads(self, rng):
        block = FeedForward(8, 16, rng=rng)
        x = Tensor(rng.standard_normal((2, 3, 8)).astype(np.float32), requires_grad=True)
        out = block(x)
        assert out.shape == (2, 3, 8)
        out.backward(np.ones((2, 3, 8)))
        assert x.grad is not None
