"""Tests for LoRA injection, freezing and adapter persistence."""

import numpy as np
import pytest

from repro.nn.layers import Linear
from repro.nn.lora import (
    DEFAULT_TARGET_LAYERS,
    LoRAConfig,
    LoRALinear,
    inject_lora,
    load_lora_state_dict,
    lora_layers,
    lora_parameters,
    lora_state_dict,
)
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerConfig, TransformerLM


@pytest.fixture()
def model(rng):
    config = TransformerConfig(vocab_size=30, max_seq_len=16, dim=16, num_layers=2, num_heads=2)
    return TransformerLM(config, rng=rng)


class TestLoRAConfig:
    def test_scaling(self):
        assert LoRAConfig(rank=8, alpha=16).scaling == 2.0

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            LoRAConfig(rank=0)
        with pytest.raises(ValueError):
            LoRAConfig(dropout_rate=1.0)


class TestLoRALinear:
    def test_starts_as_noop(self, rng):
        base = Linear(8, 8, rng=rng)
        adapted = LoRALinear(base, LoRAConfig(rank=4, dropout_rate=0.0), rng=rng)
        adapted.eval()
        x = Tensor(rng.standard_normal((3, 8)).astype(np.float32))
        np.testing.assert_allclose(adapted(x).data, base(x).data, atol=1e-6)

    def test_base_frozen_adapter_trainable(self, rng):
        base = Linear(8, 8, rng=rng)
        adapted = LoRALinear(base, LoRAConfig(rank=4), rng=rng)
        assert not base.weight.requires_grad
        assert adapted.lora_a.requires_grad and adapted.lora_b.requires_grad


class TestInjection:
    def test_inject_targets_all_projections(self, model):
        adapters = inject_lora(model, LoRAConfig(rank=4))
        assert len(adapters) == 2 * len(DEFAULT_TARGET_LAYERS)
        assert len(lora_layers(model)) == len(adapters)

    def test_inject_freezes_everything_else(self, model):
        inject_lora(model, LoRAConfig(rank=4))
        trainable = model.trainable_parameters()
        lora_params = lora_parameters(model)
        assert {id(t) for t in trainable} == {id(t) for t in lora_params}

    def test_inject_into_model_without_attention_raises(self, rng):
        with pytest.raises(ValueError):
            inject_lora(Linear(4, 4, rng=rng))

    def test_forward_still_works_after_injection(self, model, rng):
        inject_lora(model, LoRAConfig(rank=4))
        tokens = rng.integers(0, 30, size=(2, 8))
        assert model(tokens).shape == (2, 8, 30)

    def test_recorded_adapter_list_matches_tree_walk(self, model):
        inject_lora(model, LoRAConfig(rank=4))
        walked = [m for m in model.modules() if isinstance(m, LoRALinear)]
        assert lora_layers(model) == walked
        # A second injection wraps nothing twice; the record is unchanged.
        assert inject_lora(model, LoRAConfig(rank=4)) == []
        walked = [m for m in model.modules() if isinstance(m, LoRALinear)]
        assert len(walked) == 8
        assert lora_layers(model) == walked
        # The record is private state: parameter discovery never walks it.
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        assert not any("_lora_layers" in name for name in names)
        assert sum(isinstance(m, LoRALinear) for m in model.modules()) == 8

    def test_adapters_join_an_eval_model_in_eval_mode(self, model):
        model.eval()
        inject_lora(model, LoRAConfig(rank=4))
        assert not any(module.training for module in model.modules())
        model.train()
        assert all(module.training for module in model.modules())


class TestAdapterStateDict:
    def test_roundtrip(self, model):
        inject_lora(model, LoRAConfig(rank=4))
        for layer in lora_layers(model):
            layer.lora_b.data += 0.5
        state = lora_state_dict(model)
        for layer in lora_layers(model):
            layer.lora_b.data *= 0.0
        load_lora_state_dict(model, state)
        assert all(np.allclose(layer.lora_b.data, 0.5) for layer in lora_layers(model))

    def test_key_mismatch_raises(self, model):
        inject_lora(model, LoRAConfig(rank=4))
        with pytest.raises(ValueError):
            load_lora_state_dict(model, {"bogus": np.zeros(1)})

    def test_shape_mismatch_raises_and_loads_nothing(self, model):
        """A state saved under another rank fails cleanly, without half-loading."""
        inject_lora(model, LoRAConfig(rank=4))
        state = lora_state_dict(model)
        before = {key: value.copy() for key, value in state.items()}
        wrong_rank = {
            key: np.zeros((8, value.shape[1]) if key.endswith("lora_a") else (value.shape[0], 8),
                          dtype=np.float32)
            for key, value in state.items()
        }
        with pytest.raises(ValueError, match="different LoRA rank"):
            load_lora_state_dict(model, wrong_rank)
        after = lora_state_dict(model)
        assert all(np.array_equal(after[key], before[key]) for key in before)
