"""Tests for the on-device LLM wrapper: embeddings, generation, persistence."""

import numpy as np
import pytest

from repro.llm.generation import GenerationConfig, apply_repetition_penalty, sample_next_token
from repro.llm.model import OnDeviceLLM, OnDeviceLLMConfig
from repro.nn.layers import Dropout
from repro.nn.lora import lora_layers


class TestGenerationConfig:
    def test_invalid_values(self):
        with pytest.raises(ValueError):
            GenerationConfig(max_new_tokens=0)
        with pytest.raises(ValueError):
            GenerationConfig(temperature=0.0)
        with pytest.raises(ValueError):
            GenerationConfig(repetition_penalty=0.5)

    def test_greedy_sampling_picks_argmax(self):
        logits = np.array([0.1, 3.0, -1.0])
        assert sample_next_token(logits, GenerationConfig(greedy=True)) == 1

    def test_temperature_sampling_valid_index(self, rng):
        logits = np.array([0.5, 0.4, 0.3, 0.2])
        token = sample_next_token(logits, GenerationConfig(temperature=1.0), rng=rng)
        assert 0 <= token < 4

    def test_repetition_penalty_discourages_repeats(self):
        logits = np.array([2.0, 1.9])
        penalized = apply_repetition_penalty(logits, [0], penalty=2.0)
        assert penalized[0] < penalized[1]
        unchanged = apply_repetition_penalty(logits, [], penalty=2.0)
        np.testing.assert_allclose(unchanged, logits)


class TestOnDeviceLLM:
    def test_token_embeddings_shape(self, untrained_llm):
        embeddings = untrained_llm.token_embeddings("hello dose vial")
        assert embeddings.ndim == 2
        assert embeddings.shape[1] == untrained_llm.config.dim

    def test_empty_text_embedding(self, untrained_llm):
        embeddings = untrained_llm.token_embeddings("")
        assert embeddings.shape[0] >= 1
        vector = untrained_llm.embed_text("")
        assert vector.shape == (untrained_llm.config.dim,)

    def test_embed_batch(self, untrained_llm):
        matrix = untrained_llm.embed_batch(["a question", "another question here"])
        assert matrix.shape == (2, untrained_llm.config.dim)
        assert untrained_llm.embed_batch([]).shape == (0, untrained_llm.config.dim)

    def test_respond_and_generate_return_text(self, pretrained_llm):
        answer = pretrained_llm.respond("what should i know about dose and vial")
        assert isinstance(answer, str)
        continuation = pretrained_llm.generate("tell me about", GenerationConfig(max_new_tokens=5))
        assert isinstance(continuation, str)

    def test_generation_deterministic_with_greedy(self, pretrained_llm):
        config = GenerationConfig(greedy=True, max_new_tokens=10,
                                  stop_token_id=pretrained_llm.tokenizer.vocabulary.eos_id)
        a = pretrained_llm.respond("what about the dose", generation=config)
        b = pretrained_llm.respond("what about the dose", generation=config)
        assert a == b

    def test_add_lora_idempotent(self, fresh_llm):
        first = fresh_llm.add_lora()
        second = fresh_llm.add_lora()
        assert first == second
        assert fresh_llm.has_lora()

    def test_clone_is_independent_copy(self, pretrained_llm):
        clone = pretrained_llm.clone()
        reference = pretrained_llm.model.token_embedding.weight.data.copy()
        clone.model.token_embedding.weight.data += 1.0
        np.testing.assert_allclose(pretrained_llm.model.token_embedding.weight.data, reference)

    def test_clone_preserves_lora(self, fresh_llm):
        fresh_llm.add_lora()
        clone = fresh_llm.clone()
        assert clone.has_lora()

    def test_from_texts_builds_vocab(self):
        llm = OnDeviceLLM.from_texts(
            ["alpha beta gamma", "beta delta"],
            config=OnDeviceLLMConfig(dim=16, num_layers=1, num_heads=2, max_seq_len=32),
        )
        assert llm.tokenizer.vocab_size >= 9


def dropout_modules(llm):
    return [module for module in llm.model.module_list() if isinstance(module, Dropout)]


class TestDropoutStreams:
    """LoRA dropout is the model's only dropout.  ``reseed_dropout`` gives
    adapter ``i`` the stream number it had while the embedding dropout was
    stream 0 and each block's attention and FFN dropouts followed its four
    adapters, so every serving fine-tune draws the masks it drew then."""

    @pytest.fixture()
    def serving_shaped_llm(self):
        """Two blocks, as at every serving scale but ``paper``."""
        llm = OnDeviceLLM.from_texts(
            ["alpha beta gamma", "beta delta"],
            config=OnDeviceLLMConfig(dim=16, num_layers=2, num_heads=2, max_seq_len=32),
        )
        assert dropout_modules(llm) == []
        llm.add_lora()
        return llm

    def test_only_the_lora_adapters_drop_out(self, serving_shaped_llm):
        dropouts = dropout_modules(serving_shaped_llm)
        assert len(dropouts) == 8
        assert dropouts == [layer.lora_dropout for layer in lora_layers(serving_shaped_llm.model)]

    @pytest.mark.parametrize("seed", [0, 12345, 2**31 - 2])
    def test_reseed_keeps_each_adapters_stream_number(self, serving_shaped_llm, seed):
        serving_shaped_llm.reseed_dropout(seed)
        streams = [1, 2, 3, 4, 7, 8, 9, 10]
        for module, stream in zip(dropout_modules(serving_shaped_llm), streams, strict=True):
            expected = np.random.default_rng((seed + 7919 * stream) % (2**31 - 1))
            assert module._rng.bit_generator.state == expected.bit_generator.state
