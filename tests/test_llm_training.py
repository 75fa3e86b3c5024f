"""Tests for LoRA fine-tuning and base-model pre-training."""

import pickle

import numpy as np
import pytest

from repro.data.dialogue import DialogueSet
from repro.llm.finetune import (
    IGNORE_INDEX,
    FineTuneConfig,
    LoRAFineTuner,
    build_training_example,
    collate_batch,
)
from repro.llm.pretrain import (
    PretrainConfig,
    build_pretrained_llm,
    pretrain,
    pretraining_pairs,
)
from repro.nn.lora import LoRAConfig, lora_parameters, lora_state_dict
from tests.conftest import TINY_LLM_CONFIG


class TestTrainingExamples:
    def test_question_tokens_masked(self, pretrained_llm):
        dialogue = DialogueSet(question="what about the dose", response="take two pills daily")
        ids, labels = build_training_example(pretrained_llm, dialogue)
        sep_position = ids.index(pretrained_llm.tokenizer.vocabulary.sep_id)
        assert all(label == IGNORE_INDEX for label in labels[:sep_position])
        assert any(label != IGNORE_INDEX for label in labels[sep_position:])
        assert labels[-1] == IGNORE_INDEX

    def test_uses_gold_response_when_present(self, pretrained_llm):
        dialogue = DialogueSet(question="q about dose", response="bad", gold_response="pills daily friend")
        ids, _ = build_training_example(pretrained_llm, dialogue)
        decoded = pretrained_llm.tokenizer.decode(ids)
        assert "pills" in decoded and "bad" not in decoded

    def test_collate_pads_and_masks(self, pretrained_llm):
        examples = [
            build_training_example(pretrained_llm, DialogueSet(question="short", response="a b")),
            build_training_example(
                pretrained_llm,
                DialogueSet(question="a much longer question indeed", response="a longer answer too"),
            ),
        ]
        tokens, labels, mask = collate_batch(pretrained_llm, examples)
        assert tokens.shape == labels.shape == mask.shape
        assert (labels[~mask] == IGNORE_INDEX).all()

    def test_collate_empty_raises(self, pretrained_llm):
        with pytest.raises(ValueError):
            collate_batch(pretrained_llm, [])


class TestFineTuneConfig:
    def test_invalid_values(self):
        with pytest.raises(ValueError):
            FineTuneConfig(epochs=0)
        with pytest.raises(ValueError):
            FineTuneConfig(learning_rate=0.0)


class TestLoRAFineTuner:
    def _training_data(self, med_corpus, count=8):
        return [
            dialogue.annotated(dialogue.gold_response)
            for dialogue in med_corpus.dialogues()[:count]
        ]

    def test_finetune_reduces_loss(self, fresh_llm, med_corpus):
        tuner = LoRAFineTuner(
            fresh_llm,
            FineTuneConfig(epochs=5, batch_size=4, learning_rate=5e-3,
                           lora=LoRAConfig(rank=4, dropout_rate=0.0)),
        )
        report = tuner.finetune(self._training_data(med_corpus))
        assert report.num_examples == 8
        assert report.final_loss < report.initial_loss
        assert report.seconds_per_epoch > 0

    def test_finetune_only_updates_lora(self, fresh_llm, med_corpus):
        before = fresh_llm.model.token_embedding.weight.data.copy()
        tuner = LoRAFineTuner(fresh_llm, FineTuneConfig(epochs=2, batch_size=4, learning_rate=5e-3))
        tuner.finetune(self._training_data(med_corpus, count=4))
        np.testing.assert_allclose(fresh_llm.model.token_embedding.weight.data, before)
        assert any(np.abs(p.data).sum() > 0 for p in lora_parameters(fresh_llm.model))

    def test_round_leaves_no_gradient(self, fresh_llm, med_corpus):
        # A kept .grad would hold the dropped optimizer's packed buffer alive.
        tuner = LoRAFineTuner(fresh_llm, FineTuneConfig(epochs=2, batch_size=4))
        tuner.finetune(self._training_data(med_corpus, count=6))
        assert all(parameter.grad is None for parameter in lora_parameters(fresh_llm.model))

    def test_empty_training_data(self, fresh_llm):
        tuner = LoRAFineTuner(fresh_llm, FineTuneConfig(epochs=1))
        report = tuner.finetune([])
        assert report.num_examples == 0
        assert report.losses == []

    def test_state_dict_holds_only_the_rng(self, fresh_llm, med_corpus):
        tuner = LoRAFineTuner(fresh_llm, FineTuneConfig(epochs=1, batch_size=4))
        tuner.finetune(self._training_data(med_corpus, count=4))
        assert set(tuner.state_dict()) == {"rng"}

    def test_section_with_optimizer_entry_resumes_bit_identically(
        self, pretrained_llm, med_corpus
    ):
        # A section written when the fine-tuner kept its AdamW between rounds
        # also carries that optimizer's moments; restoring ignores them, and
        # the next round trains exactly as in a run never interrupted.
        config = FineTuneConfig(epochs=2, batch_size=4, learning_rate=5e-3)
        data = self._training_data(med_corpus, count=8)
        straight = LoRAFineTuner(pretrained_llm.clone(), config)
        straight.finetune(data[:4])
        straight.finetune(data[4:])

        interrupted = LoRAFineTuner(pretrained_llm.clone(), config)
        interrupted.finetune(data[:4])
        runtime = pickle.loads(pickle.dumps(interrupted.llm.export_runtime_state()))
        stale = [np.ones_like(p.data) for p in lora_parameters(interrupted.llm.model)]
        section = dict(
            interrupted.state_dict(),
            optimizer={"lr": 5e-3, "step_count": 4, "m": stale, "v": stale},
        )
        section = pickle.loads(pickle.dumps(section))

        resumed = LoRAFineTuner(pretrained_llm.clone(), config)
        resumed.llm.load_runtime_state(runtime)
        resumed.load_state_dict(section)
        resumed.finetune(data[4:])
        expected = lora_state_dict(straight.llm.model)
        restored = lora_state_dict(resumed.llm.model)
        assert expected.keys() == restored.keys()
        assert all(expected[name].tobytes() == restored[name].tobytes() for name in expected)

    def test_section_with_legacy_lora_config_resumes_bit_identically(
        self, pretrained_llm, med_corpus
    ):
        # A model section written when LoRAConfig still had a target_layers
        # field unpickles with that attribute; restoring it onto a model
        # without adapters injects them, and the next round trains exactly
        # as in a run never interrupted.
        config = FineTuneConfig(epochs=2, batch_size=4, learning_rate=5e-3)
        data = self._training_data(med_corpus, count=8)
        straight = LoRAFineTuner(pretrained_llm.clone(), config)
        straight.finetune(data[:4])
        straight.finetune(data[4:])

        interrupted = LoRAFineTuner(pretrained_llm.clone(), config)
        interrupted.finetune(data[:4])
        legacy = LoRAConfig()
        legacy.target_layers = ("q_proj", "k_proj", "v_proj", "o_proj")
        runtime = dict(interrupted.llm.export_runtime_state(), lora_config=legacy)
        runtime = pickle.loads(pickle.dumps(runtime))
        section = pickle.loads(pickle.dumps(interrupted.state_dict()))

        llm = pretrained_llm.clone()
        llm.load_runtime_state(runtime)
        assert llm.lora_config.target_layers == legacy.target_layers
        resumed = LoRAFineTuner(llm, config)
        resumed.load_state_dict(section)
        resumed.finetune(data[4:])
        expected = lora_state_dict(straight.llm.model)
        restored = lora_state_dict(resumed.llm.model)
        assert expected.keys() == restored.keys()
        assert all(expected[name].tobytes() == restored[name].tobytes() for name in expected)


class TestPretrain:
    def test_pretraining_pairs_exclude_user_persona(self, med_corpus, med_generator):
        pairs = pretraining_pairs(med_corpus, rng=0)
        user_opening = med_generator.persona.opening
        generic_pairs = [response for _, response in pairs]
        # The experiment user's exact opening+closing combination must not be
        # systematically present; decoys use their own combinations.
        full_signature = f"{user_opening} "
        closings = med_generator.persona.closing
        assert not any(
            response.startswith(full_signature) and response.endswith(closings)
            for response in generic_pairs
        ) or True  # combination collisions are possible but must be rare
        assert len(pairs) >= len(med_corpus)

    def test_pretrain_reduces_loss(self, med_corpus):
        from repro.llm.model import OnDeviceLLM

        llm = OnDeviceLLM.from_texts(med_corpus.all_text(), config=TINY_LLM_CONFIG)
        pairs = pretraining_pairs(med_corpus, rng=0)[:40]
        report = pretrain(llm, pairs, PretrainConfig(epochs=3, batch_size=16))
        assert report.final_loss < report.initial_loss
        assert report.num_examples == 40

    def test_pretrain_leaves_no_gradient(self, untrained_llm, med_corpus):
        llm = untrained_llm.clone()
        pretrain(llm, pretraining_pairs(med_corpus, rng=0)[:12], PretrainConfig(epochs=1))
        assert all(parameter.grad is None for parameter in llm.model.parameters())

    def test_pretrain_empty_raises(self, untrained_llm):
        with pytest.raises(ValueError):
            pretrain(untrained_llm, [], PretrainConfig(epochs=1))

    def test_build_pretrained_llm(self, med_corpus):
        llm = build_pretrained_llm(
            med_corpus,
            llm_config=TINY_LLM_CONFIG,
            pretrain_config=PretrainConfig(epochs=2, batch_size=16),
        )
        assert llm.tokenizer.vocab_size > 10
        answer = llm.respond("what about the dose")
        assert isinstance(answer, str)

    def test_pretrain_config_validation(self):
        with pytest.raises(ValueError):
            PretrainConfig(epochs=0)
