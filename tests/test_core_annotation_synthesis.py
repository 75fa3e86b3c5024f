"""Tests for the annotation oracle and the data synthesizer."""

import pytest

from repro.core.annotation import AnnotationOracle
from repro.core.synthesis import SYNTHESIS_PROMPT, DataSynthesizer, SynthesisConfig
from repro.data.dialogue import DialogueSet
from repro.textmetrics.rouge import rouge_1_f1


@pytest.fixture()
def annotated_dialogue():
    return DialogueSet(
        question="what is the right dose of insulin for the morning",
        response="good question indeed please be careful and mindful about insulin dose",
        gold_response="good question indeed please be careful and mindful about insulin dose",
        domain="medical_drug",
    )


class TestAnnotationOracle:
    def test_returns_gold_response(self):
        oracle = AnnotationOracle(rng=0)
        dialogue = DialogueSet(question="q", response="model", gold_response="preferred")
        annotated = oracle.annotate(dialogue)
        assert annotated.response == "preferred"
        assert oracle.request_count == 1
        assert oracle.stats.provided == 1

    def test_missing_gold_keeps_original(self):
        oracle = AnnotationOracle(rng=0)
        dialogue = DialogueSet(question="q", response="model")
        assert oracle.annotate(dialogue).response == "model"
        assert oracle.stats.declined == 1

    def test_response_rate_zero_never_provides(self):
        oracle = AnnotationOracle(response_rate=0.0, rng=0)
        dialogue = DialogueSet(question="q", response="model", gold_response="gold")
        for _ in range(5):
            assert oracle.annotate(dialogue).response == "model"
        assert oracle.stats.provided == 0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            AnnotationOracle(response_rate=1.5)


class TestSynthesisConfig:
    def test_invalid_values(self):
        with pytest.raises(ValueError):
            SynthesisConfig(num_per_item=-1)
        with pytest.raises(ValueError):
            SynthesisConfig(similarity_threshold=1.5)
        with pytest.raises(ValueError):
            SynthesisConfig(strategy="diffusion")


class TestDataSynthesizerGuided:
    def test_generates_requested_count(self, pretrained_llm, annotated_dialogue):
        synthesizer = DataSynthesizer(
            pretrained_llm, SynthesisConfig(num_per_item=3, strategy="guided", seed=0)
        )
        generated = synthesizer.synthesize_for(annotated_dialogue)
        assert 1 <= len(generated) <= 3
        assert all(item.synthetic for item in generated)

    def test_generated_items_pass_similarity_threshold(self, pretrained_llm, annotated_dialogue):
        config = SynthesisConfig(num_per_item=3, similarity_threshold=0.4, strategy="guided", seed=1)
        synthesizer = DataSynthesizer(pretrained_llm, config)
        for item in synthesizer.synthesize_for(annotated_dialogue):
            assert rouge_1_f1(item.text(), annotated_dialogue.text()) >= config.similarity_threshold

    def test_zero_per_item(self, pretrained_llm, annotated_dialogue):
        synthesizer = DataSynthesizer(pretrained_llm, SynthesisConfig(num_per_item=0))
        assert synthesizer.synthesize_for(annotated_dialogue) == []

    def test_synthesize_over_buffer(self, pretrained_llm, med_corpus):
        originals = med_corpus.dialogues()[:4]
        synthesizer = DataSynthesizer(pretrained_llm, SynthesisConfig(num_per_item=2, seed=2))
        generated = synthesizer.synthesize(originals)
        assert len(generated) <= 8
        assert synthesizer.stats.requested == 8
        assert 0.0 <= synthesizer.stats.acceptance_rate() <= 1.0

    def test_domain_and_source_propagated(self, pretrained_llm, annotated_dialogue):
        synthesizer = DataSynthesizer(pretrained_llm, SynthesisConfig(num_per_item=1, seed=3))
        generated = synthesizer.synthesize_for(annotated_dialogue)
        assert generated and generated[0].domain == annotated_dialogue.domain


class TestDataSynthesizerLLM:
    def test_llm_strategy_runs_and_filters(self, pretrained_llm, annotated_dialogue):
        config = SynthesisConfig(num_per_item=2, strategy="llm", similarity_threshold=0.2, seed=0)
        synthesizer = DataSynthesizer(pretrained_llm, config)
        generated = synthesizer.synthesize_for(annotated_dialogue)
        # Everything returned (possibly nothing) must pass the sanity check.
        for item in generated:
            assert synthesizer.passes_sanity_check(item, annotated_dialogue)
        assert synthesizer.stats.requested == 2

    def test_prompt_matches_paper_wording(self):
        assert "semantically similar" in SYNTHESIS_PROMPT
        assert "no need to answer" in SYNTHESIS_PROMPT

    def test_sanity_check_boundary(self, pretrained_llm, annotated_dialogue):
        synthesizer = DataSynthesizer(pretrained_llm, SynthesisConfig(similarity_threshold=1.0))
        identical = DialogueSet(
            question=annotated_dialogue.question, response=annotated_dialogue.response
        )
        unrelated = DialogueSet(question="completely different words", response="zebra")
        assert synthesizer.passes_sanity_check(identical, annotated_dialogue)
        assert not synthesizer.passes_sanity_check(unrelated, annotated_dialogue)
