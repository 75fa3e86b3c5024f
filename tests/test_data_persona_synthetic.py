"""Tests for the user persona model and the synthetic corpus generators."""

from collections import Counter

import pytest

from repro.data.persona import UserPersona, generic_model_response
from repro.data.synthetic import (
    DATASET_NAMES,
    QUALITY_FILLER,
    QUALITY_RICH,
    QUALITY_THIN,
    STRONGLY_CORRELATED,
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
    dataset_preset,
    make_corpus,
    stream_noise_preset,
)
from repro.data.stream import temporal_correlation_index
from repro.tokenizer.word_tokenizer import split_words


class TestUserPersona:
    @pytest.fixture()
    def persona(self, lexicons):
        return UserPersona.sample(["medical_drug", "tech"], rng=3, lexicons=lexicons)

    def test_sample_deterministic(self, lexicons):
        a = UserPersona.sample(["tech"], rng=5, lexicons=lexicons)
        b = UserPersona.sample(["tech"], rng=5, lexicons=lexicons)
        assert a.opening == b.opening and a.domain_vocabulary == b.domain_vocabulary

    def test_preferred_response_contains_signature(self, persona, lexicons):
        response = persona.preferred_response(
            "should i take insulin with aspirin", "medical_drug", lexicons=lexicons
        )
        tokens = split_words(response)
        assert split_words(persona.opening)[0] in tokens
        assert split_words(persona.closing)[-1] in tokens
        # domain go-to vocabulary appears
        assert any(word in tokens for word in persona.domain_vocabulary["medical_drug"])

    def test_vocabulary_count_limits_coverage(self, persona, lexicons):
        full = persona.preferred_response("insulin question", "medical_drug", lexicons=lexicons)
        limited = persona.preferred_response(
            "insulin question", "medical_drug", lexicons=lexicons, vocabulary_count=2
        )
        assert len(split_words(limited)) < len(split_words(full))

    def test_unknown_domain_uses_fallback(self, persona):
        response = persona.preferred_response("some question", None)
        assert persona.opening in response

    def test_clarifying_and_filler_are_short(self, persona, lexicons):
        clarifying = persona.clarifying_response("what about insulin", lexicons=lexicons)
        filler = persona.filler_response("hello there")
        assert len(split_words(clarifying)) < 12
        assert len(split_words(filler)) <= 6
        assert persona.opening not in filler

    def test_generic_response_avoids_persona(self, persona):
        generic = generic_model_response("tell me about insulin dosing", rng=0)
        assert persona.opening not in generic


class TestCorpusConfig:
    def test_presets_exist_for_all_datasets(self):
        for name in DATASET_NAMES:
            preset = dataset_preset(name)
            assert preset["domain_names"]
            noise = stream_noise_preset(name)
            assert 0 <= noise["filler_rate"] <= 1

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            dataset_preset("imagenet")
        with pytest.raises(KeyError):
            stream_noise_preset("imagenet")

    def test_invalid_config_values(self):
        with pytest.raises(ValueError):
            SyntheticCorpusConfig(name="x", size=0, domain_names=("tech",))
        with pytest.raises(ValueError):
            SyntheticCorpusConfig(name="x", domain_names=())
        with pytest.raises(ValueError):
            SyntheticCorpusConfig(name="x", domain_names=("tech",), question_flavor="poetry")

    def test_unknown_domain_in_config(self, lexicons):
        config = SyntheticCorpusConfig(name="x", domain_names=("not_a_domain",))
        with pytest.raises(KeyError):
            SyntheticCorpusGenerator(config, lexicons=lexicons)


class TestCorpusGeneration:
    def test_size_and_determinism(self, lexicons):
        corpus_a = make_corpus("alpaca", size=40, seed=9, lexicons=lexicons)
        corpus_b = make_corpus("alpaca", size=40, seed=9, lexicons=lexicons)
        assert len(corpus_a) == 40
        assert [d.question for d in corpus_a] == [d.question for d in corpus_b]

    def test_all_items_substantive_with_gold(self, med_corpus):
        for dialogue in med_corpus:
            assert dialogue.metadata["quality"] == QUALITY_RICH
            assert dialogue.domain is not None
            assert dialogue.gold_response

    def test_domains_restricted_to_preset(self, med_corpus):
        allowed = set(dataset_preset("meddialog")["domain_names"])
        assert set(med_corpus.domains()) <= allowed

    def test_temporal_correlation_difference(self, lexicons):
        correlated = make_corpus("meddialog", size=80, seed=2, lexicons=lexicons)
        uncorrelated = make_corpus("alpaca", size=80, seed=2, lexicons=lexicons)
        assert temporal_correlation_index(correlated.dialogues()) > temporal_correlation_index(
            uncorrelated.dialogues()
        ) + 0.2

    def test_richness_levels_present(self, lexicons):
        corpus = make_corpus("meddialog", size=80, seed=3, lexicons=lexicons)
        levels = Counter(d.metadata["level"] for d in corpus)
        assert set(levels) >= {1, 2, 3}

    def test_strongly_correlated_constant(self):
        assert set(STRONGLY_CORRELATED) <= set(DATASET_NAMES)


class TestInteractionStream:
    def test_noise_injection_adds_items(self, med_generator, med_corpus):
        substantive = med_corpus.dialogues()[:20]
        stream = med_generator.make_interaction_stream(
            substantive, filler_rate=0.5, thin_rate=0.5, rng=0
        )
        assert len(stream) > len(substantive)
        qualities = Counter(d.metadata["quality"] for d in stream)
        assert qualities[QUALITY_FILLER] > 0
        assert qualities[QUALITY_THIN] > 0
        assert qualities[QUALITY_RICH] == 20

    def test_substantive_order_preserved(self, med_generator, med_corpus):
        substantive = med_corpus.dialogues()[:15]
        stream = med_generator.make_interaction_stream(substantive, 0.3, 0.3, rng=1)
        rich_only = [d for d in stream if d.metadata["quality"] == QUALITY_RICH]
        assert [d.question for d in rich_only] == [d.question for d in substantive]

    def test_zero_noise_is_identity(self, med_generator, med_corpus):
        substantive = med_corpus.dialogues()[:10]
        stream = med_generator.make_interaction_stream(substantive, 0.0, 0.0, rng=2)
        assert [d.question for d in stream] == [d.question for d in substantive]

    def test_filler_and_thin_builders(self, med_generator, rng):
        filler = med_generator.make_filler_dialogue(rng)
        assert filler.domain is None and filler.metadata["quality"] == QUALITY_FILLER
        thin = med_generator.make_thin_dialogue("medical_drug", rng)
        assert thin.domain == "medical_drug" and thin.metadata["quality"] == QUALITY_THIN
