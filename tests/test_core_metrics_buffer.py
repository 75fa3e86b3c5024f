"""Tests for the EOE / DSS / IDD quality metrics and the bin buffer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffer import BufferEntry, DataBuffer, buffer_size_kb
from repro.core.metrics import (
    QualityScorer,
    QualityScores,
    domain_specific_score,
    dominant_domain,
    entropy_of_embedding_score,
    in_domain_dissimilarity,
)
from repro.data.dialogue import DialogueSet
from repro.data.lexicons import builtin_lexicons


@pytest.fixture(scope="module")
def med_lexicons():
    return builtin_lexicons().subset(
        ["medical_admin", "medical_anatomy", "medical_drug", "medical_symptom"]
    )


class TestQualityScores:
    def test_dominates_strict(self):
        a = QualityScores(0.5, 0.5, 0.5)
        b = QualityScores(0.4, 0.4, 0.4)
        assert a.dominates(b)
        assert not b.dominates(a)
        assert not a.dominates(a)

    def test_partial_improvement_does_not_dominate(self):
        a = QualityScores(0.9, 0.1, 0.9)
        b = QualityScores(0.5, 0.5, 0.5)
        assert not a.dominates(b)

    def test_get_by_name(self):
        scores = QualityScores(0.1, 0.2, 0.3)
        assert scores.get("eoe") == 0.1
        assert scores.get("dss") == 0.2
        assert scores.get("idd") == 0.3
        with pytest.raises(KeyError):
            scores.get("bogus")


class TestEOE:
    def test_range_and_degenerate_cases(self, rng):
        embedding = rng.standard_normal((12, 8))
        value = entropy_of_embedding_score(embedding, "one two three four five six seven eight nine ten eleven twelve")
        assert 0.0 <= value <= 1.0 + 1e-9
        assert entropy_of_embedding_score(np.ones((1, 4)), "word") == 0.0

    def test_uniform_magnitudes_maximal(self):
        embedding = np.ones((5, 4))
        value = entropy_of_embedding_score(embedding, "a b c d e")
        assert value == pytest.approx(1.0, abs=1e-6)


class TestDSS:
    def test_counts_lexicon_density(self, med_lexicons):
        rich = domain_specific_score("the dose of insulin for the chest pain", med_lexicons)
        poor = domain_specific_score("hello there how are you today", med_lexicons)
        assert rich > poor == 0.0

    def test_empty_text(self, med_lexicons):
        assert domain_specific_score("", med_lexicons) == 0.0

    def test_exact_value(self):
        lexicons = builtin_lexicons().subset(["medical_drug"])
        # "insulin aspirin water" -> 2 lexicon tokens out of 3, one domain.
        value = domain_specific_score("insulin aspirin water", lexicons)
        assert value == pytest.approx(2 / 3)


class TestDominantDomainAndIDD:
    def test_dominant_domain(self, med_lexicons):
        assert dominant_domain("insulin aspirin statin chest", med_lexicons) == "medical_drug"
        assert dominant_domain("nothing relevant at all", med_lexicons) is None

    def test_idd_identical_vs_orthogonal(self):
        vector = np.array([1.0, 0.0])
        assert in_domain_dissimilarity(vector, [vector]) == pytest.approx(0.0)
        assert in_domain_dissimilarity(vector, [np.array([0.0, 1.0])]) == pytest.approx(1.0)

    def test_idd_empty_uses_fallback_then_one(self):
        vector = np.array([1.0, 0.0])
        assert in_domain_dissimilarity(vector, [], fallback_embeddings=[vector]) == pytest.approx(0.0)
        assert in_domain_dissimilarity(vector, [], fallback_embeddings=[]) == 1.0

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_idd_bounded(self, count):
        rng = np.random.default_rng(count)
        vector = rng.standard_normal(8)
        others = [rng.standard_normal(8) for _ in range(count)]
        value = in_domain_dissimilarity(vector, others)
        assert 0.0 <= value <= 2.0


class TestQualityScorer:
    def test_scores_computed_from_embedder(self, pretrained_llm, med_lexicons):
        scorer = QualityScorer(pretrained_llm, med_lexicons)
        scores = scorer.score("what is the right dose of insulin", [])
        assert isinstance(scores, QualityScores)
        assert scores.idd == 1.0  # empty buffer
        assert scores.dss > 0.0

    def test_precomputed_embeddings_used(self, pretrained_llm, med_lexicons):
        scorer = QualityScorer(pretrained_llm, med_lexicons)
        text = "dose of insulin"
        token_embeddings = pretrained_llm.token_embeddings(text)
        scores = scorer.score(text, [], token_embeddings=token_embeddings)
        assert 0.0 <= scores.eoe <= 1.0


class TestBufferSizeKb:
    def test_paper_bins_are_22kb(self):
        assert buffer_size_kb(1) == pytest.approx(22.0)
        assert buffer_size_kb(128) == pytest.approx(2816.0)


def _entry(text="some text", domain="medical_drug", embedding=None, scores=None, arrival=0):
    return BufferEntry(
        dialogue=DialogueSet(question=text, response="resp"),
        embedding=embedding if embedding is not None else np.ones(4),
        dominant_domain=domain,
        scores=scores,
        arrival_index=arrival,
    )


class TestDataBuffer:
    def test_add_until_full_then_raises(self):
        buffer = DataBuffer(2)
        buffer.add(_entry())
        buffer.add(_entry())
        assert buffer.is_full()
        with pytest.raises(RuntimeError):
            buffer.add(_entry())

    def test_replace_returns_evicted(self):
        buffer = DataBuffer(2)
        buffer.add(_entry(text="old"))
        buffer.add(_entry(text="other"))
        evicted = buffer.replace(0, _entry(text="new"))
        assert evicted.dialogue.question == "old"
        assert buffer.replacement_count == 1
        assert buffer.insertion_count == 3

    def test_replace_bad_index(self):
        buffer = DataBuffer(2)
        buffer.add(_entry())
        with pytest.raises(IndexError):
            buffer.replace(5, _entry())

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DataBuffer(0)

    def test_domain_queries(self):
        buffer = DataBuffer(4)
        buffer.add(_entry(domain="a", embedding=np.array([1.0, 0.0])))
        buffer.add(_entry(domain="b", embedding=np.array([0.0, 1.0])))
        buffer.add(_entry(domain="a", embedding=np.array([1.0, 1.0])))
        assert len(buffer.entries_in_domain("a")) == 2
        assert len(buffer.embeddings_in_domain("b")) == 1
        assert buffer.domain_histogram() == {"a": 2, "b": 1}

    def test_embeddings_matrix(self):
        buffer = DataBuffer(3)
        buffer.add(_entry(embedding=np.array([1.0, 2.0])))
        buffer.add(_entry(embedding=np.array([3.0, 4.0])))
        assert buffer.embeddings().shape == (2, 2)
        assert DataBuffer(2).embeddings().size == 0

    def test_occupancy_and_size(self):
        buffer = DataBuffer(4)
        buffer.add(_entry())
        assert buffer.occupancy() == 0.25
        assert buffer_size_kb(buffer.num_bins) == pytest.approx(4 * 22.0)

    def test_clear(self):
        buffer = DataBuffer(2)
        buffer.add(_entry())
        buffer.clear()
        assert buffer.is_empty()
