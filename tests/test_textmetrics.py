"""Tests for ROUGE, cosine similarity and entropy metrics (incl. property-based)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.textmetrics import (
    cosine_dissimilarity,
    cosine_similarity,
    embedding_to_distribution,
    entropy_of_embedding,
    pairwise_cosine_similarity,
    rouge_1,
    rouge_1_f1,
    rouge_n,
    shannon_entropy,
)

WORDS = st.lists(
    st.sampled_from("alpha beta gamma delta epsilon zeta eta theta".split()),
    min_size=1,
    max_size=12,
)


class TestRouge:
    def test_identical_texts_give_one(self):
        score = rouge_1("the cat sat", "the cat sat")
        assert score.f1 == pytest.approx(1.0)
        assert score.precision == pytest.approx(1.0)
        assert score.recall == pytest.approx(1.0)

    def test_disjoint_texts_give_zero(self):
        assert rouge_1_f1("cat dog", "apple banana") == 0.0

    def test_known_value(self):
        # candidate: "the cat", reference: "the cat sat" -> precision 1, recall 2/3
        score = rouge_1("the cat", "the cat sat")
        assert score.precision == pytest.approx(1.0)
        assert score.recall == pytest.approx(2 / 3)
        assert score.f1 == pytest.approx(0.8)

    def test_multiplicity_is_clipped(self):
        score = rouge_1("the the the", "the cat")
        assert score.precision == pytest.approx(1 / 3)

    def test_empty_candidate(self):
        assert rouge_1_f1("", "reference text") == 0.0

    def test_rouge_2_requires_bigram_overlap(self):
        assert rouge_n("the cat sat", "the cat sat", n=2).f1 == pytest.approx(1.0)
        assert rouge_n("cat the sat", "the cat sat", n=2).f1 < 1.0

    def test_rouge_n_invalid(self):
        with pytest.raises(ValueError):
            rouge_n("a", "b", n=0)

    @given(WORDS)
    @settings(max_examples=30, deadline=None)
    def test_rouge_symmetric_f1_bounds(self, words):
        text = " ".join(words)
        assert rouge_1_f1(text, text) == pytest.approx(1.0)

    @given(WORDS, WORDS)
    @settings(max_examples=30, deadline=None)
    def test_rouge_f1_in_unit_interval_and_symmetric(self, a, b):
        score_ab = rouge_1_f1(" ".join(a), " ".join(b))
        score_ba = rouge_1_f1(" ".join(b), " ".join(a))
        assert 0.0 <= score_ab <= 1.0
        assert score_ab == pytest.approx(score_ba)


class TestSimilarity:
    def test_cosine_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_cosine_zero_vector(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_cosine_shape_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(3), np.ones(4))

    def test_dissimilarity_complement(self):
        v = np.array([1.0, 1.0])
        assert cosine_dissimilarity(v, v) == pytest.approx(0.0)

    def test_pairwise_matrix(self, rng):
        matrix = rng.standard_normal((4, 8))
        sims = pairwise_cosine_similarity(matrix)
        assert sims.shape == (4, 4)
        np.testing.assert_allclose(np.diag(sims), np.ones(4), atol=1e-9)
        np.testing.assert_allclose(sims, sims.T, atol=1e-12)


class TestEntropy:
    def test_uniform_distribution_max_entropy(self):
        assert shannon_entropy(np.full(4, 0.25)) == pytest.approx(np.log(4))

    def test_point_mass_zero_entropy(self):
        assert shannon_entropy(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0)

    def test_negative_probability_raises(self):
        with pytest.raises(ValueError):
            shannon_entropy(np.array([-0.5, 1.5]))

    def test_embedding_to_distribution_sums_to_one(self, rng):
        distribution = embedding_to_distribution(rng.standard_normal((6, 4)))
        assert distribution.sum() == pytest.approx(1.0)

    def test_embedding_to_distribution_zero_input(self):
        distribution = embedding_to_distribution(np.zeros((3, 2)))
        np.testing.assert_allclose(distribution, np.full(3, 1 / 3))

    def test_entropy_of_embedding_bounds(self, rng):
        embedding = rng.standard_normal((10, 8))
        value = entropy_of_embedding(embedding, num_tokens=10)
        assert 0.0 <= value <= 1.0 + 1e-9

    def test_entropy_of_embedding_single_token(self):
        assert entropy_of_embedding(np.ones((1, 4)), num_tokens=1) == 0.0

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_shannon_entropy_non_negative_and_bounded(self, values):
        array = np.asarray(values)
        entropy = shannon_entropy(array / array.sum())
        assert -1e-9 <= entropy <= np.log(len(values)) + 1e-9
