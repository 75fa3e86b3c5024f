"""Tests for domain lexicons and the lexicon collection."""

import pytest

from repro.data.lexicons import (
    DomainLexicon,
    LexiconCollection,
    builtin_domain_names,
    builtin_lexicons,
)


class TestDomainLexicon:
    def test_from_words_lowercases_and_dedups(self):
        lexicon = DomainLexicon.from_words("demo", ["Dose", "dose", "VIAL"])
        assert len(lexicon) == 2
        assert "dose" in lexicon and "Vial" in lexicon


class TestLexiconCollection:
    def test_builtin_contains_paper_domains(self):
        collection = builtin_lexicons()
        for name in ("medical_admin", "medical_anatomy", "medical_drug", "emotion_fear",
                     "emotion_surprise", "emotion_trust", "glove_tw26", "glove_cc41",
                     "glove_tw75"):
            assert name in collection
        assert len(collection) == len(builtin_domain_names())

    def test_empty_collection_raises(self):
        with pytest.raises(ValueError):
            LexiconCollection([])

    def test_duplicate_names_raise(self):
        lexicon = DomainLexicon.from_words("demo", ["a"])
        with pytest.raises(ValueError):
            LexiconCollection([lexicon, lexicon])

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            builtin_lexicons().get("nonexistent")

    def test_subset_preserves_order(self):
        collection = builtin_lexicons()
        subset = collection.subset(["emotion_joy", "tech"])
        assert subset.names == ["emotion_joy", "tech"]

    def test_dominant_domain(self):
        collection = builtin_lexicons().subset(["medical_drug", "emotion_joy"])
        assert collection.dominant_domain("take your insulin and aspirin") == "medical_drug"
        assert collection.dominant_domain("nothing relevant here whatsoever") is None

    def test_overlap_counts_all_domains(self):
        collection = builtin_lexicons().subset(["medical_drug", "tech"])
        counts = collection.overlap_counts("insulin and a compiler")
        assert counts["medical_drug"] == 1
        assert counts["tech"] == 1

    def test_vocabulary_is_sorted_unique(self):
        vocabulary = builtin_lexicons().vocabulary()
        assert vocabulary == sorted(set(vocabulary))
        assert len(vocabulary) > 300
