"""Tests for DialogueSet / DialogueCorpus containers."""

import pytest

from repro.data.dialogue import DialogueCorpus, DialogueSet


@pytest.fixture()
def sample_corpus():
    dialogues = [
        DialogueSet(question=f"question {i} about topic", response=f"response {i}",
                    gold_response=f"gold {i}", domain="tech" if i % 2 == 0 else "finance")
        for i in range(10)
    ]
    return DialogueCorpus(dialogues, name="sample")


class TestDialogueSet:
    def test_text_concatenates(self):
        dialogue = DialogueSet(question="hello there", response="general kenobi")
        assert dialogue.text() == "hello there general kenobi"
        assert dialogue.num_tokens() == 4

    def test_annotated_replaces_response(self):
        dialogue = DialogueSet(question="q", response="model answer", gold_response="gold")
        annotated = dialogue.annotated("preferred answer")
        assert annotated.response == "preferred answer"
        assert annotated.gold_response == "preferred answer"
        assert dialogue.response == "model answer"  # original untouched

    def test_with_response_keeps_gold(self):
        dialogue = DialogueSet(question="q", response="a", gold_response="g")
        updated = dialogue.with_response("b")
        assert updated.response == "b" and updated.gold_response == "g"

    def test_dict_roundtrip(self):
        dialogue = DialogueSet(
            question="q", response="a", gold_response="g", domain="tech",
            source="unit", synthetic=True, metadata={"k": 1},
        )
        restored = DialogueSet.from_dict(dialogue.to_dict())
        assert restored == dialogue


class TestDialogueCorpus:
    def test_len_iter_getitem(self, sample_corpus):
        assert len(sample_corpus) == 10
        assert isinstance(sample_corpus[0], DialogueSet)
        assert isinstance(sample_corpus[:3], DialogueCorpus)
        assert len(list(sample_corpus)) == 10

    def test_domains_and_histogram(self, sample_corpus):
        assert set(sample_corpus.domains()) == {"tech", "finance"}
        histogram = sample_corpus.domain_histogram()
        assert histogram["tech"] == 5 and histogram["finance"] == 5

    def test_split_fractions(self, sample_corpus):
        first, second = sample_corpus.split(0.3, rng=0)
        assert len(first) == 3 and len(second) == 7
        texts = {d.question for d in first} | {d.question for d in second}
        assert len(texts) == 10  # nothing lost or duplicated

    def test_split_invalid_fraction(self, sample_corpus):
        with pytest.raises(ValueError):
            sample_corpus.split(1.5)

    def test_split_deterministic(self, sample_corpus):
        first_a, _ = sample_corpus.split(0.4, rng=7)
        first_b, _ = sample_corpus.split(0.4, rng=7)
        assert [d.question for d in first_a] == [d.question for d in first_b]

    def test_all_text_includes_gold(self, sample_corpus):
        texts = sample_corpus.all_text()
        assert any(text.startswith("gold") for text in texts)

    def test_extend(self, sample_corpus):
        sample_corpus.extend([DialogueSet(question="new", response="new")])
        assert len(sample_corpus) == 11
