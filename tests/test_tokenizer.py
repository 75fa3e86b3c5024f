"""Tests for the vocabulary and word tokenizer."""

import pytest

from repro.tokenizer import SpecialTokens, Vocabulary, WordTokenizer, split_words


class TestSplitWords:
    def test_lowercases_and_splits(self):
        assert split_words("Hello World!") == ["hello", "world", "!"]

    def test_keeps_numbers_and_apostrophes(self):
        assert split_words("it's 42") == ["it's", "42"]

    def test_empty_text(self):
        assert split_words("") == []


class TestVocabulary:
    def test_special_tokens_first(self):
        vocab = Vocabulary(["apple", "banana"])
        assert vocab.id_to_token(vocab.pad_id) == SpecialTokens.PAD
        assert len(vocab) == len(SpecialTokens.ALL) + 2

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary(["apple"])
        assert vocab.token_to_id("zzz") == vocab.unk_id

    def test_build_respects_frequency_and_max_size(self):
        sequences = [["a", "a", "b"], ["a", "c"]]
        vocab = Vocabulary.build(sequences, max_size=len(SpecialTokens.ALL) + 2)
        assert "a" in vocab and "b" in vocab
        assert "c" not in vocab

    def test_build_min_frequency(self):
        vocab = Vocabulary.build([["x", "y", "y"]], min_frequency=2)
        assert "y" in vocab and "x" not in vocab

    def test_deterministic_ordering(self):
        vocab_a = Vocabulary.build([["b", "a", "a", "b"]])
        vocab_b = Vocabulary.build([["a", "b", "b", "a"]])
        assert vocab_a.tokens() == vocab_b.tokens()

    def test_id_out_of_range_raises(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(IndexError):
            vocab.id_to_token(999)


class TestWordTokenizer:
    @pytest.fixture()
    def tokenizer(self):
        texts = ["the cat sat on the mat", "a dog chased the cat", "hello there friend"]
        return WordTokenizer.from_texts(texts)

    def test_encode_decode_roundtrip(self, tokenizer):
        text = "the cat chased the dog"
        decoded = tokenizer.decode(tokenizer.encode(text))
        assert decoded == text

    def test_encode_adds_bos_eos(self, tokenizer):
        ids = tokenizer.encode("cat", add_bos=True, add_eos=True)
        assert ids[0] == tokenizer.vocabulary.bos_id
        assert ids[-1] == tokenizer.vocabulary.eos_id

    def test_encode_max_length_truncates(self, tokenizer):
        ids = tokenizer.encode("the cat sat on the mat", max_length=3)
        assert len(ids) == 3

    def test_encode_pair_contains_sep(self, tokenizer):
        ids = tokenizer.encode_pair("the cat", "sat on the mat")
        assert tokenizer.vocabulary.sep_id in ids
        assert ids[0] == tokenizer.vocabulary.bos_id
        assert ids[-1] == tokenizer.vocabulary.eos_id

    def test_unknown_words_round_trip_to_unk(self, tokenizer):
        ids = tokenizer.encode("quantum entanglement", add_bos=False, add_eos=False)
        assert all(token_id == tokenizer.vocabulary.unk_id for token_id in ids)

    def test_pad_batch_shapes_and_mask(self, tokenizer):
        sequences = [[1, 2, 3], [4, 5]]
        batch, mask = tokenizer.pad_batch(sequences)
        assert batch.shape == (2, 3)
        assert mask.dtype == bool
        assert batch[1, 2] == tokenizer.vocabulary.pad_id
        assert not mask[1, 2] and mask[0, 2]

    def test_pad_batch_empty_raises(self, tokenizer):
        with pytest.raises(ValueError):
            tokenizer.pad_batch([])

    def test_max_vocab_size_respected(self):
        tokenizer = WordTokenizer.from_texts(
            ["one two three four five six seven eight"], max_vocab_size=8
        )
        assert tokenizer.vocab_size == 8
