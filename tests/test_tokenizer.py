"""Tests for the vocabulary and word tokenizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# -- the per-token reference -------------------------------------------- #
# The per-token implementation that encode/encode_pair/decode replaced: one
# vocabulary method call per token.  The fast paths must produce the same
# ids, the same strings and the same errors.
def _reference_encode(tokenizer, text, add_bos=True, add_eos=True, max_length=None):
    vocab = tokenizer.vocabulary
    ids = [vocab.token_to_id(token) for token in split_words(text)]
    if add_bos:
        ids = [vocab.bos_id] + ids
    if add_eos:
        ids = ids + [vocab.eos_id]
    if max_length is not None:
        ids = ids[:max_length]
    return ids


def _reference_encode_pair(tokenizer, question, response, max_length=None):
    vocab = tokenizer.vocabulary
    ids = (
        [vocab.bos_id]
        + [vocab.token_to_id(t) for t in split_words(question)]
        + [vocab.sep_id]
        + [vocab.token_to_id(t) for t in split_words(response)]
        + [vocab.eos_id]
    )
    return ids if max_length is None else ids[:max_length]


def _reference_decode(tokenizer, ids, skip_special=True):
    tokens = []
    special = set(tokenizer.vocabulary.special_ids())
    for token_id in ids:
        token_id = int(token_id)
        if skip_special and token_id in special:
            continue
        tokens.append(tokenizer.vocabulary.id_to_token(token_id))
    return " ".join(tokens)


_WORDS = ["the", "cat", "sat", "on", "mat", "dog", "it's", "42", "zebra", "quantum", "<unk>"]
_TEXTS = st.lists(st.sampled_from(_WORDS + [".", "!", ",", "?"]), max_size=12).map(
    " ".join
) | st.text(alphabet="abcdxyz' .,!?0123456789<>", max_size=40)
_MAX_LENGTH = st.none() | st.integers(min_value=0, max_value=16)


class TestFastPathsMatchPerTokenReference:
    TOKENIZER = WordTokenizer.from_texts(["the cat sat on the mat", "a dog chased the cat 42"])

    @settings(max_examples=80, deadline=None)
    @given(_TEXTS, st.booleans(), st.booleans(), _MAX_LENGTH)
    def test_encode(self, text, add_bos, add_eos, max_length):
        tok = self.TOKENIZER
        expected = _reference_encode(tok, text, add_bos, add_eos, max_length)
        assert tok.encode(text, add_bos=add_bos, add_eos=add_eos, max_length=max_length) == expected

    @settings(max_examples=80, deadline=None)
    @given(_TEXTS, _TEXTS, _MAX_LENGTH)
    def test_encode_pair(self, question, response, max_length):
        tok = self.TOKENIZER
        expected = _reference_encode_pair(tok, question, response, max_length)
        assert tok.encode_pair(question, response, max_length=max_length) == expected

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.integers(min_value=-3, max_value=len(TOKENIZER.vocabulary) + 2), max_size=12),
        st.booleans(),
        st.sampled_from(["list", "tuple", "numpy", "numpy scalars"]),
    )
    def test_decode(self, ids, skip_special, form):
        tok = self.TOKENIZER
        given_ids = {
            "list": ids,
            "tuple": tuple(ids),
            "numpy": np.array(ids, dtype=np.int64),
            "numpy scalars": [np.int64(token_id) for token_id in ids],
        }[form]
        try:
            expected = _reference_decode(tok, ids, skip_special)
        except IndexError as error:
            with pytest.raises(IndexError) as raised:
                tok.decode(given_ids, skip_special=skip_special)
            assert str(raised.value) == str(error)
        else:
            assert tok.decode(given_ids, skip_special=skip_special) == expected

    def test_decode_special_ids_and_negative_ids(self):
        tok = self.TOKENIZER
        vocab = tok.vocabulary
        ids = vocab.special_ids() + [vocab.token_to_id("cat")]
        assert tok.decode(ids) == "cat"
        assert tok.decode(ids, skip_special=False) == " ".join([*SpecialTokens.ALL, "cat"])
        with pytest.raises(IndexError, match="token id -1 out of range"):
            tok.decode([vocab.bos_id, -1])
        with pytest.raises(IndexError, match=f"token id {len(vocab)} out of range"):
            tok.decode(np.array([len(vocab)]), skip_special=False)
