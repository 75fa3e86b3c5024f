"""Word-level tokenizer with encode/decode to fixed-length id sequences."""

from __future__ import annotations

import re
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.tokenizer.vocab import Vocabulary

_TOKEN_PATTERN = re.compile(r"[a-z0-9']+|[.,!?;:]")


def split_words(text: str) -> List[str]:
    """Lower-case regex word splitting (letters/digits plus basic punctuation)."""
    return _TOKEN_PATTERN.findall(text.lower())


class WordTokenizer:
    """Encodes text into integer id sequences against a :class:`Vocabulary`."""

    def __init__(self, vocabulary: Vocabulary) -> None:
        self.vocabulary = vocabulary

    # -- construction ---------------------------------------------------- #
    @classmethod
    def from_texts(
        cls,
        texts: Iterable[str],
        max_vocab_size: Optional[int] = None,
        min_frequency: int = 1,
    ) -> "WordTokenizer":
        """Build the vocabulary from raw texts and return a tokenizer."""
        vocabulary = Vocabulary.build(
            (split_words(text) for text in texts),
            max_size=max_vocab_size,
            min_frequency=min_frequency,
        )
        return cls(vocabulary)

    # -- basic API --------------------------------------------------------- #
    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)

    def encode(
        self,
        text: str,
        add_bos: bool = True,
        add_eos: bool = True,
        max_length: Optional[int] = None,
    ) -> List[int]:
        """Encode ``text`` into a list of token ids."""
        ids = [self.vocabulary.token_to_id(token) for token in split_words(text)]
        if add_bos:
            ids = [self.vocabulary.bos_id] + ids
        if add_eos:
            ids = ids + [self.vocabulary.eos_id]
        if max_length is not None:
            ids = ids[:max_length]
        return ids

    def encode_pair(
        self,
        question: str,
        response: str,
        max_length: Optional[int] = None,
    ) -> List[int]:
        """Encode a dialogue set as ``<bos> question <sep> response <eos>``."""
        question_ids = [self.vocabulary.token_to_id(t) for t in split_words(question)]
        response_ids = [self.vocabulary.token_to_id(t) for t in split_words(response)]
        ids = (
            [self.vocabulary.bos_id]
            + question_ids
            + [self.vocabulary.sep_id]
            + response_ids
            + [self.vocabulary.eos_id]
        )
        if max_length is not None:
            ids = ids[:max_length]
        return ids

    def decode(self, ids: Sequence[int], skip_special: bool = True) -> str:
        """Convert ids back to a space-joined string."""
        tokens: List[str] = []
        special = set(self.vocabulary.special_ids())
        for token_id in ids:
            token_id = int(token_id)
            if skip_special and token_id in special:
                continue
            tokens.append(self.vocabulary.id_to_token(token_id))
        return " ".join(tokens)

    # -- batching ---------------------------------------------------------- #
    def pad_batch(
        self, sequences: Sequence[Sequence[int]], max_length: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pad variable-length id sequences into ``(ids, attention_mask)`` arrays.

        ``attention_mask`` is boolean with True marking real (non-pad) tokens.
        """
        if not sequences:
            raise ValueError("pad_batch received an empty list of sequences")
        lengths = [len(sequence) for sequence in sequences]
        target = max(lengths) if max_length is None else max_length
        target = max(target, 1)
        batch = np.full((len(sequences), target), self.vocabulary.pad_id, dtype=np.int64)
        mask = np.zeros((len(sequences), target), dtype=bool)
        for row, sequence in enumerate(sequences):
            clipped = list(sequence)[:target]
            batch[row, : len(clipped)] = clipped
            mask[row, : len(clipped)] = True
        return batch, mask

    def encode_batch(
        self,
        texts: Sequence[str],
        max_length: Optional[int] = None,
        add_bos: bool = True,
        add_eos: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Encode and pad a batch of texts."""
        encoded = [
            self.encode(text, add_bos=add_bos, add_eos=add_eos, max_length=max_length)
            for text in texts
        ]
        return self.pad_batch(encoded, max_length=None)

    def unknown_rate(self, text: str) -> float:
        """Fraction of word tokens in ``text`` that map to ``<unk>``."""
        tokens = split_words(text)
        if not tokens:
            return 0.0
        unknown = sum(
            1 for token in tokens if self.vocabulary.token_to_id(token) == self.vocabulary.unk_id
        )
        return unknown / len(tokens)
