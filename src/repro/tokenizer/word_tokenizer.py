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
        ids = self._word_ids(text)
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
        ids = (
            [self.vocabulary.bos_id]
            + self._word_ids(question)
            + [self.vocabulary.sep_id]
            + self._word_ids(response)
            + [self.vocabulary.eos_id]
        )
        if max_length is not None:
            ids = ids[:max_length]
        return ids

    def _word_ids(self, text: str) -> List[int]:
        """Ids of the words of ``text``, ``<unk>`` for words not in the vocabulary."""
        lookup = self.vocabulary._token_to_id.get
        unk_id = self.vocabulary.unk_id
        return [lookup(token, unk_id) for token in split_words(text)]

    def decode(self, ids: Sequence[int], skip_special: bool = True) -> str:
        """Convert ids back to a space-joined string.

        Raises ``IndexError`` naming the first id outside the vocabulary.
        """
        if isinstance(ids, np.ndarray):
            ids = ids.tolist()
        # One range check per call; the joins then index the table directly.
        table = self.vocabulary._id_to_token
        if ids and not (0 <= min(ids) and max(ids) < len(table)):
            for token_id in ids:
                self.vocabulary.id_to_token(int(token_id))
        if skip_special:
            special = set(self.vocabulary.special_ids())
            return " ".join([table[token_id] for token_id in ids if token_id not in special])
        return " ".join([table[token_id] for token_id in ids])

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
