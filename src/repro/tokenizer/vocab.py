"""Vocabulary: bidirectional mapping between token strings and integer ids.

The vocabulary is word-level.  The paper embeds text with the deployed LLM's
own tokenizer/embedding; here the tokenizer is intentionally simple (regex
word splitting, see :mod:`repro.tokenizer.word_tokenizer`) so the whole stack
stays CPU-friendly while preserving the interfaces the framework needs.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence


class SpecialTokens:
    """Canonical special tokens used across the library."""

    PAD = "<pad>"
    BOS = "<bos>"
    EOS = "<eos>"
    UNK = "<unk>"
    SEP = "<sep>"  # separates question and response inside a dialogue set

    ALL = (PAD, BOS, EOS, UNK, SEP)


class Vocabulary:
    """An immutable-ish token <-> id mapping with special-token handling."""

    def __init__(self, tokens: Sequence[str]) -> None:
        seen: Dict[str, int] = {}
        for token in SpecialTokens.ALL:
            seen[token] = len(seen)
        for token in tokens:
            if token not in seen:
                seen[token] = len(seen)
        self._token_to_id: Dict[str, int] = seen
        self._id_to_token: List[str] = [None] * len(seen)  # type: ignore[list-item]
        for token, token_id in seen.items():
            self._id_to_token[token_id] = token

    # -- construction ---------------------------------------------------- #
    @classmethod
    def build(
        cls,
        token_sequences: Iterable[Sequence[str]],
        max_size: Optional[int] = None,
        min_frequency: int = 1,
    ) -> "Vocabulary":
        """Build a vocabulary from an iterable of token sequences.

        Tokens are ranked by frequency (ties broken alphabetically for
        determinism) and truncated to ``max_size`` non-special entries.
        """
        counter: Counter[str] = Counter()
        for sequence in token_sequences:
            counter.update(sequence)
        for special in SpecialTokens.ALL:
            counter.pop(special, None)
        ranked = sorted(counter.items(), key=lambda item: (-item[1], item[0]))
        kept = [token for token, count in ranked if count >= min_frequency]
        if max_size is not None:
            budget = max(max_size - len(SpecialTokens.ALL), 0)
            kept = kept[:budget]
        return cls(kept)

    # -- lookups ----------------------------------------------------------- #
    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def token_to_id(self, token: str) -> int:
        """Id of ``token``, falling back to the ``<unk>`` id."""
        return self._token_to_id.get(token, self._token_to_id[SpecialTokens.UNK])

    def id_to_token(self, token_id: int) -> str:
        """Token string for ``token_id`` (raises ``IndexError`` if out of range)."""
        if not 0 <= token_id < len(self._id_to_token):
            raise IndexError(f"token id {token_id} out of range [0, {len(self)})")
        return self._id_to_token[token_id]

    def tokens(self) -> List[str]:
        """All tokens in id order."""
        return list(self._id_to_token)

    # -- special token ids -------------------------------------------------- #
    @property
    def pad_id(self) -> int:
        return self._token_to_id[SpecialTokens.PAD]

    @property
    def bos_id(self) -> int:
        return self._token_to_id[SpecialTokens.BOS]

    @property
    def eos_id(self) -> int:
        return self._token_to_id[SpecialTokens.EOS]

    @property
    def unk_id(self) -> int:
        return self._token_to_id[SpecialTokens.UNK]

    @property
    def sep_id(self) -> int:
        return self._token_to_id[SpecialTokens.SEP]

    def special_ids(self) -> List[int]:
        """Ids of all special tokens."""
        return [self._token_to_id[token] for token in SpecialTokens.ALL]
