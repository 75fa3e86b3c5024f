"""ROUGE metrics implemented from scratch.

ROUGE-1 F1 is both the paper's evaluation metric and the sanity-check
criterion used during data synthesis, so it is implemented here with
precision / recall / F1 decompositions on top of the general ROUGE-N.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.tokenizer.word_tokenizer import split_words


@dataclass(frozen=True)
class RougeScore:
    """Precision / recall / F1 triple for one ROUGE variant."""

    precision: float
    recall: float
    f1: float

    @staticmethod
    def from_counts(overlap: float, candidate_total: float, reference_total: float) -> "RougeScore":
        """Build a score from overlap and per-side totals."""
        precision = overlap / candidate_total if candidate_total > 0 else 0.0
        recall = overlap / reference_total if reference_total > 0 else 0.0
        if precision + recall == 0.0:
            f1 = 0.0
        else:
            f1 = 2.0 * precision * recall / (precision + recall)
        return RougeScore(precision=precision, recall=recall, f1=f1)


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    """Multiset of n-grams of ``tokens``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: str, reference: str, n: int = 1) -> RougeScore:
    """ROUGE-N between a candidate and a reference string."""
    candidate_tokens = split_words(candidate)
    reference_tokens = split_words(reference)
    candidate_ngrams = _ngrams(candidate_tokens, n)
    reference_ngrams = _ngrams(reference_tokens, n)
    overlap = sum((candidate_ngrams & reference_ngrams).values())
    return RougeScore.from_counts(
        overlap,
        sum(candidate_ngrams.values()),
        sum(reference_ngrams.values()),
    )


def rouge_1(candidate: str, reference: str) -> RougeScore:
    """Unigram ROUGE (the paper's evaluation metric)."""
    return rouge_n(candidate, reference, n=1)


def rouge_1_f1(candidate: str, reference: str) -> float:
    """Convenience: ROUGE-1 F1 as a plain float."""
    return rouge_1(candidate, reference).f1


class Rouge1Reference:
    """A reference string pre-tokenized for repeated ROUGE-1 comparisons.

    The reference side (tokenization + unigram ``Counter``) is built once, so
    scoring many candidates against the same reference — the data-synthesis
    sanity check, cached corpus scoring — only pays for the candidate side.
    Scores are identical to :func:`rouge_1_f1`.
    """

    __slots__ = ("text", "_counts", "_total")

    def __init__(self, reference: str) -> None:
        self.text = reference
        tokens = split_words(reference)
        self._counts = Counter(tokens)
        self._total = len(tokens)

    def score(self, candidate: str) -> RougeScore:
        """ROUGE-1 of ``candidate`` against the precomputed reference."""
        candidate_counts = Counter(split_words(candidate))
        overlap = sum((candidate_counts & self._counts).values())
        return RougeScore.from_counts(
            overlap, sum(candidate_counts.values()), self._total
        )

    def f1(self, candidate: str) -> float:
        """ROUGE-1 F1 against the precomputed reference."""
        return self.score(candidate).f1
