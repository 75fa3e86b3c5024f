"""Text metrics: ROUGE-1, cosine similarity and embedding entropy.

These are the measures the framework computes: ROUGE-1 F1 for evaluation and
the synthesis sanity check, and the cosine and entropy terms of the
selection metrics (Eqs. 1 and 5).
"""

from repro.textmetrics.entropy import (
    embedding_to_distribution,
    entropy_of_embedding,
    shannon_entropy,
)
from repro.textmetrics.rouge import (
    Rouge1Reference,
    RougeScore,
    rouge_1,
    rouge_1_f1,
    rouge_n,
)
from repro.textmetrics.similarity import (
    cosine_dissimilarity,
    cosine_similarity,
    pairwise_cosine_similarity,
)

__all__ = [
    "Rouge1Reference",
    "RougeScore",
    "cosine_dissimilarity",
    "cosine_similarity",
    "embedding_to_distribution",
    "entropy_of_embedding",
    "pairwise_cosine_similarity",
    "rouge_1",
    "rouge_1_f1",
    "rouge_n",
    "shannon_entropy",
]
