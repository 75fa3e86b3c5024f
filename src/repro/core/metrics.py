"""The three self-supervised data-quality metrics (Section 3.2 of the paper).

* **EOE** — Entropy of Embedding (Eq. 1): normalized Shannon entropy of the
  token-embedding distribution of the dialogue text; higher means more
  information to learn from.
* **DSS** — Domain Specific Score (Eq. 2): mean per-domain token-overlap ratio
  against the pre-stored lexicon collection; higher means the text is more
  related to the domains of interest.
* **IDD** — In-Domain Dissimilarity (Eq. 4/5): mean ``1 - cosine`` distance to
  the buffered dialogue sets sharing the same dominant domain (Eq. 3); higher
  means the text brings more new information to its dominant domain.

None of the three uses any annotation — they are computed from the raw
dialogue text, the model's own embeddings and the lexicon dictionary, which is
what makes the selection self-supervised.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.data.lexicons import LexiconCollection
from repro.textmetrics.entropy import entropy_of_embedding
from repro.textmetrics.similarity import cosine_dissimilarity
from repro.tokenizer.word_tokenizer import split_words


class EmbeddingFunction(Protocol):
    """The embedding interface the metrics need (implemented by OnDeviceLLM)."""

    def token_embeddings(self, text: str) -> np.ndarray:  # pragma: no cover - protocol
        ...

    def embed_text(self, text: str) -> np.ndarray:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class QualityScores:
    """The (EOE, DSS, IDD) triple for one dialogue set."""

    eoe: float
    dss: float
    idd: float

    def dominates(self, other: "QualityScores") -> bool:
        """True when *all three* metrics are strictly higher than ``other``'s.

        This is the replacement criterion of the paper's policy: a new
        dialogue set may only replace a buffered one it dominates.
        """
        return self.eoe > other.eoe and self.dss > other.dss and self.idd > other.idd

    def get(self, name: str) -> float:
        """Access one metric by name ('eoe', 'dss' or 'idd')."""
        if name not in ("eoe", "dss", "idd"):
            raise KeyError(f"unknown metric {name!r}")
        return getattr(self, name)


def entropy_of_embedding_score(embedding: np.ndarray, text: str) -> float:
    """EOE (Eq. 1) for a token-embedding matrix and its source text.

    The paper normalizes by ``log(n)`` with ``n`` the number of tokens of the
    dialogue set; the embedding function may add special tokens (e.g. BOS), so
    the normalizer uses the actual number of embedded rows, which keeps the
    score in ``[0, 1]``.
    """
    embedding = np.asarray(embedding)
    if embedding.ndim == 2:
        num_tokens = int(embedding.shape[0])
    else:
        num_tokens = len(split_words(text))
    return entropy_of_embedding(embedding, num_tokens)


def domain_specific_score_from_counts(counts: Dict[str, int], num_tokens: int) -> float:
    """DSS (Eq. 2) from precomputed overlap counts and token count."""
    if num_tokens == 0:
        return 0.0
    ratios = [count / num_tokens for count in counts.values()]
    return float(np.mean(ratios))


def domain_specific_score(text: str, lexicons: LexiconCollection) -> float:
    """DSS (Eq. 2): mean over domains of ``|T ∩ l_i| / n``."""
    tokens = split_words(text)
    return domain_specific_score_from_counts(
        lexicons.overlap_counts_from_tokens(tokens), len(tokens)
    )


def dominant_domain(text: str, lexicons: LexiconCollection) -> Optional[str]:
    """The dominant domain of ``text`` (Eq. 3); ``None`` if nothing overlaps."""
    return lexicons.dominant_domain(text)


def in_domain_dissimilarity(
    embedding: np.ndarray,
    same_domain_embeddings: Sequence[np.ndarray],
    fallback_embeddings: Sequence[np.ndarray] = (),
) -> float:
    """IDD (Eq. 4): mean ``1 - cosine`` distance to same-dominant-domain entries.

    The paper leaves the empty case (no buffered entry shares the dominant
    domain) undefined.  We generalize in the metric's spirit: fall back to the
    dissimilarity against *all* buffered entries (``fallback_embeddings``) —
    "how much new information does this set bring relative to what is already
    stored" — and only when the buffer is completely empty return the maximal
    value 1.0.  Compared to a constant 1.0 for the empty-domain case this
    keeps stored scores comparable (and beatable), avoiding entries that could
    never be replaced under the strict-dominance rule.
    """
    vector = np.asarray(embedding, dtype=np.float64).ravel()
    reference = list(same_domain_embeddings) if same_domain_embeddings else list(fallback_embeddings)
    if not reference:
        return 1.0
    distances = [
        cosine_dissimilarity(vector, np.asarray(other, dtype=np.float64).ravel())
        for other in reference
    ]
    return float(np.mean(distances))


class QualityScorer:
    """Computes the full (EOE, DSS, IDD) triple for incoming dialogue sets.

    Two memoization layers keep the streaming profiling loop off the slow
    paths:

    * a *lexicon profile* cache — per text, the token count, per-domain
      overlap counts and the dominant domain.  A single selection offer needs
      the profile several times (dominant domain for the IDD reference set,
      DSS inside :meth:`score`), and each naive call re-splits the text once
      per lexicon; with the cache the text is tokenized once, ever.
    * an *embedding* cache — per text, the single-vector embedding used for
      IDD / K-Center comparisons.  This cache depends on the model weights,
      so it must be invalidated whenever the model is fine-tuned
      (:meth:`invalidate_embeddings`; the framework does this after every
      fine-tuning round).

    Both caches are bounded LRU maps so an unbounded stream cannot grow them
    without limit.
    """

    def __init__(
        self,
        embedder: EmbeddingFunction,
        lexicons: LexiconCollection,
        cache_size: int = 4096,
    ) -> None:
        self.embedder = embedder
        self.lexicons = lexicons
        self._cache_size = max(int(cache_size), 1)
        self._profile_cache: "OrderedDict[str, Tuple[int, Dict[str, int], Optional[str]]]" = (
            OrderedDict()
        )
        self._embedding_cache: "OrderedDict[str, np.ndarray]" = OrderedDict()

    # -- caches --------------------------------------------------------------- #
    @staticmethod
    def _cache_get(cache: OrderedDict, key: str):
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
        return value

    def _cache_put(self, cache: OrderedDict, key: str, value) -> None:
        cache[key] = value
        if len(cache) > self._cache_size:
            cache.popitem(last=False)

    def lexicon_profile(self, text: str) -> Tuple[int, Dict[str, int], Optional[str]]:
        """``(num_tokens, overlap_counts, dominant_domain)`` for ``text``."""
        cached = self._cache_get(self._profile_cache, text)
        if cached is not None:
            return cached
        tokens = split_words(text)
        counts = self.lexicons.overlap_counts_from_tokens(tokens)
        dominant = self.lexicons.dominant_from_counts(counts)
        profile = (len(tokens), counts, dominant)
        self._cache_put(self._profile_cache, text, profile)
        return profile

    def invalidate_embeddings(self) -> None:
        """Drop cached embeddings (call whenever the model weights change)."""
        self._embedding_cache.clear()

    # -- metric access -------------------------------------------------------- #
    def embed(self, text: str) -> np.ndarray:
        """Single-vector embedding used for IDD / K-Center comparisons."""
        cached = self._cache_get(self._embedding_cache, text)
        if cached is not None:
            return cached
        embedding = np.asarray(self.embedder.embed_text(text), dtype=np.float64)
        self._cache_put(self._embedding_cache, text, embedding)
        return embedding

    def dominant_domain(self, text: str) -> Optional[str]:
        """Dominant domain of ``text`` under the scorer's lexicons."""
        return self.lexicon_profile(text)[2]

    def score(
        self,
        text: str,
        same_domain_embeddings: Sequence[np.ndarray],
        token_embeddings: Optional[np.ndarray] = None,
        text_embedding: Optional[np.ndarray] = None,
        fallback_embeddings: Sequence[np.ndarray] = (),
    ) -> QualityScores:
        """Score ``text`` against the buffer's same-dominant-domain embeddings.

        ``token_embeddings`` / ``text_embedding`` may be passed in when the
        caller has already computed them (the framework embeds each incoming
        dialogue exactly once and reuses the result here).
        ``fallback_embeddings`` (typically all buffered embeddings) is used by
        the IDD metric when no buffered entry shares the dominant domain.
        """
        if token_embeddings is None:
            token_embeddings = self.embedder.token_embeddings(text)
        if text_embedding is None:
            text_embedding = np.asarray(token_embeddings, dtype=np.float64).mean(axis=0)
        eoe = entropy_of_embedding_score(token_embeddings, text)
        num_tokens, counts, _ = self.lexicon_profile(text)
        dss = domain_specific_score_from_counts(counts, num_tokens)
        idd = in_domain_dissimilarity(
            text_embedding, same_domain_embeddings, fallback_embeddings=fallback_embeddings
        )
        return QualityScores(eoe=eoe, dss=dss, idd=idd)
