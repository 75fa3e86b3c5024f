"""Entropy measures over embeddings.

The Entropy-of-Embedding (EOE) metric in the paper (Eq. 1) treats the token
embedding sequence as a distribution, computes Shannon entropy over it, and
normalizes by ``log(n)`` where ``n`` is the number of tokens, so sequences of
different lengths are comparable.
"""

from __future__ import annotations

import numpy as np


def shannon_entropy(probabilities: np.ndarray, eps: float = 1e-12) -> float:
    """Shannon entropy (nats are not used; natural log cancels in normalization)."""
    probabilities = np.asarray(probabilities, dtype=np.float64).ravel()
    if probabilities.size == 0:
        return 0.0
    if np.any(probabilities < -eps):
        raise ValueError("probabilities must be non-negative")
    total = probabilities.sum()
    if total <= eps:
        return 0.0
    probabilities = probabilities / total
    nonzero = probabilities[probabilities > eps]
    return float(-(nonzero * np.log(nonzero)).sum())


def embedding_to_distribution(embedding: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Turn an embedding matrix/vector into a probability distribution.

    Each token's contribution is the softmax-free normalized magnitude of its
    embedding: ``p(e_i) = |e_i| / Σ_j |e_j|`` where ``|e_i|`` is the L2 norm of
    the i-th token embedding (for a 2-D ``(tokens, dim)`` input) or the
    absolute value (for a 1-D input).  This keeps the computation cheap and
    annotation-free, as required for on-device use.
    """
    embedding = np.asarray(embedding, dtype=np.float64)
    if embedding.ndim == 1:
        magnitudes = np.abs(embedding)
    elif embedding.ndim == 2:
        magnitudes = np.linalg.norm(embedding, axis=1)
    else:
        raise ValueError(f"embedding must be 1-D or 2-D, got shape {embedding.shape}")
    total = magnitudes.sum()
    if total <= eps:
        return np.full(magnitudes.shape, 1.0 / max(magnitudes.size, 1))
    return magnitudes / total


def entropy_of_embedding(embedding: np.ndarray, num_tokens: int) -> float:
    """Normalized entropy of an embedding (Eq. 1): ``H(p) / log(n)``.

    Returns a value in ``[0, 1]`` when ``num_tokens >= 2``; degenerate inputs
    (fewer than two tokens) return 0 because a single token carries no
    distributional information to normalize.
    """
    if num_tokens < 2:
        return 0.0
    distribution = embedding_to_distribution(embedding)
    raw = shannon_entropy(distribution)
    return float(raw / np.log(num_tokens))
