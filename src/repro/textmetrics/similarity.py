"""Vector similarity measures used by the selection metrics."""

from __future__ import annotations

import numpy as np


def cosine_similarity(a: np.ndarray, b: np.ndarray, eps: float = 1e-12) -> float:
    """Cosine similarity between two 1-D vectors (Eq. 5 of the paper)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"vectors must have the same shape, got {a.shape} vs {b.shape}")
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom < eps:
        return 0.0
    return float(np.dot(a, b) / denom)


def cosine_dissimilarity(a: np.ndarray, b: np.ndarray) -> float:
    """``1 - cosine`` distance used by the In-Domain Dissimilarity metric."""
    return 1.0 - cosine_similarity(a, b)


def pairwise_cosine_similarity(matrix: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Dense pairwise cosine-similarity matrix for row vectors of ``matrix``."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    normalized = matrix / np.maximum(norms, eps)
    return normalized @ normalized.T
