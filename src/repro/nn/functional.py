"""Functional building blocks on top of :class:`repro.nn.tensor.Tensor`.

Each function here is a thin autograd wrapper over one fused kernel of
:mod:`repro.nn.backend.numpy_backend`: the primitive computes the forward in
one or two vectorized calls and hands back residuals; a single backward
closure per kernel feeds those residuals to the kernel's handwritten VJP.
The numerics — log-sum-exp stability, ignore-index masking — are identical
between this autograd reference and the array-level paths, because both call
the *same* kernel forward function.  Only the wrappers the reference
forward uses are kept, plus the two mask helpers every path shares.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.backend import numpy_backend as K
from repro.nn.tensor import Tensor


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused affine map ``x @ weight.T + bias`` with one backward closure."""
    out, residuals = K.linear(x.data, weight.data, bias.data)
    vjp = K.VJPS["linear"]

    def backward(grad: np.ndarray) -> None:
        needs = (x.requires_grad, weight.requires_grad, bias.requires_grad)
        grad_x, grad_w, grad_b = vjp(residuals, grad, needs)
        if grad_x is not None:
            x._accumulate_owned(grad_x)
        if grad_w is not None:
            weight._accumulate_owned(grad_w)
        if grad_b is not None:
            bias._accumulate_owned(grad_b)

    return Tensor._make(out, (x, weight, bias), backward)


def layer_norm(
    x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5
) -> Tensor:
    """Layer normalization over the last dimension with affine parameters."""
    out, residuals = K.layernorm(x.data, weight.data, bias.data, eps)
    vjp = K.VJPS["layernorm"]

    def backward(grad: np.ndarray) -> None:
        needs = (x.requires_grad, weight.requires_grad, bias.requires_grad)
        grad_x, grad_w, grad_b = vjp(residuals, grad, needs)
        if grad_x is not None:
            x._accumulate_owned(grad_x)
        if grad_w is not None:
            weight._accumulate_owned(grad_w)
        if grad_b is not None:
            bias._accumulate_owned(grad_b)

    return Tensor._make(out, (x, weight, bias), backward)


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float,
    mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Fused attention kernel: ``softmax(mask(q k^T * scale)) @ v``.

    ``mask`` is a boolean array broadcastable to the score shape (True hides).
    """
    out, residuals = K.scaled_dot_product_attention(q.data, k.data, v.data, scale, mask)
    vjp = K.VJPS["scaled_dot_product_attention"]

    def backward(grad: np.ndarray) -> None:
        needs = (q.requires_grad, k.requires_grad, v.requires_grad)
        grad_q, grad_k, grad_v = vjp(residuals, grad, needs)
        if grad_q is not None:
            q._accumulate_owned(grad_q)
        if grad_k is not None:
            k._accumulate_owned(grad_k)
        if grad_v is not None:
            v._accumulate_owned(grad_v)

    return Tensor._make(out, (q, k, v), backward)


def lora_matmul(
    x: Tensor,
    a: Tensor,
    b: Tensor,
    scaling: float,
    dropout_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Fused LoRA adapter delta ``scaling * (dropout(x) @ A^T @ B^T)``."""
    out, residuals = K.lora_matmul(x.data, a.data, b.data, scaling, dropout_mask)
    vjp = K.VJPS["lora_matmul"]

    def backward(grad: np.ndarray) -> None:
        needs = (x.requires_grad, a.requires_grad, b.requires_grad)
        grad_x, grad_a, grad_b = vjp(residuals, grad, needs)
        if grad_x is not None:
            x._accumulate_owned(grad_x)
        if grad_a is not None:
            a._accumulate_owned(grad_a)
        if grad_b is not None:
            b._accumulate_owned(grad_b)

    return Tensor._make(out, (x, a, b), backward)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: Optional[int] = None,
) -> Tensor:
    """Mean token-level cross-entropy between ``logits`` and integer targets.

    ``logits`` has shape ``(..., vocab)`` and ``targets`` the matching leading
    shape.  Positions equal to ``ignore_index`` contribute neither to the loss
    nor to the gradient (used to mask padding tokens).
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != logits.data.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits {logits.data.shape[:-1]}"
        )
    loss, residuals = K.cross_entropy(logits.data, targets, ignore_index)
    vjp = K.VJPS["cross_entropy"]

    def backward(grad: np.ndarray) -> None:
        logits._accumulate_owned(vjp(residuals, grad))

    return Tensor._make(loss, (logits,), backward)


def draw_dropout_mask(
    shape, rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Pre-drawn inverted-dropout multiplier for a LoRA adapter's input.

    Each entry is 0 with probability ``rate``, else ``1 / (1 - rate)``;
    ``lora_matmul`` folds the multiply into its kernel.
    """
    keep_prob = 1.0 - rate
    return (rng.random(shape) < keep_prob).astype(np.float32) / keep_prob


def attention_scores_mask(seq_len: int, past_len: int = 0) -> np.ndarray:
    """Boolean causal mask (True = positions to hide).

    Without ``past_len`` this is the usual square upper-triangular mask.  With
    ``past_len`` (KV-cached incremental decoding) the mask is rectangular,
    shape ``(seq_len, past_len + seq_len)``: query row ``i`` sits at global
    position ``past_len + i`` and may attend to every key at or before it.
    """
    total = past_len + seq_len
    return np.arange(total) > np.arange(past_len, total)[:, None]
