"""The default numpy backend: fused kernels with handwritten VJPs.

Every primitive is one or two vectorized numpy calls plus in-place follow-ups
on freshly allocated arrays.  Forwards return ``(out, residuals)``; the
matching VJP in :data:`VJPS` turns an output gradient into input gradients
using only the saved residuals (never the autograd graph).  All returned
gradient arrays are freshly allocated and owned by the caller.

The same forward functions serve the autograd path (wrapped by
:mod:`repro.nn.functional`), the array-level inference paths and the taped
training step (:meth:`~repro.nn.transformer.TransformerLM.train_step`, which
replays the residuals through :data:`VJPS`): that keeps inference
bit-identical to the autograd forward, and the training step equal to it to
float rounding (it runs its GEMMs on packed row subsets).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715

PRIMITIVES: Dict[str, object] = {}
VJPS: Dict[str, object] = {}


def _primitive(fn):
    PRIMITIVES[fn.__name__] = fn
    return fn


def _vjp(primitive_name):
    def register(fn):
        VJPS[primitive_name] = fn
        return fn

    return register


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast axes so it has ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# --------------------------------------------------------------------------- #
# matmul
# --------------------------------------------------------------------------- #
@_primitive
def matmul(a: np.ndarray, b: np.ndarray):
    """Batched matrix product ``a @ b``."""
    return a @ b, (a, b)


@_vjp("matmul")
def matmul_vjp(res, grad, needs):
    a, b = res
    need_a, need_b = needs
    grad_a = grad_b = None
    if need_a:
        grad_a = _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
    if need_b:
        grad_b = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
    return grad_a, grad_b


# --------------------------------------------------------------------------- #
# linear: x @ W^T + b in one kernel
# --------------------------------------------------------------------------- #
@_primitive
def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """Affine map ``x @ W^T + b``; ``W`` is ``(out, in)``, ``x`` ``(..., in)``."""
    out = x @ weight.T
    out += bias
    return out, (x, weight)


@_vjp("linear")
def linear_vjp(res, grad, needs):
    x, weight = res
    need_x, need_w, need_b = needs
    grad_x = grad_w = grad_b = None
    if need_x:
        grad_x = grad @ weight
    if need_w or need_b:
        grad2 = grad.reshape(-1, grad.shape[-1])
        if need_w:
            grad_w = grad2.T @ x.reshape(-1, x.shape[-1])
        if need_b:
            grad_b = grad2.sum(axis=0)
    return grad_x, grad_w, grad_b


# --------------------------------------------------------------------------- #
# layer normalization
# --------------------------------------------------------------------------- #
@_primitive
def layernorm(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """LayerNorm over the last axis with affine parameters."""
    # np.add.reduce + divide is what ndarray.mean does internally, minus a
    # few microseconds of Python dispatch that dominate on decode-sized rows.
    dim = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= dim
    centered = x - mean
    var = np.add.reduce(np.square(centered), axis=-1, keepdims=True)
    var /= dim
    var += eps
    inv_std = 1.0 / np.sqrt(var)
    normalized = centered
    normalized *= inv_std
    out = normalized * weight
    out += bias
    return out, (normalized, inv_std, weight)


@_vjp("layernorm")
def layernorm_vjp(res, grad, needs):
    normalized, inv_std, weight = res
    need_x, need_w, need_b = needs
    grad_x = grad_w = grad_b = None
    dim = normalized.shape[-1]
    if need_w:
        grad_w = (grad * normalized).reshape(-1, dim).sum(axis=0)
    if need_b:
        grad_b = grad.reshape(-1, dim).sum(axis=0)
    if need_x:
        grad_norm = grad * weight
        # The forward's mean (ndarray.mean's sum-then-divide, minus dispatch).
        grad_mean = np.add.reduce(grad_norm, axis=-1, keepdims=True)
        grad_mean /= dim
        grad_dot = np.add.reduce(grad_norm * normalized, axis=-1, keepdims=True)
        grad_dot /= dim
        grad_x = grad_norm
        grad_x -= grad_mean
        grad_x -= normalized * grad_dot
        grad_x *= inv_std
    return grad_x, grad_w, grad_b


# --------------------------------------------------------------------------- #
# GELU (tanh approximation)
# --------------------------------------------------------------------------- #
@_primitive
def gelu(x: np.ndarray):
    """GELU with the tanh approximation used by GPT-style models."""
    inner = x * x
    inner *= x  # x^3 without the generic-pow loop
    inner *= _GELU_A
    inner += x
    inner *= _GELU_C
    t = np.tanh(inner, out=inner)  # in place: one activation-sized buffer fewer
    out = x * t
    out += x
    out *= 0.5  # 0.5 * (x + x*t) == 0.5 * x * (1 + t)
    return out, (x, t)


@_vjp("gelu")
def gelu_vjp(res, grad):
    x, t = res
    # d/dx [0.5 x (1+t)] = 0.5(1+t) + 0.5 x (1-t^2) C (1 + 3A x^2)
    local = x * x
    local *= 3.0 * _GELU_A
    local += 1.0
    local *= _GELU_C
    one_minus_t2 = t * t
    np.subtract(1.0, one_minus_t2, out=one_minus_t2)
    local *= one_minus_t2
    local *= x
    local += 1.0
    local += t
    local *= 0.5  # 0.5*(1 + t) + 0.5*x*dt
    local *= grad
    return local


# --------------------------------------------------------------------------- #
# scaled dot-product attention
# --------------------------------------------------------------------------- #
@_primitive
def scaled_dot_product_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    scale: float,
    mask: Optional[np.ndarray] = None,
):
    """Fused attention: softmax(mask(q k^T * scale)) @ v.

    ``q`` is ``(..., Tq, d)``, ``k``/``v`` ``(..., Tk, d)``; ``mask`` is a
    boolean array broadcastable to the score shape where True hides a
    position.
    """
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= scale
    if mask is not None:
        scores[mask] = -1e9
    shifted = scores
    shifted -= shifted.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    weights = shifted
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights @ v, (q, k, v, weights, mask, scale)


@_vjp("scaled_dot_product_attention")
def scaled_dot_product_attention_vjp(res, grad, needs):
    q, k, v, weights, mask, scale = res
    need_q, need_k, need_v = needs
    grad_q = grad_k = grad_v = None
    if need_v:
        grad_v = np.swapaxes(weights, -1, -2) @ grad
    if need_q or need_k:
        grad_weights = grad @ np.swapaxes(v, -1, -2)
        dot = (grad_weights * weights).sum(axis=-1, keepdims=True)
        grad_scores = grad_weights
        grad_scores -= dot
        grad_scores *= weights
        if mask is not None:
            grad_scores[mask] = 0.0
        grad_scores *= scale
        if need_q:
            grad_q = grad_scores @ k
        if need_k:
            grad_k = np.swapaxes(grad_scores, -1, -2) @ q
    return grad_q, grad_k, grad_v


# --------------------------------------------------------------------------- #
# cross-entropy
# --------------------------------------------------------------------------- #
@_primitive
def cross_entropy(logits: np.ndarray, targets: np.ndarray, ignore_index: Optional[int] = None):
    """Mean token-level cross-entropy; ``ignore_index`` positions are masked.

    ``logits`` is ``(..., vocab)``; ``targets`` the matching integer leading
    shape.  Raises :class:`ValueError` when no valid target remains.  The
    log-softmax runs only on the rows with a valid target; their picked
    log-probabilities are scattered into a zero-filled vector over every
    position before the sum, so the reduction order — and the loss's bits —
    are those of a mean over all rows with the ignored ones zeroed.
    """
    targets = np.asarray(targets, dtype=np.int64)
    vocab = logits.shape[-1]
    flat_targets = targets.reshape(-1)
    if ignore_index is not None:
        rows = np.flatnonzero(flat_targets != ignore_index)
    else:
        rows = np.arange(flat_targets.size)
    if rows.size == 0:
        raise ValueError("cross_entropy received no valid target positions")

    row_logits = logits.reshape(-1, vocab)[rows]
    log_probs = row_logits - row_logits.max(axis=-1, keepdims=True)
    log_probs -= np.log(np.exp(log_probs).sum(axis=-1, keepdims=True))

    row_targets = flat_targets[rows]
    picked = np.zeros(flat_targets.size, dtype=logits.dtype)
    picked[rows] = log_probs[np.arange(rows.size), row_targets]
    loss = np.asarray(-picked.sum() / rows.size, dtype=logits.dtype)
    return loss, (log_probs, rows, row_targets, logits.shape)


@_vjp("cross_entropy")
def cross_entropy_vjp(res, grad):
    log_probs, rows, row_targets, shape = res
    grad_rows = np.exp(log_probs)
    grad_rows[np.arange(rows.size), row_targets] -= 1.0
    grad_rows *= float(grad) / rows.size
    grad_logits = np.zeros(shape, dtype=log_probs.dtype)
    grad_logits.reshape(-1, shape[-1])[rows] = grad_rows
    return grad_logits


# --------------------------------------------------------------------------- #
# LoRA adapter matmul
# --------------------------------------------------------------------------- #
@_primitive
def lora_matmul(
    x: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    scaling: float,
    dropout_mask: Optional[np.ndarray] = None,
):
    """Fused adapter delta ``scaling * ((dropout(x)) @ A^T @ B^T)``.

    ``a`` is ``(rank, in)``, ``b`` ``(out, rank)``; ``dropout_mask`` is a
    pre-drawn inverted-dropout multiplier for ``x`` (or None).
    """
    if dropout_mask is not None:
        dropped = x * dropout_mask
    else:
        dropped = x
    mid = dropped @ a.T
    out = mid @ b.T
    out *= scaling
    return out, (dropped, mid, a, b, scaling, dropout_mask)


@_vjp("lora_matmul")
def lora_matmul_vjp(res, grad, needs):
    dropped, mid, a, b, scaling, dropout_mask = res
    need_x, need_a, need_b = needs
    grad_x = grad_a = grad_b = None
    grad_out = grad * scaling
    if need_b:
        grad_b = grad_out.reshape(-1, grad_out.shape[-1]).T @ mid.reshape(-1, mid.shape[-1])
    if need_x or need_a:
        grad_mid = grad_out @ b
        if need_a:
            grad_a = grad_mid.reshape(-1, grad_mid.shape[-1]).T @ dropped.reshape(
                -1, dropped.shape[-1]
            )
        if need_x:
            grad_x = grad_mid @ a
            if dropout_mask is not None:
                grad_x *= dropout_mask
    return grad_x, grad_a, grad_b


# --------------------------------------------------------------------------- #
# fused optimizer step (no VJP: mutates state in place)
# --------------------------------------------------------------------------- #
@_primitive
def adamw_step(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    scratch_a: np.ndarray,
    scratch_b: np.ndarray,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    bias1: float,
    bias2: float,
):
    """One Adam update (AdamW at weight decay 0), fully in place using two scratch buffers.

    Implements exactly the textbook sequence::

        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        p -= lr * m/bias1 / (sqrt(v/bias2) + eps)

    ``scratch_a``/``scratch_b`` must match ``param``'s shape and dtype; they
    hold the intermediate products so the steady-state step allocates nothing.
    """
    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=scratch_a)
    m += scratch_a
    v *= beta2
    np.multiply(grad, 1.0 - beta2, out=scratch_a)
    scratch_a *= grad
    v += scratch_a
    np.divide(m, bias1, out=scratch_a)  # m_hat
    np.divide(v, bias2, out=scratch_b)  # v_hat
    np.sqrt(scratch_b, out=scratch_b)
    scratch_b += eps
    scratch_a /= scratch_b  # m_hat / (sqrt(v_hat) + eps)
    scratch_a *= lr
    param -= scratch_a
    return param, None


# --------------------------------------------------------------------------- #
# inference kernels (decode rounds): no residuals, written into caller buffers
# --------------------------------------------------------------------------- #
def normalize_into(
    x: np.ndarray,
    mean: np.ndarray,
    eps: float,
    out: np.ndarray,
    centered: np.ndarray,
    squared: np.ndarray,
    stat: np.ndarray,
) -> np.ndarray:
    """LayerNorm without its affine, ``(x - mean) / sqrt(var + eps)``, into ``out``.

    ``x`` is ``(rows, dim)`` and ``mean`` a ``(dim, 1)`` column of
    ``1 / dim``, so both statistics are one GEMV each.  ``centered`` and
    ``squared`` are contiguous ``(rows, dim)`` buffers and ``stat`` a
    ``(rows, 1)`` one; ``out`` may be a column view of a wider buffer, which
    only the last call writes.  A decode round folds the LayerNorm's weight
    and bias into the projection that reads ``out``.  :func:`layernorm` at
    unit weight and zero bias, to float rounding, in 7 array calls instead
    of 12.
    """
    np.matmul(x, mean, out=stat)
    np.subtract(x, stat, out=centered)
    np.square(centered, out=squared)
    np.matmul(squared, mean, out=stat)
    stat += eps
    np.sqrt(stat, out=stat)
    return np.divide(centered, stat, out=out)


def gelu_into(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """:func:`gelu` of ``x`` into ``out`` (``x`` is left as it is), to float rounding.

    ``0.5 x (1 + tanh(x (C + A C x^2)))``, the tanh argument with its
    constants folded: 8 array calls and no allocation.  ``scratch`` is a
    contiguous buffer of ``x``'s shape; ``out`` may be a column view of a
    wider buffer, which only the last call writes.
    """
    np.multiply(x, x, out=scratch)
    scratch *= _GELU_A * _GELU_C
    scratch += _GELU_C
    scratch *= x
    np.tanh(scratch, out=scratch)
    scratch += 1.0
    scratch *= x
    return np.multiply(scratch, 0.5, out=out)


# --------------------------------------------------------------------------- #
# reductions
# --------------------------------------------------------------------------- #
def grad_norm_sq(grads) -> float:
    """Single-pass, copy-free sum of squared L2 norms (float64 accumulation).

    ``np.einsum`` with an explicit float64 ``dtype`` upcasts inside its
    buffered inner loop — no ``astype`` copy of the gradient is ever made.
    """
    total = 0.0
    for grad in grads:
        flat = np.ravel(grad)
        total += float(np.einsum("i,i->", flat, flat, dtype=np.float64))
    return total


# --------------------------------------------------------------------------- #
# workspace arena
# --------------------------------------------------------------------------- #
class Workspace:
    """Preallocated scratch buffers keyed by a caller-chosen tag.

    ``get(tag, shape, dtype)`` returns the cached buffer for ``tag`` when its
    shape/dtype still match, allocating (and remembering) a new one
    otherwise.  A decode round's KV cache keeps one, so the round's steps
    and re-primes reuse the buffers its first prime allocated.  Buffers
    contain stale data; callers must fully overwrite.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[object, np.ndarray] = {}

    def get(self, tag, shape: Tuple[int, ...], dtype=np.float32) -> np.ndarray:
        buffer = self._buffers.get(tag)
        if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[tag] = buffer
        return buffer

    def clear(self) -> None:
        self._buffers.clear()

    def nbytes(self) -> int:
        return int(sum(buffer.nbytes for buffer in self._buffers.values()))
