"""Causal multi-head self-attention.

The projection layers are named ``q_proj``, ``k_proj``, ``v_proj`` and
``o_proj`` to mirror the layer names the paper targets with LoRA ("the
trainable layers are the QKV layers (q_proj, k_proj, v_proj) and attention
output layer (o_proj)"), so the LoRA injection utilities can address them by
the same names.

For autoregressive decoding the layer supports an optional
:class:`LayerKVCache`: keys/values of previously processed positions live in
preallocated capacity buffers, so each incremental step only projects the
newly fed tokens, writes them into the buffer (no per-token concatenation),
and attends against the cached context (O(T) work per token instead of
O(T²)).  Because attention is causal, the cached keys/values are exactly what
a full forward over the whole window would compute, so incremental decoding
is numerically equivalent to the full-context forward.

Both the autograd reference path and the array-level path run the same fused
``scaled_dot_product_attention`` backend kernel, which keeps their outputs
bit-identical.  Only the array-level path takes a cache.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.backend import active as _active
from repro.nn.layers import Dropout, Linear, Module
from repro.nn.tensor import Tensor
from repro.utils.rng import as_generator


class LayerKVCache:
    """Cached key/value buffers of one attention layer.

    Keys and values live in ``(batch, heads, capacity, head_dim)`` buffers;
    :meth:`extend` and :meth:`append_token` return views of the cached
    prefix.  The cache holds plain numpy data (no autograd graph): only the
    array-level paths (:meth:`~repro.nn.transformer.TransformerLM.infer`, the
    prefill and the decode steps) take one.

    ``capacity`` pre-sizes the buffers (e.g. to the model's ``max_seq_len``)
    so steady-state decoding never reallocates; without it the buffers grow
    geometrically.
    """

    __slots__ = ("_keys", "_values", "_length", "_capacity_hint")

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._keys: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None
        self._length = 0
        self._capacity_hint = int(capacity) if capacity else 0

    @property
    def length(self) -> int:
        """Number of cached positions (0 when empty)."""
        return self._length

    def reset(self) -> None:
        """Drop all cached positions (capacity buffers are kept for reuse)."""
        self._length = 0

    def extend(self, keys: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Append new positions and return views of the full (cached + new) arrays."""
        batch, heads, new, head_dim = keys.shape
        needed = self._length + new
        buffer = self._keys
        compatible = (
            buffer is not None
            and buffer.shape[0] == batch
            and buffer.shape[1] == heads
            and buffer.shape[3] == head_dim
        )
        if not compatible and self._length > 0:
            raise ValueError(
                f"cache holds (batch={self._keys.shape[0]}, heads={self._keys.shape[1]}, "
                f"head_dim={self._keys.shape[3]}) but got (batch={batch}, heads={heads}, "
                f"head_dim={head_dim}); reset() before reusing with a new shape"
            )
        if not compatible or buffer.shape[2] < needed:
            capacity = max(needed, self._capacity_hint)
            if compatible:
                capacity = max(capacity, 2 * buffer.shape[2])
            new_keys = np.empty((batch, heads, capacity, head_dim), dtype=keys.dtype)
            new_values = np.empty((batch, heads, capacity, head_dim), dtype=values.dtype)
            if compatible and self._length > 0:
                new_keys[:, :, : self._length] = self._keys[:, :, : self._length]
                new_values[:, :, : self._length] = self._values[:, :, : self._length]
            self._keys = new_keys
            self._values = new_values
        self._keys[:, :, self._length : needed] = keys
        self._values[:, :, self._length : needed] = values
        self._length = needed
        return self._keys[:, :, :needed], self._values[:, :, :needed]

    def append_token(
        self, key_rows: np.ndarray, value_rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fast single-position append; returns views of the full arrays.

        ``key_rows``/``value_rows`` have shape ``(batch, heads, head_dim)``
        and are written straight into the capacity buffers.  Falls back to
        :meth:`extend` when the buffers are missing, full, or sized for
        another batch.
        """
        index = self._length
        buffer = self._keys
        if buffer is None or buffer.shape[0] != key_rows.shape[0] or buffer.shape[2] <= index:
            return self.extend(key_rows[:, :, None, :], value_rows[:, :, None, :])
        buffer[:, :, index] = key_rows
        self._values[:, :, index] = value_rows
        self._length = index + 1
        return buffer[:, :, : self._length], self._values[:, :, : self._length]


def combined_mask(
    batch: int,
    num_heads: int,
    seq: int,
    past: int,
    attention_mask: Optional[np.ndarray],
) -> np.ndarray:
    """Causal + padding mask, ``(B, H, T, past+T)`` boolean (True hides).

    Every attention layer of a forward uses the same mask, so the model
    builds it once per forward and hands it to each layer.
    """
    total = past + seq
    mask = F.attention_scores_mask(seq, past_len=past)  # (T, past + T)
    if attention_mask is not None:
        padding = ~np.asarray(attention_mask, dtype=bool)  # True = padding
        if padding.shape[-1] != total:
            raise ValueError(
                f"attention_mask covers {padding.shape[-1]} positions, "
                f"expected {total} (cached {past} + new {seq})"
            )
        # A fully masked row (query at a padding position) would make softmax
        # degenerate; allow self-attention on the diagonal to keep it finite.
        # The causal mask never hides the diagonal.
        padding = padding[:, None, None, :] & ~np.eye(seq, total, k=past, dtype=bool)
        mask = mask | padding
    return np.broadcast_to(mask, (batch, num_heads, seq, total)).copy()


def _summed(parts):
    """Sum gradient contributions left to right into the first (owned) one."""
    total = parts[0]
    for part in parts[1:]:
        total += part
    return total


class MultiHeadSelfAttention(Module):
    """Multi-head scaled dot-product self-attention with a causal mask."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        dropout_rate: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim ({dim}) must be divisible by num_heads ({num_heads})")
        rng = as_generator(rng)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.q_proj = Linear(dim, dim, rng=rng)
        self.k_proj = Linear(dim, dim, rng=rng)
        self.v_proj = Linear(dim, dim, rng=rng)
        self.o_proj = Linear(dim, dim, rng=rng)
        self.attn_dropout = Dropout(dropout_rate, rng=rng)

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        """(B, T, D) -> (B, H, T, head_dim)."""
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        """(B, H, T, head_dim) -> (B, T, D)."""
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, self.dim)

    def forward(self, x: Tensor, attention_mask: Optional[np.ndarray] = None) -> Tensor:
        """Apply causal self-attention (the autograd reference path).

        ``attention_mask`` is an optional ``(B, T)`` boolean array where
        ``False`` marks padding positions that must not be attended to.
        """
        batch, seq, _ = x.shape
        queries = self._split_heads(self.q_proj(x), batch, seq)
        keys = self._split_heads(self.k_proj(x), batch, seq)
        values = self._split_heads(self.v_proj(x), batch, seq)
        scale = 1.0 / np.sqrt(self.head_dim)
        mask = combined_mask(batch, self.num_heads, seq, 0, attention_mask)
        dropout_mask = self.attn_dropout.draw_mask((batch, self.num_heads, seq, seq))
        context = F.scaled_dot_product_attention(
            queries, keys, values, scale, mask, dropout_mask
        )
        merged = self._merge_heads(context, batch, seq)
        return self.o_proj(merged)

    def raw_forward(
        self,
        x: np.ndarray,
        mask: np.ndarray,
        cache: Optional[LayerKVCache] = None,
        tape: Optional[list] = None,
    ) -> np.ndarray:
        """Array-level forward (same kernels as the autograd path).

        ``mask`` is the :func:`combined_mask` of this forward.  When
        ``cache`` is given, ``x`` holds only the newly fed positions; their
        keys/values are appended to the cache and the queries attend over the
        full cached context.  With a ``tape`` (the training step, never with
        a cache) every kernel's residuals are recorded for
        :meth:`raw_backward`.
        """
        backend = _active()
        batch, seq, _ = x.shape
        heads, head_dim = self.num_heads, self.head_dim
        queries, keys, values = (
            proj.raw_forward(x, tape).reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)
            for proj in (self.q_proj, self.k_proj, self.v_proj)
        )

        past = 0
        if cache is not None:
            past = cache.length
            keys, values = cache.extend(keys, values)

        scale = 1.0 / np.sqrt(head_dim)
        dropout_mask = self.attn_dropout.draw_mask((batch, heads, seq, past + seq))
        context, residuals = backend.scaled_dot_product_attention(
            queries, keys, values, scale, mask, dropout_mask
        )
        if tape is not None:
            tape.append(residuals)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.dim)
        return self.o_proj.raw_forward(merged, tape)

    def raw_backward(
        self, tape: list, grad: np.ndarray, need_x: bool
    ) -> Optional[np.ndarray]:
        """Reverse of a taped :meth:`raw_forward`; returns the input gradient.

        Records are popped LIFO (output projection, attention, then the
        v, k and q projections), but the input gradient is summed in the
        order autograd accumulates it: q-base, q-adapter, k-base, k-adapter,
        v-base, v-adapter.  Float addition is not associative, so that order
        is what keeps the step bit-identical to autograd.  Returns None when
        ``need_x`` is False.
        """
        batch, seq, _ = grad.shape
        heads, head_dim = self.num_heads, self.head_dim
        grad_merged = _summed(self.o_proj.raw_backward(tape, grad, True))
        # Autograd hands the kernel a C-contiguous gradient; a GEMM operand's
        # memory layout can change the result's bits, so this does too.
        grad_context = np.ascontiguousarray(
            grad_merged.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)
        )
        grads = _active().VJPS["scaled_dot_product_attention"](
            tape.pop(), grad_context, (True, True, True)
        )
        parts: list = []
        for projection, grad_heads in zip(
            (self.v_proj, self.k_proj, self.q_proj), reversed(grads)
        ):
            grad_out = grad_heads.transpose(0, 2, 1, 3).reshape(batch, seq, self.dim)
            parts = projection.raw_backward(tape, grad_out, need_x) + parts
        return _summed(parts) if need_x else None

    def raw_extend_cache(
        self, x: np.ndarray, cache: LayerKVCache
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Append the keys/values of the ``(B, T, dim)`` positions ``x`` to ``cache``.

        The key/value half of :meth:`raw_forward`: the prefill runs it over
        the last block's positions, of which only the newest then queries
        (:meth:`raw_attend_rows`).  Returns views of the full cached arrays.
        """
        batch, seq, _ = x.shape
        heads, head_dim = self.num_heads, self.head_dim
        keys, values = (
            proj.raw_forward(x).reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)
            for proj in (self.k_proj, self.v_proj)
        )
        return cache.extend(keys, values)

    def raw_append_rows(
        self, x: np.ndarray, cache: LayerKVCache
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Append the key/value of each ``(B, dim)`` row of ``x`` as one new cache column.

        The projections are 2-D GEMMs written straight into the cache's
        capacity buffers.  Returns views of the full cached arrays.
        """
        batch = x.shape[0]
        heads, head_dim = self.num_heads, self.head_dim
        return cache.append_token(
            self.k_proj.raw_forward(x).reshape(batch, heads, head_dim),
            self.v_proj.raw_forward(x).reshape(batch, heads, head_dim),
        )

    def raw_attend_rows(
        self, x: np.ndarray, keys: np.ndarray, values: np.ndarray, padding: np.ndarray
    ) -> np.ndarray:
        """Attention output of the ``(B, dim)`` rows ``x``, each at its row's newest position.

        ``keys``/``values`` are the ``(B, H, total, head_dim)`` cached arrays,
        the rows' own key/value included; ``padding`` is a boolean
        ``(B, 1, 1, total)`` array, True hiding a key position.  Caller
        guarantees inert dropout.  The attention products and the softmax run
        the same operations as the fused kernel, without the causal mask (a
        query at the newest position sees every cached key).
        """
        batch = x.shape[0]
        heads, head_dim = self.num_heads, self.head_dim
        query = self.q_proj.raw_forward(x).reshape(batch, heads, 1, head_dim)
        scores = query @ np.swapaxes(keys, -1, -2)  # (B, H, 1, total)
        scores *= 1.0 / np.sqrt(head_dim)
        np.copyto(scores, -1e9, where=padding)
        scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= np.add.reduce(scores, axis=-1, keepdims=True)
        context = scores @ values  # (B, H, 1, head_dim)
        return self.o_proj.raw_forward(context.reshape(batch, self.dim))

    def raw_decode_row(self, x: np.ndarray, cache: LayerKVCache, workspace, tag) -> np.ndarray:
        """Fused single-token attention step on a ``(dim,)`` row.

        Caller guarantees batch 1, one new position, no padding mask and inert
        dropout.  Projections are GEMVs into workspace buffers; the new
        key/value row is written straight into the cache's capacity buffers.
        """
        heads, head_dim = self.num_heads, self.head_dim
        dim = self.dim
        query = self.q_proj.project_row(x, workspace.get((tag, "q"), (dim,)))
        key = self.k_proj.project_row(x, workspace.get((tag, "k"), (dim,)))
        value = self.v_proj.project_row(x, workspace.get((tag, "v"), (dim,)))
        keys, values = cache.append_token(
            key.reshape(1, heads, head_dim), value.reshape(1, heads, head_dim)
        )
        keys3 = keys[0]  # (H, total, head_dim)
        values3 = values[0]
        query3 = query.reshape(heads, head_dim)
        scores = (keys3 @ query3[:, :, None])[:, :, 0]  # (H, total)
        scores *= 1.0 / np.sqrt(head_dim)
        scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= np.add.reduce(scores, axis=-1, keepdims=True)
        context = scores[:, None, :] @ values3  # (H, 1, head_dim)
        return self.o_proj.project_row(
            context.reshape(dim), workspace.get((tag, "attn"), (dim,))
        )
