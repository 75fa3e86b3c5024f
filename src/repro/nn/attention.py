"""Causal multi-head self-attention.

The projection layers are named ``q_proj``, ``k_proj``, ``v_proj`` and
``o_proj`` to mirror the layer names the paper targets with LoRA ("the
trainable layers are the QKV layers (q_proj, k_proj, v_proj) and attention
output layer (o_proj)"), so the LoRA injection utilities can address them by
the same names.

For autoregressive decoding the array-level path takes a
:class:`LayerKVCache`: keys/values of previously processed positions live in
preallocated capacity buffers, so each incremental step only projects the
newly fed tokens, writes them into the buffer (no per-token concatenation),
and attends against the cached context (O(T) work per token instead of
O(T²)).  Because attention is causal, the cached keys/values are exactly what
a full forward over the whole window would compute, so incremental decoding
is numerically equivalent to the full-context forward.

Both the autograd reference path and the array-level path run the same fused
``scaled_dot_product_attention`` backend kernel, which keeps the inference
outputs bit-identical.  The training step runs the array-level path on
:class:`PackedRows`: every op but attention on the rows its loss reads,
attention in the padded heads layout.  A decode step, one position per row,
runs :meth:`MultiHeadSelfAttention.raw_append_rows` and
:meth:`~MultiHeadSelfAttention.raw_attend_rows` on the weights its prime
folded (:meth:`~MultiHeadSelfAttention.row_weights`): one q/k/v GEMM that
carries the adapter deltas, to float rounding of the projections.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.backend import numpy_backend as K
from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor
from repro.utils.rng import as_generator


class LayerKVCache:
    """Cached key/value buffers of one attention layer.

    Keys and values live in ``(batch, heads, capacity, head_dim)`` buffers,
    allocated at the first :meth:`extend` and reused after :meth:`reset`;
    :meth:`extend` and :meth:`append_token` return views of the cached
    prefix.  Writing past ``capacity`` raises ``ValueError``: every cache is
    sized to what its decode can reach (``max_seq_len`` at most), so
    steady-state decoding never reallocates.  The cache holds plain numpy
    data (no autograd graph); only the prefill and the decode steps take one.
    """

    __slots__ = ("_keys", "_values", "_length", "_capacity")

    def __init__(self, capacity: int) -> None:
        self._keys: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None
        self._length = 0
        self._capacity = int(capacity)

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
        if needed > self._capacity:
            raise ValueError(
                f"cache capacity {self._capacity} exceeded "
                f"(cached {self._length} + new {new})"
            )
        shape = (batch, heads, self._capacity, head_dim)
        if self._keys is None or self._keys.shape != shape:
            if self._length > 0:
                raise ValueError(
                    f"cache holds (batch, heads, capacity, head_dim) = {self._keys.shape} "
                    f"but got {shape}; reset() before reusing with a new shape"
                )
            self._keys = np.empty(shape, dtype=keys.dtype)
            self._values = np.empty(shape, dtype=values.dtype)
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
        :meth:`extend` (which allocates, checks the shape and raises at
        capacity) when the buffers are missing, full, or sized for another
        batch.
        """
        index = self._length
        buffer = self._keys
        if buffer is None or buffer.shape[0] != key_rows.shape[0] or index >= self._capacity:
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


#: Packed row counts are rounded up to a multiple of this.  A weight
#: gradient reduces over the rows (``grad.T @ x``), and OpenBLAS 0.3.31
#: gives the same bits at 1 and 2 threads for every multiple of 32 rows
#: measured (32..4096), but not for most other counts above 448.
ROW_ALIGN = 32


class PackedRows:
    """Selected positions of a padded ``(batch, seq)`` window, packed as 2-D rows.

    The training step runs every op but attention on ``(count, features)``
    arrays: row ``i < size`` is window position ``index[i]`` (flat, ``b *
    seq + t``, ascending).  The rows after them, up to ``count`` (a multiple
    of :data:`ROW_ALIGN`), repeat window position 0: they hold finite values
    that nothing reads, so their gradients are exactly zero.  Attention
    places the rows in a ``(batch, heads, width, head_dim)`` layout, row
    ``i`` at slot ``rank[i]`` of its batch row: :meth:`window` keeps every
    position at its own slot (``width == seq``), :meth:`queries` packs each
    batch row's positions to the front.  A :meth:`queries` packing is a
    subset of a ``parent`` packing, and :meth:`gather` picks its rows out of
    the parent's.
    """

    def __init__(self, batch, seq, heads, index, width, rank, positions=None, pick=None):
        self.batch, self.seq, self.heads, self.width = batch, seq, heads, width
        self.index = index
        self.size = len(index)
        self.count = -(-self.size // ROW_ALIGN) * ROW_ALIGN
        #: ``(batch, width)`` window position of every slot (None: slot j is
        #: position j); empty slots hold position 0.
        self.positions = positions
        tail = np.zeros(self.count - self.size, dtype=np.int64)
        self._take = np.concatenate((index, tail))
        self._pick = None if pick is None else np.concatenate((pick, tail))
        # Row i's head vectors in the heads layout seen as (batch * heads * width, head_dim).
        first = (index // seq * heads)[:, None] + np.arange(heads)
        self._vectors = first * width + rank[:, None]

    @classmethod
    def window(cls, selected: np.ndarray, heads: int) -> "PackedRows":
        """The True positions of the ``(batch, seq)`` boolean ``selected``, each at its own slot."""
        batch, seq = selected.shape
        index = np.flatnonzero(selected)
        return cls(batch, seq, heads, index, seq, index % seq)

    @classmethod
    def queries(cls, selected: np.ndarray, parent: "PackedRows") -> "PackedRows":
        """The True positions of ``selected`` (all in ``parent``), packed per batch row.

        ``width`` is the largest count of one batch row, and each row's
        positions take its first slots in window order.
        """
        batch, seq = selected.shape
        ranks = np.cumsum(selected, axis=1)
        index = np.flatnonzero(selected)
        rank = ranks.reshape(-1)[index] - 1
        width = max(int(ranks[:, -1].max()), 1)
        positions = np.zeros((batch, width), dtype=np.int64)
        positions[index // seq, rank] = index % seq
        pick = np.searchsorted(parent.index, index)
        return cls(batch, seq, parent.heads, index, width, rank, positions, pick)

    def pack(self, array: np.ndarray) -> np.ndarray:
        """``(batch, seq, *f)`` window array -> ``(count, *f)`` rows."""
        return array.reshape((self.batch * self.seq,) + array.shape[2:]).take(self._take, axis=0)

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """This packing's rows out of ``rows``, packed by ``parent``."""
        return rows.take(self._pick, axis=0)

    def scatter_add(self, target: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Add ``rows`` (this packing) into ``target`` (``parent``'s): :meth:`gather`'s VJP."""
        target[self._pick[: self.size]] += rows[: self.size]
        return target

    def to_heads(self, rows: np.ndarray) -> np.ndarray:
        """``(count, dim)`` rows -> ``(batch, heads, width, head_dim)``, empty slots zero."""
        size, heads = self._vectors.shape
        head_dim = rows.shape[-1] // heads
        out = np.zeros((self.batch * heads * self.width, head_dim), dtype=rows.dtype)
        out[self._vectors] = rows[:size].reshape(size, heads, head_dim)
        return out.reshape(self.batch, heads, self.width, head_dim)

    def from_heads(self, array: np.ndarray) -> np.ndarray:
        """``(batch, heads, width, head_dim)`` -> ``(count, dim)`` rows, the tail zero.

        :meth:`to_heads`' VJP: the zero tail is what keeps the tail rows'
        gradients zero.
        """
        size, heads = self._vectors.shape
        head_dim = array.shape[-1]
        out = np.zeros((self.count, heads * head_dim), dtype=array.dtype)
        array.reshape(-1, head_dim).take(
            self._vectors, axis=0, out=out[:size].reshape(size, heads, head_dim)
        )
        return out

    def score_rows(self, array: np.ndarray) -> np.ndarray:
        """The ``(batch, heads, width, keys)`` score rows of the slots' positions.

        ``array`` is a ``(batch, heads, seq, keys)`` window array, the
        forward's :func:`combined_mask`.
        """
        if self.positions is None:
            return array
        rows = np.arange(self.batch)[:, None]
        return array.transpose(0, 2, 1, 3)[rows, self.positions].transpose(0, 2, 1, 3)


def _summed(parts):
    """Sum gradient contributions left to right into the first (owned) one."""
    total = parts[0]
    for part in parts[1:]:
        total += part
    return total


class MultiHeadSelfAttention(Module):
    """Multi-head scaled dot-product self-attention with a causal mask."""

    def __init__(
        self, dim: int, num_heads: int, rng: Optional[np.random.Generator] = None
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
        #: Set only inside :func:`repro.nn.lora.row_adapters`: the round's
        #: :func:`stacked_slabs` with a leading group axis, ``(1, ...)`` for
        #: one adapter and ``(B, ...)``, one group per row, for several.
        self.row_slabs: Optional[Tuple[np.ndarray, ...]] = None

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
        context = F.scaled_dot_product_attention(queries, keys, values, scale, mask)
        merged = self._merge_heads(context, batch, seq)
        return self.o_proj(merged)

    def raw_forward(
        self,
        x: np.ndarray,
        mask: np.ndarray,
        cache: Optional[LayerKVCache] = None,
        tape: Optional[list] = None,
        rows: Optional[PackedRows] = None,
        queries: Optional[PackedRows] = None,
    ) -> np.ndarray:
        """Array-level forward (same kernels as the autograd path).

        ``mask`` is the :func:`combined_mask` of this forward.  Without
        ``rows``, ``x`` is ``(B, T, dim)``.  When ``cache`` is given, ``x``
        holds only the newly fed positions; their keys/values are appended
        to the cache and the queries attend over the full cached context.

        With ``rows`` (the training step, never with a cache), ``x`` holds
        ``rows.count`` packed rows, which go to the padded heads layout for
        the attention kernel only; every kernel's residuals are recorded on
        ``tape`` for :meth:`raw_backward`.  ``queries``, a subset of
        ``rows``' positions, restricts the query side (queries, attention,
        ``o_proj``) to its rows, and ``mask`` is then its
        :meth:`~PackedRows.score_rows`.  The output holds the query rows.
        """
        heads, head_dim = self.num_heads, self.head_dim
        query_rows = rows if queries is None else queries
        query_in = x if queries is None else queries.gather(x)
        # q before k before v: the order their LoRA dropout masks are drawn in.
        projected = [self.q_proj.raw_forward(query_in, tape, query_rows)] + [
            proj.raw_forward(x, tape, rows) for proj in (self.k_proj, self.v_proj)
        ]
        if rows is None:
            batch, seq, _ = x.shape
            query, keys, values = (
                array.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)
                for array in projected
            )
        else:
            batch, seq = rows.batch, rows.seq
            query = query_rows.to_heads(projected[0])
            keys, values = (rows.to_heads(array) for array in projected[1:])

        past = 0
        if cache is not None:
            past = cache.length
            keys, values = cache.extend(keys, values)

        scale = 1.0 / np.sqrt(head_dim)
        context, residuals = K.scaled_dot_product_attention(query, keys, values, scale, mask)
        if tape is not None:
            tape.append((residuals, rows, queries))
        if rows is None:
            merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.dim)
        else:
            merged = query_rows.from_heads(context)
        return self.o_proj.raw_forward(merged, tape, query_rows)

    def raw_backward(
        self, tape: list, grad: np.ndarray, need_x: bool
    ) -> Optional[np.ndarray]:
        """Reverse of a taped :meth:`raw_forward`; returns the input gradient.

        Records are popped LIFO (output projection, attention, then the
        v, k and q projections).  The input gradient sums the q, k and v
        parts; a ``queries`` subset's q parts go into their rows.  Returns
        None when ``need_x`` is False.
        """
        grad_merged = _summed(self.o_proj.raw_backward(tape, grad, True))
        residuals, rows, queries = tape.pop()
        query_rows = rows if queries is None else queries
        grads = K.VJPS["scaled_dot_product_attention"](
            residuals, query_rows.to_heads(grad_merged), (True, True, True)
        )
        value_parts = self.v_proj.raw_backward(tape, rows.from_heads(grads[2]), need_x)
        key_parts = self.k_proj.raw_backward(tape, rows.from_heads(grads[1]), need_x)
        query_parts = self.q_proj.raw_backward(tape, query_rows.from_heads(grads[0]), need_x)
        if not need_x:
            return None
        if queries is None:
            return _summed(query_parts + key_parts + value_parts)
        return queries.scatter_add(_summed(key_parts + value_parts), _summed(query_parts))

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

    def row_weights(self, ln_weight: np.ndarray, ln_bias: np.ndarray) -> tuple:
        """What this block's decode steps read, built from its layers now.

        The steps feed ``(B, dim + 1)`` rows: the input's LayerNorm without
        its affine, then a column of ones.  ``ln_weight``/``ln_bias``, that
        affine, is folded in here (:func:`fold_affine`), and so is the
        attention's score scale ``1 / sqrt(head_dim)``, into every query
        weight.  Returns ``(qkv, a_qkv, b_qkv, o, o_bias, a_o, b_o)``:

        - ``qkv``, ``(dim + 1, 3 * dim)``: the base q, k and v projections
          side by side, biases in the last row;
        - ``a_qkv``/``b_qkv`` and ``a_o``/``b_o``: the adapter slabs, with a
          leading group axis (all None without adapters): :attr:`row_slabs`
          inside :func:`repro.nn.lora.row_adapters`, else the attached
          adapter's :func:`stacked_slabs` as one group; ``a_qkv`` folded as
          ``qkv`` is, ``(G, dim + 1, 3 * rank)``, its query columns also
          times the score scale;
        - ``o``, ``(dim, dim)``, the output projection as ``x @ o`` reads
          it, and its bias.

        Built at every prime, so no copy outlives a change of the weights.
        """
        projections = (self.q_proj, self.k_proj, self.v_proj, self.o_proj)
        bases = [getattr(proj, "base", proj) for proj in projections]
        scale = 1.0 / np.sqrt(self.head_dim)
        qkv = fold_affine(
            np.concatenate([base.weight.data.T for base in bases[:3]], axis=1),
            ln_weight,
            ln_bias,
            np.concatenate([base.bias.data for base in bases[:3]]),
        )
        qkv[:, : self.dim] *= scale
        output = (np.ascontiguousarray(bases[3].weight.data.T), bases[3].bias.data)
        slabs = self.row_slabs
        if slabs is None and bases[3] is not self.o_proj:
            pairs = [(proj.lora_a.data, proj.lora_b.data) for proj in projections]
            slabs = tuple(
                slab[None] for slab in stacked_slabs(pairs, self.o_proj.config.scaling)
            )
        if slabs is None:
            return (qkv, None, None) + output + (None, None)
        a_qkv, b_qkv, a_o, b_o = slabs
        a_qkv = fold_affine(a_qkv, ln_weight, ln_bias)
        a_qkv[..., : b_qkv.shape[-2]] *= scale
        return (qkv, a_qkv, b_qkv) + output + (a_o, b_o)

    def raw_append_rows(
        self, x: np.ndarray, cache: LayerKVCache, weights: tuple, out: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project the ``(B, dim + 1)`` rows ``x``, one new position each, into ``cache``.

        ``x`` is the normalized input with a column of ones and ``weights``
        this block's :meth:`row_weights`.  One GEMM makes the base q, k and
        v side by side in the ``(B, 3 * dim)`` buffer ``out``; the three
        adapter deltas come from one product over the stacked slabs, ``(x
        A_qkv) B_qkv`` per group of rows, added into it.  With one row per
        group (several adapters) the deltas have the bits of three separate
        products.  Each row's key/value goes straight into the cache's
        capacity buffers as one new column.  Returns the ``(B, dim)``
        queries (a view of ``out``, already times the score scale) and views
        of the full cached keys/values.
        """
        batch, dim = out.shape[0], self.dim
        heads, head_dim = self.num_heads, self.head_dim
        qkv, a_qkv, b_qkv = weights[:3]
        np.matmul(x, qkv, out=out)
        if a_qkv is not None:
            groups, rank = len(a_qkv), b_qkv.shape[-2]
            mid = np.matmul(x.reshape(groups, -1, dim + 1), a_qkv)
            delta = np.matmul(mid.reshape(groups, -1, 3, rank).transpose(0, 2, 1, 3), b_qkv)
            parts = out.reshape(groups, -1, 3, dim)
            parts += delta.transpose(0, 2, 1, 3)
        keys, values = cache.append_token(
            out[:, dim : 2 * dim].reshape(batch, heads, head_dim),
            out[:, 2 * dim :].reshape(batch, heads, head_dim),
        )
        return out[:, :dim], keys, values

    def raw_attend_rows(
        self,
        query: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        padding: Optional[np.ndarray],
        weights: tuple,
        out: np.ndarray,
    ) -> np.ndarray:
        """Attention output of the ``(B, dim)`` projected queries, each at its row's newest position.

        ``query`` is already times ``1 / sqrt(head_dim)``.
        ``keys``/``values`` are the ``(B, H, total, head_dim)`` cached arrays,
        the rows' own key/value included; ``padding`` is a boolean
        ``(B, 1, 1, total)`` array, True hiding a key position, or None when
        no row is padded.  Caller guarantees inert dropout.  The softmax
        is the fused kernel's up to summation order, without the causal mask
        (a query at the newest position sees every cached key).  ``o_proj``
        (``weights`` as in :meth:`raw_append_rows`, its adapter delta per
        group of rows) writes into the ``(B, dim)`` buffer ``out``.
        """
        batch = query.shape[0]
        heads, head_dim = self.num_heads, self.head_dim
        query = query.reshape(batch, heads, 1, head_dim)
        scores = query @ np.swapaxes(keys, -1, -2)  # (B, H, 1, total)
        if padding is not None:
            np.copyto(scores, -1e9, where=padding)
        # Each (row, head)'s scores are one contiguous run of the flat array:
        # reduceat over the runs costs a fraction of a per-row reduce.
        flat, starts = scores.reshape(-1), np.arange(0, scores.size, scores.shape[-1])
        scores -= np.maximum.reduceat(flat, starts).reshape(batch, heads, 1, 1)
        np.exp(scores, out=scores)
        scores /= np.add.reduceat(flat, starts).reshape(batch, heads, 1, 1)
        context = (scores @ values).reshape(batch, self.dim)  # (B, H, 1, head_dim)
        output, output_bias, a_o, b_o = weights[3:]
        np.matmul(context, output, out=out)
        out += output_bias
        if a_o is not None:
            rows = out.reshape(len(a_o), -1, self.dim)
            rows += np.matmul(np.matmul(context.reshape(len(a_o), -1, self.dim), a_o), b_o)
        return out


def fold_affine(
    weight: np.ndarray,
    scale: np.ndarray,
    shift: np.ndarray,
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``weight`` as ``[x, 1]`` reads it where it read ``x * scale + shift``.

    ``weight`` is ``(..., in, out)``, read as ``x @ weight + bias``; returns
    ``(..., in + 1, out)``, its rows times ``scale`` over one row of
    ``shift @ weight + bias``.  Equal to float rounding.
    """
    *groups, rows, columns = weight.shape
    folded = np.empty((*groups, rows + 1, columns), dtype=weight.dtype)
    np.multiply(weight, scale[:, None], out=folded[..., :rows, :])
    np.matmul(shift, weight, out=folded[..., rows, :])
    if bias is not None:
        folded[..., rows, :] += bias
    return folded


def stacked_slabs(pairs, scaling: float) -> Tuple[np.ndarray, ...]:
    """The q, k, v and o LoRA factors ``pairs`` (each ``(A, B)``) as a decode step reads them.

    The q, k and v ``A^T`` concatenated ``(in, 3 * rank)``, their ``B^T``
    stacked ``(3, rank, out)``, then ``o_proj``'s ``A^T`` ``(in, rank)`` and
    ``B^T`` ``(rank, out)``, all contiguous.  Every ``B^T`` is multiplied by
    ``scaling`` here, so no decode step scales a delta.
    """
    q, k, v, o = pairs
    return (
        np.concatenate([a.T for a, _ in (q, k, v)], axis=1),
        np.stack([b.T for _, b in (q, k, v)]) * scaling,
        np.ascontiguousarray(o[0].T),
        np.ascontiguousarray(o[1].T) * scaling,
    )
