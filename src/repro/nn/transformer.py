"""Decoder-only transformer language model.

This is the on-device LLM stand-in for Llama-3B: the architecture family is
the same (token + positional embeddings, pre-LayerNorm decoder blocks with
causal multi-head self-attention and a GELU feed-forward, a final LayerNorm
and an output projection tied to the token embedding, so logits are
``hidden @ E.T``), only the size is scaled down so it trains and
fine-tunes in seconds on CPU.  The framework under test uses it through three
interfaces — next-token logits, last-hidden-layer embeddings, and LoRA
fine-tuning — each of which is exercised exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.nn.attention import (
    LayerKVCache,
    MultiHeadSelfAttention,
    PackedRows,
    combined_mask,
    fold_affine,
)
from repro.nn.backend import numpy_backend as K
from repro.nn.layers import Embedding, FeedForward, LayerNorm, Module
from repro.nn.tensor import Tensor
from repro.utils.config import require_positive
from repro.utils.rng import as_generator

# Label value that carries no loss (question tokens and padding).
IGNORE_INDEX = -100


class KVCache:
    """Per-layer key/value caches for incremental decoding.

    One :class:`~repro.nn.attention.LayerKVCache` per decoder block; the
    model-level ``length`` is the number of context positions already encoded.
    The cache stores raw arrays (no autograd graph) in buffers of
    ``capacity`` positions; :meth:`TransformerLM.prefill` and the decode
    steps fill it.  The prefill also leaves the round's
    :class:`DecodeRound` on it, whose buffers come from the cache's
    ``workspace``: a re-prime of the same rows reuses them, and they go
    with the cache when its round ends.
    """

    def __init__(self, num_layers: int, capacity: int) -> None:
        require_positive("num_layers", num_layers)
        self.layers = [LayerKVCache(capacity) for _ in range(num_layers)]
        #: The :class:`DecodeRound` of the last prime, which the steps read.
        self.round: Optional["DecodeRound"] = None
        self.workspace = K.Workspace()

    @property
    def length(self) -> int:
        """Number of cached context positions."""
        return self.layers[0].length

    def reset(self) -> None:
        """Invalidate the cache (e.g. when the context window slides)."""
        for layer in self.layers:
            layer.reset()


class DecodeRound:
    """What the decode steps of one round read, built by its prime.

    :meth:`TransformerLM.prefill` builds one per call.  ``blocks`` holds
    each block's :meth:`TransformerBlock.row_weights` and ``head`` the tied
    head with ``ln_final``'s affine folded in (as
    :func:`~repro.nn.attention.fold_affine` does), all read from the layers
    then, so a step never uses weights older than its prime.  ``padded``
    says whether the prime had padding to hide.  The ``(rows, ...)``
    buffers come from ``workspace`` (the cache's), and every step
    overwrites them: the residual stream; a normalized input with a column
    of ones (``normed``, written through its ``(rows, dim)`` view
    ``normalized``) and the scratch that makes it; the q/k/v projections;
    a block output; the FFN's hidden layer before and after GELU (``act``,
    also with a column of ones, written through ``activated``); the logits.
    """

    __slots__ = (
        "rows", "padded", "blocks", "head", "mean", "hidden", "normed", "normalized",
        "centered", "squared", "stat", "qkv", "out", "up", "gelu_scratch", "act", "activated",
        "logits",
    )

    def __init__(
        self, model: "TransformerLM", rows: int, padded: bool, workspace: K.Workspace
    ) -> None:
        config = model.config
        dim, ffn = config.dim, config.dim * config.ffn_multiplier
        self.rows = rows
        self.padded = padded
        self.blocks = [block.row_weights() for block in model.blocks]
        ln = model.ln_final
        self.head = fold_affine(model.token_embedding.weight.data.T, ln.weight.data, ln.bias.data)
        self.mean = np.full((dim, 1), 1.0 / dim, dtype=np.float32)
        widths = {
            "hidden": dim, "normed": dim + 1, "centered": dim, "squared": dim, "stat": 1,
            "qkv": 3 * dim, "out": dim, "up": ffn, "gelu_scratch": ffn, "act": ffn + 1,
            "logits": config.vocab_size,
        }
        for name, width in widths.items():
            setattr(self, name, workspace.get(name, (rows, width)))
        self.normed[:, dim] = 1.0
        self.act[:, ffn] = 1.0
        self.normalized = self.normed[:, :dim]
        self.activated = self.act[:, :ffn]

    def normalize(self, x: np.ndarray, eps: float) -> np.ndarray:
        """The ``(rows, dim)`` ``x`` normalized (no affine), as ``(rows, dim + 1)`` :attr:`normed`."""
        K.normalize_into(
            x, self.mean, eps, self.normalized, self.centered, self.squared, self.stat
        )
        return self.normed

    def gelu(self) -> np.ndarray:
        """GELU of :attr:`up`, as :attr:`act` ``(rows, ffn + 1)``."""
        K.gelu_into(self.up, self.activated, self.gelu_scratch)
        return self.act


@dataclass
class TransformerConfig:
    """Hyper-parameters of the decoder-only transformer."""

    vocab_size: int = 512
    max_seq_len: int = 64
    dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_multiplier: int = 4

    def __post_init__(self) -> None:
        require_positive("vocab_size", self.vocab_size)
        require_positive("max_seq_len", self.max_seq_len)
        require_positive("dim", self.dim)
        require_positive("num_layers", self.num_layers)
        require_positive("num_heads", self.num_heads)
        require_positive("ffn_multiplier", self.ffn_multiplier)
        if self.dim % self.num_heads != 0:
            raise ValueError(
                f"dim ({self.dim}) must be divisible by num_heads ({self.num_heads})"
            )


class TransformerBlock(Module):
    """Pre-LayerNorm decoder block: LN → attention → residual, LN → FFN → residual."""

    def __init__(self, config: TransformerConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = as_generator(rng)
        self.ln_attn = LayerNorm(config.dim)
        self.attention = MultiHeadSelfAttention(config.dim, config.num_heads, rng=rng)
        self.ln_ffn = LayerNorm(config.dim)
        self.ffn = FeedForward(config.dim, config.dim * config.ffn_multiplier, rng=rng)

    def forward(self, x: Tensor, attention_mask: Optional[np.ndarray] = None) -> Tensor:
        x = x + self.attention(self.ln_attn(x), attention_mask=attention_mask)
        x = x + self.ffn(self.ln_ffn(x))
        return x

    def raw_forward(
        self,
        hidden: np.ndarray,
        mask: np.ndarray,
        cache: Optional[LayerKVCache] = None,
        tape: Optional[list] = None,
        rows: Optional[PackedRows] = None,
        queries: Optional[PackedRows] = None,
    ) -> np.ndarray:
        """Array-level block forward (same kernels as the autograd path).

        ``hidden`` must be owned by the caller: residuals are added in place.
        ``mask`` is the forward's :func:`~repro.nn.attention.combined_mask`.
        ``rows`` and ``queries`` are as in
        :meth:`MultiHeadSelfAttention.raw_forward`: with ``queries`` only
        its rows go on past the key/value projections, and the block returns
        them.
        """
        if tape is not None:
            tape.append(queries)
        attn = self.attention.raw_forward(
            self.ln_attn.raw_forward(hidden, tape), mask, cache, tape, rows, queries
        )
        attn += hidden if queries is None else queries.gather(hidden)
        out = self.ffn.raw_forward(self.ln_ffn.raw_forward(attn, tape), tape)
        out += attn
        return out

    def row_weights(self) -> tuple:
        """What this block's decode steps read, built from its layers now.

        ``(ln_attn_eps, attention, ln_ffn_eps, up, down)``: each
        LayerNorm's affine is folded into the weights that read it, so the
        steps normalize with ``eps`` alone; ``attention`` is the attention's
        :meth:`~repro.nn.attention.MultiHeadSelfAttention.row_weights` and
        ``up``/``down`` the FFN's projections as ``[x, 1] @ w`` reads them
        (:func:`~repro.nn.attention.fold_affine`), biases in the last row.
        """
        ln_attn, ln_ffn, up, down = self.ln_attn, self.ln_ffn, self.ffn.up, self.ffn.down
        return (
            ln_attn.eps,
            self.attention.row_weights(ln_attn.weight.data, ln_attn.bias.data),
            ln_ffn.eps,
            fold_affine(up.weight.data.T, ln_ffn.weight.data, ln_ffn.bias.data, up.bias.data),
            np.concatenate((down.weight.data.T, down.bias.data[None]), axis=0),
        )

    def raw_query_rows(
        self,
        hidden: np.ndarray,
        query: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        key_padding: Optional[np.ndarray],
        weights: tuple,
        rows: DecodeRound,
    ) -> np.ndarray:
        """The block's query side for one position per row; updates ``hidden`` in place.

        ``hidden`` is that position's ``(B, dim)`` residual stream and
        ``query`` the ``q_proj`` of its ``ln_attn`` output, times the score
        scale; ``keys``/``values`` are the cached arrays, its own key/value
        included, and ``key_padding`` the mask of
        :meth:`MultiHeadSelfAttention.raw_attend_rows`.  ``weights`` is this
        block's :meth:`row_weights` and ``rows`` the round whose buffers the
        kernels write into.  Attention, ``o_proj``, residual, ``ln_ffn``,
        FFN, residual: the per-block body of :meth:`TransformerLM.decode_step`
        and of the last block of :meth:`TransformerLM.prefill`.  Dropout must
        be inert.
        """
        _, attention, ln_ffn_eps, up, down = weights
        hidden += self.attention.raw_attend_rows(
            query, keys, values, key_padding, attention, rows.out
        )
        np.matmul(rows.normalize(hidden, ln_ffn_eps), up, out=rows.up)
        hidden += np.matmul(rows.gelu(), down, out=rows.out)
        return hidden

    def raw_backward(self, tape: list, grad: np.ndarray, need_x: bool) -> Optional[np.ndarray]:
        """Reverse of a taped :meth:`raw_forward`; returns the input gradient.

        Each residual-stream gradient is the upstream gradient plus its
        LayerNorm branch.  With ``need_x`` False (nothing below this block
        trains) the gradient stops at the block's own parameters.
        """
        mid_grad = self.ln_ffn.raw_backward(tape, self.ffn.raw_backward(tape, grad), True)
        mid_grad += grad
        ln = self.ln_attn
        normed_grad = self.attention.raw_backward(
            tape, mid_grad, need_x or ln.weight.requires_grad or ln.bias.requires_grad
        )
        input_grad = ln.raw_backward(tape, normed_grad, need_x)
        queries = tape.pop()
        if input_grad is not None:
            if queries is None:
                input_grad += mid_grad
            else:
                queries.scatter_add(input_grad, mid_grad)
        return input_grad


class TransformerLM(Module):
    """Decoder-only causal language model returning logits and hidden states."""

    def __init__(self, config: TransformerConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = as_generator(rng)
        self.config = config
        self.token_embedding = Embedding(config.vocab_size, config.dim, rng=rng)
        self.position_embedding = Embedding(config.max_seq_len, config.dim, rng=rng)
        self.blocks = [TransformerBlock(config, rng=rng) for _ in range(config.num_layers)]
        self.ln_final = LayerNorm(config.dim)

    # ------------------------------------------------------------------ #
    def forward(
        self, token_ids: np.ndarray, attention_mask: Optional[np.ndarray] = None
    ) -> Tensor:
        """Next-token logits through the autograd graph: the reference path.

        ``token_ids`` is an integer ``(batch, seq)`` array and
        ``attention_mask`` an optional boolean array of the same shape where
        ``False`` marks padding.  A graph is recorded whenever a parameter
        requires grad.  It is the one full-window forward: :meth:`train_step`
        runs the same kernels without a graph on the rows its loss reads,
        and the tests hold it to this path to float rounding; the tests also
        hold :meth:`hidden_states`, :meth:`prefill` and the decode steps to
        it.
        """
        token_ids = self._checked_ids(token_ids)
        batch, seq = token_ids.shape
        positions = self._positions(batch, seq, 0, None)
        hidden = self.token_embedding(token_ids) + self.position_embedding(positions)
        for block in self.blocks:
            hidden = block(hidden, attention_mask=attention_mask)
        hidden = self.ln_final(hidden)
        return hidden.matmul(self.token_embedding.weight.transpose(1, 0))

    @staticmethod
    def _checked_ids(token_ids: np.ndarray) -> np.ndarray:
        """``token_ids`` as a 2-D int64 array; raises on any other rank."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise ValueError(f"token_ids must be 2-D (batch, seq), got shape {token_ids.shape}")
        return token_ids

    def _positions(
        self, batch: int, seq: int, past: int, position_ids: Optional[np.ndarray]
    ) -> np.ndarray:
        """``(batch, seq)`` position ids: ``position_ids`` or ``past + arange(seq)``."""
        if past + seq > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {past + seq} (cached {past} + new {seq}) "
                f"exceeds max_seq_len {self.config.max_seq_len}"
            )
        if position_ids is not None:
            positions = np.asarray(position_ids, dtype=np.int64)
            if positions.shape != (batch, seq):
                raise ValueError(
                    f"position_ids shape {positions.shape} does not match tokens {(batch, seq)}"
                )
            return positions
        if batch == 1:
            return np.arange(past, past + seq, dtype=np.int64).reshape(1, seq)
        return np.broadcast_to(np.arange(past, past + seq, dtype=np.int64), (batch, seq))

    def _encode(
        self,
        token_ids: np.ndarray,
        attention_mask: Optional[np.ndarray],
        kv_cache: Optional[KVCache],
        positions: np.ndarray,
        depth: int,
        tape: Optional[list] = None,
        rows: Optional[PackedRows] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Embeddings and the first ``depth`` blocks.

        Returns the ``(batch, seq, dim)`` residual stream, or with ``rows``
        its ``(rows.count, dim)`` packed rows, and the blocks'
        :func:`~repro.nn.attention.combined_mask`.  Each block run appends
        its keys/values to its layer of ``kv_cache``; ``tape`` is as in
        :meth:`train_step`.
        """
        batch, seq = token_ids.shape
        past = kv_cache.length if kv_cache is not None else 0
        if rows is not None:
            token_ids, positions = rows.pack(token_ids), rows.pack(positions)
        hidden = self.token_embedding.rows(token_ids)
        # Positions were already range-checked against max_seq_len above, so
        # the embedding's own bounds validation can be skipped here.
        hidden += self.position_embedding.weight.data[positions]
        if tape is not None:
            tape.append((token_ids, positions))
        mask = combined_mask(batch, self.config.num_heads, seq, past, attention_mask)
        for index in range(depth):
            layer_cache = kv_cache.layers[index] if kv_cache is not None else None
            hidden = self.blocks[index].raw_forward(hidden, mask, layer_cache, tape, rows)
        return hidden, mask

    def train_step(
        self,
        token_ids: np.ndarray,
        attention_mask: Optional[np.ndarray],
        labels: np.ndarray,
    ) -> float:
        """One graph-free training step; returns the mean cross-entropy.

        The forward runs the same backend kernels as :meth:`forward` with a
        tape: each kernel appends the residuals it already returns, and
        residuals are added in place.  It computes only what the loss reads.
        The real positions (``attention_mask``, plus any labelled padding)
        up to each row's last label are packed as
        :class:`~repro.nn.attention.PackedRows`, and every op but attention
        runs on those rows; attention places them in the padded heads layout
        under the usual mask.  Blocks ``[:-1]`` run
        over every packed row; the last block runs ``ln_attn`` and the
        key/value projections over them too, and only the labelled rows
        (``labels != IGNORE_INDEX``) take the query side, ``ln_final``, the
        head and the backend's cross-entropy.  Each LoRA dropout mask is
        drawn at the padded ``(batch, seq, ...)`` shape in :meth:`forward`'s
        order, then packed, so the dropout streams are :meth:`forward`'s.

        The reverse sweep pops the tape LIFO through the backend VJPs.  It
        accumulates ``.grad`` (as autograd does, so clear it first) only on
        parameters with ``requires_grad``: the LoRA factors when
        fine-tuning, every weight when pre-training.  No Tensor graph is
        built.  The loss and every gradient equal ``cross_entropy(self(
        token_ids, attention_mask), labels, IGNORE_INDEX).backward()`` under
        the same RNG state to float rounding (row-subset GEMMs round
        differently), and do not depend on the BLAS thread count: packed
        row counts are multiples of :data:`~repro.nn.attention.ROW_ALIGN`.
        """
        token_ids = self._checked_ids(token_ids)
        batch, seq = token_ids.shape
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (batch, seq):
            raise ValueError(f"labels shape {labels.shape} does not match tokens {(batch, seq)}")
        embedding = self.token_embedding.weight
        # live[i]: whether block i's input depends on a trainable parameter;
        # gradients are not propagated below the lowest one that does.
        live = [embedding.requires_grad or self.position_embedding.weight.requires_grad]
        for block in self.blocks:
            live.append(live[-1] or any(t.requires_grad for t in block.parameter_list()))

        labelled = labels != IGNORE_INDEX
        # No labelled query attends past its row's last label (the causal
        # mask), so the loss reads the real positions up to that label.
        steps = np.arange(seq)
        read = steps <= np.where(labelled, steps, -1).max(axis=1, keepdims=True)
        if attention_mask is not None:
            read &= np.asarray(attention_mask, dtype=bool) | labelled
        rows = PackedRows.window(read, self.config.num_heads)
        queries = PackedRows.queries(labelled, rows)
        positions = self._positions(batch, seq, 0, None)
        last = len(self.blocks) - 1
        tape: list = []
        hidden, mask = self._encode(token_ids, attention_mask, None, positions, last, tape, rows)
        hidden = self.blocks[last].raw_forward(
            hidden, queries.score_rows(mask), None, tape, rows, queries
        )
        hidden = self.ln_final.raw_forward(hidden, tape)
        logits, head_residuals = K.matmul(hidden, embedding.data.T)
        targets = np.full(queries.count, IGNORE_INDEX, dtype=np.int64)
        targets[: queries.size] = labels.reshape(-1)[queries.index]
        loss, residuals = K.cross_entropy(logits, targets, IGNORE_INDEX)
        grad = K.VJPS["cross_entropy"](residuals, 1.0)
        grad, head_grad = K.VJPS["matmul"](head_residuals, grad, (True, embedding.requires_grad))
        grad = self.ln_final.raw_backward(tape, grad, live[-1])
        for index in reversed(range(len(self.blocks))):
            if not live[index + 1]:
                break
            grad = self.blocks[index].raw_backward(tape, grad, live[index])
        if live[0]:
            ids, positions = tape.pop()
            self.token_embedding.raw_backward(ids, grad)
            self.position_embedding.raw_backward(positions, grad)
        if head_grad is not None:
            # Autograd adds the tied head's share after the lookup's.
            embedding._accumulate_owned(head_grad.T)
        return float(loss)

    def decode_step(
        self,
        token_ids: np.ndarray,
        positions: np.ndarray,
        padding: np.ndarray,
        kv_cache: KVCache,
    ) -> np.ndarray:
        """One incremental decode step over ``B`` rows; returns ``(B, vocab)`` logits.

        ``token_ids`` and ``positions`` are ``(B,)`` integer arrays: each
        row's newest token and its absolute position.  ``padding`` is a
        boolean ``(B, >= past + 1)`` array where True hides a key position
        (the left padding of a batch primed by one padded :meth:`prefill`);
        the step slices it to the current length, so a caller builds it once
        per prime.  It is not read when the prime had no ``attention_mask``.
        The KV cache must be primed by :meth:`prefill` over the same ``B``
        rows: the step reads that prime's :class:`DecodeRound`.  Each row's
        logits are the last-position logits of :meth:`forward` over that
        row's unpadded context, to float rounding: the step normalizes
        without the LayerNorm affine, which the round folded into the
        weights after it, and makes the q/k/v projections in one GEMM.  It
        runs as 2-D row GEMMs into the round's buffers, and the returned
        array is one of them: read it (or copy) before the next step.
        Requires eval mode.
        """
        if self.training:
            raise RuntimeError("decode_step requires eval mode (dropout must be inert)")
        past = kv_cache.length
        if past + 1 > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {past + 1} (cached {past} + new 1) "
                f"exceeds max_seq_len {self.config.max_seq_len}"
            )
        rows = kv_cache.round
        if rows is None or rows.rows != token_ids.shape[0]:
            raise ValueError(
                f"decode_step over {token_ids.shape[0]} rows needs a cache primed by "
                "prefill over as many rows"
            )
        hidden = rows.hidden
        np.add(
            self.token_embedding.weight.data[token_ids],
            self.position_embedding.weight.data[positions],
            out=hidden,
        )
        key_padding = padding[:, None, None, : past + 1] if rows.padded else None
        for block, weights, layer_cache in zip(self.blocks, rows.blocks, kv_cache.layers):
            query, keys, values = block.attention.raw_append_rows(
                rows.normalize(hidden, weights[0]), layer_cache, weights[1], rows.qkv
            )
            block.raw_query_rows(hidden, query, keys, values, key_padding, weights, rows)
        return self._rows_logits(hidden, rows, rows.logits)

    def prefill(
        self,
        token_ids: np.ndarray,
        kv_cache: KVCache,
        attention_mask: Optional[np.ndarray] = None,
        position_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Encode prompts into ``kv_cache``; returns each row's ``(B, vocab)`` next-token logits.

        The prime of every cached decode.  ``token_ids`` is ``(B, T)``,
        with any padding on the left so that every row's newest token sits
        in the last column; ``attention_mask`` (False marks padding) and
        ``position_ids`` (each row's positions start at 0 on its first real
        token) are ``(B, T)`` too.  Each row's logits equal the last-position
        logits of :meth:`forward` over that row alone, to float rounding,
        but only the last position goes through the top of the model.
        Blocks ``[:-1]`` run over every position; the last
        block runs ``ln_attn`` and the key/value projections over every
        position, filling its cache, and only each row's final position
        takes the query side (:meth:`TransformerBlock.raw_query_rows`, the
        per-block body of :meth:`decode_step`), then ``ln_final`` and the LM
        head on ``(B, dim)``.  The prime builds the round's
        :class:`DecodeRound` from the weights as they are now and leaves it
        on ``kv_cache`` for the steps.  Requires eval mode.
        """
        if self.training:
            raise RuntimeError("prefill requires eval mode (dropout must be inert)")
        token_ids = self._checked_ids(token_ids)
        batch, seq = token_ids.shape
        past = kv_cache.length
        positions = self._positions(batch, seq, past, position_ids)
        last = len(self.blocks) - 1
        hidden, _ = self._encode(token_ids, attention_mask, kv_cache, positions, last)
        rows = kv_cache.round = DecodeRound(
            self, batch, attention_mask is not None, kv_cache.workspace
        )
        block = self.blocks[last]
        normed = block.ln_attn.raw_forward(hidden)
        keys, values = block.attention.raw_extend_cache(normed, kv_cache.layers[last])
        key_padding = None
        if attention_mask is not None:
            key_padding = ~np.asarray(attention_mask, dtype=bool)[:, None, None, :]
        query = block.attention.q_proj.raw_forward(np.ascontiguousarray(normed[:, -1]))
        query *= 1.0 / np.sqrt(block.attention.head_dim)
        np.copyto(rows.hidden, hidden[:, -1])
        block.raw_query_rows(
            rows.hidden, query, keys, values, key_padding, rows.blocks[last], rows
        )
        return self._rows_logits(rows.hidden, rows)

    def _rows_logits(
        self, hidden: np.ndarray, rows: DecodeRound, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``ln_final`` and the round's tied head on ``(B, dim)`` rows, into ``out`` when given."""
        return np.matmul(rows.normalize(hidden, self.ln_final.eps), rows.head, out=out)

    # ------------------------------------------------------------------ #
    def hidden_states(
        self, token_ids: np.ndarray, attention_mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Final-LayerNorm states ``(batch, seq, dim)``, computed in eval mode.

        The "last hidden layer" the paper uses as the text-embedding
        function, and the hot path of the embedding-based quality metrics.
        It stops at ``ln_final``: no LM head, no ``(batch, seq, vocab)``
        logits; times the tied head's ``E.T`` it is :meth:`forward`'s
        logits bit for bit.  A model
        in training mode is switched to eval for the forward and back
        afterwards, also when the forward raises.
        """
        was_training = self.training
        if was_training:
            self.eval()
        try:
            token_ids = self._checked_ids(token_ids)
            positions = self._positions(*token_ids.shape, 0, None)
            hidden, _ = self._encode(
                token_ids, attention_mask, None, positions, len(self.blocks)
            )
            return self.ln_final.raw_forward(hidden)
        finally:
            if was_training:
                self.train()

    def new_kv_cache(self) -> KVCache:
        """A fresh, empty decoding cache sized for this model.

        The per-layer buffers are preallocated to ``max_seq_len`` positions so
        steady-state decoding never reallocates or concatenates.
        """
        return KVCache(self.config.num_layers, capacity=self.config.max_seq_len)
