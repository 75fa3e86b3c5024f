"""Decoder-only transformer language model.

This is the on-device LLM stand-in for Llama-3B: the architecture family is
the same (token + positional embeddings, pre-LayerNorm decoder blocks with
causal multi-head self-attention and a GELU feed-forward, a final LayerNorm
and an output projection), only the size is scaled down so it trains and
fine-tunes in seconds on CPU.  The framework under test uses it through three
interfaces — next-token logits, last-hidden-layer embeddings, and LoRA
fine-tuning — each of which is exercised exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.nn.attention import LayerKVCache, MultiHeadSelfAttention, combined_mask
from repro.nn.backend import active as _active
from repro.nn.layers import Dropout, Embedding, FeedForward, LayerNorm, Linear, Module
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
    steps fill it.
    """

    def __init__(self, num_layers: int, capacity: int) -> None:
        require_positive("num_layers", num_layers)
        self.layers = [LayerKVCache(capacity) for _ in range(num_layers)]

    @property
    def length(self) -> int:
        """Number of cached context positions."""
        return self.layers[0].length

    def reset(self) -> None:
        """Invalidate the cache (e.g. when the context window slides)."""
        for layer in self.layers:
            layer.reset()


@dataclass
class TransformerConfig:
    """Hyper-parameters of the decoder-only transformer."""

    vocab_size: int = 512
    max_seq_len: int = 64
    dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_multiplier: int = 4
    dropout_rate: float = 0.0
    tie_embeddings: bool = True

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
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")


class TransformerBlock(Module):
    """Pre-LayerNorm decoder block: LN → attention → residual, LN → FFN → residual."""

    def __init__(self, config: TransformerConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = as_generator(rng)
        self.ln_attn = LayerNorm(config.dim)
        self.attention = MultiHeadSelfAttention(
            config.dim, config.num_heads, dropout_rate=config.dropout_rate, rng=rng
        )
        self.ln_ffn = LayerNorm(config.dim)
        self.ffn = FeedForward(
            config.dim,
            config.dim * config.ffn_multiplier,
            dropout_rate=config.dropout_rate,
            rng=rng,
        )

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
    ) -> np.ndarray:
        """Array-level block forward (same kernels as the autograd path).

        ``hidden`` must be owned by the caller: residuals are added in place.
        ``mask`` is the forward's :func:`~repro.nn.attention.combined_mask`.
        """
        attn = self.attention.raw_forward(self.ln_attn.raw_forward(hidden, tape), mask, cache, tape)
        attn += hidden
        out = self.ffn.raw_forward(self.ln_ffn.raw_forward(attn, tape), tape)
        out += attn
        return out

    def raw_query_rows(
        self,
        hidden: np.ndarray,
        normed: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        key_padding: np.ndarray,
    ) -> np.ndarray:
        """The block's query side for one position per row; updates ``hidden`` in place.

        ``hidden`` is that position's ``(B, dim)`` residual stream and
        ``normed`` its ``ln_attn`` output; ``keys``/``values`` are the cached
        arrays, its own key/value included, and ``key_padding`` the mask of
        :meth:`MultiHeadSelfAttention.raw_attend_rows`.  Attention,
        ``o_proj``, residual, ``ln_ffn``, FFN, residual: the per-block body
        of :meth:`TransformerLM.decode_step` and of the last block of
        :meth:`TransformerLM.prefill`.  Dropout must be inert.
        """
        hidden += self.attention.raw_attend_rows(normed, keys, values, key_padding)
        hidden += self.ffn.raw_forward(self.ln_ffn.raw_forward(hidden))
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
        if input_grad is not None:
            input_grad += mid_grad
        return input_grad


class TransformerLM(Module):
    """Decoder-only causal language model returning logits and hidden states."""

    def __init__(self, config: TransformerConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = as_generator(rng)
        self.config = config
        self.token_embedding = Embedding(config.vocab_size, config.dim, rng=rng)
        self.position_embedding = Embedding(config.max_seq_len, config.dim, rng=rng)
        self.embedding_dropout = Dropout(config.dropout_rate, rng=rng)
        self.blocks = [TransformerBlock(config, rng=rng) for _ in range(config.num_layers)]
        self.ln_final = LayerNorm(config.dim)
        self._workspace = None  # lazily created by the fused decode step
        if config.tie_embeddings:
            self.lm_head: Optional[Linear] = None
        else:
            self.lm_head = Linear(config.dim, config.vocab_size, bias=False, rng=rng)

    # ------------------------------------------------------------------ #
    def forward(
        self, token_ids: np.ndarray, attention_mask: Optional[np.ndarray] = None
    ) -> Tensor:
        """Next-token logits through the autograd graph: the reference path.

        ``token_ids`` is an integer ``(batch, seq)`` array and
        ``attention_mask`` an optional boolean array of the same shape where
        ``False`` marks padding.  A graph is recorded whenever a parameter
        requires grad.  It is the one full-window forward: :meth:`train_step`
        runs the same kernels without a graph and the tests hold it to this
        path bit for bit; the tests also hold :meth:`hidden_states`,
        :meth:`prefill` and the decode steps to it.
        """
        token_ids = self._checked_ids(token_ids)
        batch, seq = token_ids.shape
        positions = self._positions(batch, seq, 0, None)
        hidden = self.token_embedding(token_ids) + self.position_embedding(positions)
        hidden = self.embedding_dropout(hidden)
        for block in self.blocks:
            hidden = block(hidden, attention_mask=attention_mask)
        hidden = self.ln_final(hidden)
        if self.lm_head is not None:
            return self.lm_head(hidden)
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
    ) -> np.ndarray:
        """Embeddings and the first ``depth`` blocks over every position.

        Returns the ``(batch, seq, dim)`` residual stream.  Each block run
        appends its keys/values to its layer of ``kv_cache``; ``tape`` is as
        in :meth:`train_step`.
        """
        batch, seq = token_ids.shape
        past = kv_cache.length if kv_cache is not None else 0
        hidden = self.token_embedding.rows(token_ids)
        # Positions were already range-checked against max_seq_len above, so
        # the embedding's own bounds validation can be skipped here.
        hidden += self.position_embedding.weight.data[positions]
        dropout_mask = self.embedding_dropout.draw_mask(hidden.shape)
        if dropout_mask is not None:
            hidden *= dropout_mask
        if tape is not None:
            tape.append((token_ids, positions, dropout_mask))
        mask = combined_mask(batch, self.config.num_heads, seq, past, attention_mask)
        for index in range(depth):
            layer_cache = kv_cache.layers[index] if kv_cache is not None else None
            hidden = self.blocks[index].raw_forward(hidden, mask, layer_cache, tape)
        return hidden

    def train_step(
        self,
        token_ids: np.ndarray,
        attention_mask: Optional[np.ndarray],
        labels: np.ndarray,
    ) -> float:
        """One graph-free training step; returns the mean cross-entropy.

        The forward runs the same backend kernels as :meth:`forward` with a
        tape: each kernel appends the residuals it already returns, and
        residuals are added in place.  The loss is the backend's
        cross-entropy over the ``(batch, seq)`` ``labels`` (``IGNORE_INDEX``
        positions carry none), and the reverse sweep pops the tape LIFO
        through the backend VJPs.  It accumulates ``.grad`` (as autograd
        does, so clear it first) only on parameters with ``requires_grad``:
        the LoRA factors when fine-tuning, every weight when pre-training.
        No Tensor graph is built, and the loss and every gradient are
        bit-identical to ``cross_entropy(self(token_ids, attention_mask),
        labels, IGNORE_INDEX).backward()`` under the same RNG state.
        """
        token_ids = self._checked_ids(token_ids)
        batch, seq = token_ids.shape
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (batch, seq):
            raise ValueError(f"labels shape {labels.shape} does not match tokens {(batch, seq)}")
        backend = _active()
        embedding = self.token_embedding.weight
        # live[i]: whether block i's input depends on a trainable parameter;
        # gradients are not propagated below the lowest one that does.
        live = [embedding.requires_grad or self.position_embedding.weight.requires_grad]
        for block in self.blocks:
            live.append(live[-1] or any(t.requires_grad for t in block.parameter_list()))

        tape: list = []
        hidden = self._encode(
            token_ids, attention_mask, None, self._positions(batch, seq, 0, None),
            len(self.blocks), tape,
        )
        hidden = self.ln_final.raw_forward(hidden, tape)
        if self.lm_head is not None:
            logits = self.lm_head.raw_forward(hidden, tape)
        else:
            logits, residuals = backend.matmul(hidden, embedding.data.T)
            tape.append(residuals)
        loss, residuals = backend.cross_entropy(logits, labels, IGNORE_INDEX)
        grad = backend.VJPS["cross_entropy"](residuals, 1.0)
        head_grad = None
        if self.lm_head is not None:
            (grad,) = self.lm_head.raw_backward(tape, grad, True)
        else:
            grad, head_grad = backend.VJPS["matmul"](
                tape.pop(), grad, (True, embedding.requires_grad)
            )
        grad = self.ln_final.raw_backward(tape, grad, live[-1])
        for index in reversed(range(len(self.blocks))):
            if not live[index + 1]:
                break
            grad = self.blocks[index].raw_backward(tape, grad, live[index])
        if live[0]:
            ids, positions, dropout_mask = tape.pop()
            if dropout_mask is not None:
                grad = grad * dropout_mask
            self.token_embedding.raw_backward(ids, grad)
            self.position_embedding.raw_backward(positions, grad)
        if head_grad is not None:
            # Autograd adds the tied head's share after the lookup's.
            embedding._accumulate_owned(head_grad.T)
        return float(loss)

    def _check_decode(self, entry: str, kv_cache: KVCache) -> int:
        """Guards shared by the incremental decode entry points; returns ``past``."""
        if self.training:
            raise RuntimeError(f"{entry} requires eval mode (dropout must be inert)")
        past = kv_cache.length
        if past + 1 > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {past + 1} (cached {past} + new 1) "
                f"exceeds max_seq_len {self.config.max_seq_len}"
            )
        return past

    def decode_logits(self, token_id: int, kv_cache: KVCache) -> np.ndarray:
        """One fused single-token decode step; returns the ``(vocab,)`` logits row.

        The tightest entry point for steady-state batch-1 decoding (the
        cached loop of ``generate_tokens``): the last-position logits of
        :meth:`forward` over the cached context plus ``token_id``, in eval
        mode, to float rounding (GEMVs and scalar LayerNorm statistics).
        The returned array is workspace-owned — read it (or copy) before
        the next decode step.
        """
        past = self._check_decode("decode_logits", kv_cache)
        if not 0 <= token_id < self.config.vocab_size:
            raise IndexError(
                f"token id out of range [0, {self.config.vocab_size}): "
                f"min={token_id}, max={token_id}"
            )
        logits, _ = self._decode_step(token_id, past, kv_cache, _active())
        return logits

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
        per prime.  The KV cache must hold ``B`` rows.  Each row's logits
        are the last-position logits of :meth:`forward` over that row's
        unpadded context, to float rounding; the step runs as 2-D row GEMMs
        into the model's workspace, and the returned array is
        workspace-owned — read it (or copy) before the next step.
        """
        past = self._check_decode("decode_step", kv_cache)
        backend = _active()
        workspace = self._workspace
        if workspace is None:
            workspace = self._workspace = backend.Workspace()
        batch = token_ids.shape[0]
        hidden = workspace.get(("rows", "hidden"), (batch, self.config.dim))
        np.add(
            self.token_embedding.weight.data[token_ids],
            self.position_embedding.weight.data[positions],
            out=hidden,
        )
        key_padding = padding[:, None, None, : past + 1]
        for block, layer_cache in zip(self.blocks, kv_cache.layers):
            normed = block.ln_attn.raw_forward(hidden)
            keys, values = block.attention.raw_append_rows(normed, layer_cache)
            block.raw_query_rows(hidden, normed, keys, values, key_padding)
        return self._rows_logits(
            hidden, workspace.get(("rows", "logits"), (batch, self.config.vocab_size))
        )

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
        head on ``(B, dim)``.  Requires eval mode.
        """
        if self.training:
            raise RuntimeError("prefill requires eval mode (dropout must be inert)")
        token_ids = self._checked_ids(token_ids)
        batch, seq = token_ids.shape
        past = kv_cache.length
        positions = self._positions(batch, seq, past, position_ids)
        last = len(self.blocks) - 1
        hidden = self._encode(token_ids, attention_mask, kv_cache, positions, last)
        block = self.blocks[last]
        normed = block.ln_attn.raw_forward(hidden)
        keys, values = block.attention.raw_extend_cache(normed, kv_cache.layers[last])
        if attention_mask is None:
            key_padding = np.zeros((batch, 1, 1, past + seq), dtype=bool)
        else:
            key_padding = ~np.asarray(attention_mask, dtype=bool)[:, None, None, :]
        rows = block.raw_query_rows(
            np.ascontiguousarray(hidden[:, -1]),
            np.ascontiguousarray(normed[:, -1]),
            keys,
            values,
            key_padding,
        )
        return self._rows_logits(rows)

    def _rows_logits(self, hidden: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``ln_final`` and the LM head on ``(B, dim)`` rows; a tied head writes into ``out``."""
        normed = self.ln_final.raw_forward(hidden)
        if self.lm_head is not None:
            return self.lm_head.raw_forward(normed)
        return np.matmul(normed, self.token_embedding.weight.data.T, out=out)

    def _decode_step(self, token_id: int, position: int, kv_cache: KVCache, backend):
        """Fused per-token decode: row kernels + preallocated workspace.

        Every intermediate lives in a :class:`Workspace` buffer keyed by
        layer, so after the first step the whole forward runs allocation-free
        apart from a few attention temporaries that grow with context length.
        Returned rows are workspace-owned views — callers must copy.
        """
        workspace = self._workspace
        if workspace is None:
            workspace = self._workspace = backend.Workspace()
        dim = self.config.dim
        hidden = workspace.get("hidden", (dim,))
        np.add(
            self.token_embedding.weight.data[token_id],
            self.position_embedding.weight.data[position],
            out=hidden,
        )
        for index, block in enumerate(self.blocks):
            normed = backend.layernorm_row(
                hidden,
                block.ln_attn.weight.data,
                block.ln_attn.bias.data,
                block.ln_attn.eps,
                workspace.get(("ln_attn", index), (dim,)),
            )
            hidden += block.attention.raw_decode_row(
                normed, kv_cache.layers[index], workspace, index
            )
            normed = backend.layernorm_row(
                hidden,
                block.ln_ffn.weight.data,
                block.ln_ffn.bias.data,
                block.ln_ffn.eps,
                workspace.get(("ln_ffn", index), (dim,)),
            )
            up = block.ffn.up.project_row(
                normed, workspace.get(("up", index), (block.ffn.up.out_features,))
            )
            act, _ = backend.gelu(up)
            hidden += block.ffn.down.project_row(
                act, workspace.get(("down", index), (dim,))
            )
        normed = backend.layernorm_row(
            hidden,
            self.ln_final.weight.data,
            self.ln_final.bias.data,
            self.ln_final.eps,
            workspace.get("ln_final", (dim,)),
        )
        if self.lm_head is not None:
            logits = self.lm_head.project_row(
                normed, workspace.get("logits", (self.lm_head.out_features,))
            )
        else:
            weight = self.token_embedding.weight.data
            logits = np.dot(weight, normed, out=workspace.get("logits", (weight.shape[0],)))
        return logits, normed

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
            hidden = self._encode(token_ids, attention_mask, None, positions, len(self.blocks))
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

    def parameter_count(self) -> Tuple[int, int]:
        """``(total, trainable)`` scalar parameter counts."""
        return self.num_parameters(), self.num_parameters(trainable_only=True)
