"""Autoregressive text generation for the on-device LLM.

The paper generates evaluation responses with temperature sampling
(``τ = 0.5``); the same mechanism (plus optional top-k truncation and greedy
decoding) is implemented here over the numpy transformer.

Decoding runs on the array-level inference path (no autograd graph).  A
prime goes through :meth:`~repro.nn.transformer.TransformerLM.prefill`, which
fills a per-layer KV cache and carries only each row's last position through
the top of the model, so each new token then costs one single-position
forward instead of a full re-encode of the context window.  Because attention
is causal, the cached keys/values are what the full-context forward
(:meth:`~repro.nn.transformer.TransformerLM.forward`) computes, so the
incremental path produces the same logits to float rounding and the same
greedy tokens — the test suite asserts this against a loop that runs
``forward`` over the whole visible window per token.  When the context
outgrows ``max_seq_len`` the window slides, which shifts every absolute
position; the cache is then invalidated and rebuilt from the truncated
window, keeping the output identical to that reference.

:func:`generate_tokens_batch` decodes many prompts in one left-padded batch
with per-sequence position ids, padding masks and stop handling, which is how
the evaluators amortize model forwards across the whole evaluation set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.nn.transformer import KVCache, TransformerLM
from repro.utils.config import require_positive
from repro.utils.rng import as_generator


@dataclass
class GenerationConfig:
    """Sampling parameters for autoregressive decoding."""

    max_new_tokens: int = 32
    temperature: float = 0.5
    top_k: Optional[int] = None
    greedy: bool = False
    stop_token_id: Optional[int] = None
    repetition_penalty: float = 1.0

    def __post_init__(self) -> None:
        require_positive("max_new_tokens", self.max_new_tokens)
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.top_k is not None and self.top_k <= 0:
            raise ValueError(f"top_k must be positive when given, got {self.top_k}")
        if self.repetition_penalty < 1.0:
            raise ValueError(
                f"repetition_penalty must be >= 1.0, got {self.repetition_penalty}"
            )


def apply_repetition_penalty(
    logits: np.ndarray, previous_ids: Sequence[int], penalty: float
) -> np.ndarray:
    """Down-weight logits of tokens that were already generated.

    The standard CTRL-style rule: positive logits are divided by ``penalty``
    and negative logits multiplied by it.  ``penalty = 1.0`` is a no-op.
    Small models are prone to degenerate repetition loops; this keeps the
    sampled responses usable without changing which content the model knows.
    """
    if penalty == 1.0 or len(previous_ids) == 0:
        return logits
    unique = np.unique(np.asarray(previous_ids, dtype=np.int64))
    adjusted = logits.copy()
    seen = adjusted[unique]
    adjusted[unique] = np.where(seen > 0, seen / penalty, seen * penalty)
    return adjusted


def penalized_rows(logits: np.ndarray, seen: np.ndarray, penalty: float) -> np.ndarray:
    """:func:`apply_repetition_penalty` applied to every row of a batch at once.

    ``logits`` is ``(B, vocab)``; ``seen[b, t]`` is True when row ``b`` has
    already generated token ``t``.  Returns float64 logits, as the per-row
    rule does after widening.
    """
    widened = logits.astype(np.float64)
    return np.where(seen, np.where(widened > 0, widened / penalty, widened * penalty), widened)


def sample_next_token(
    logits: np.ndarray,
    config: GenerationConfig,
    rng: Optional[np.random.Generator] = None,
    previous_ids: Sequence[int] = (),
) -> int:
    """Sample one token id from a vector of next-token logits."""
    if config.greedy and (config.repetition_penalty == 1.0 or len(previous_ids) == 0):
        # Hot decode path: argmax is invariant under the exact float64
        # widening below, so skip the copy entirely.
        return int(np.argmax(logits))
    logits = np.asarray(logits, dtype=np.float64).ravel()
    logits = apply_repetition_penalty(logits, previous_ids, config.repetition_penalty)
    if config.greedy:
        return int(np.argmax(logits))
    scaled = logits / config.temperature
    if config.top_k is not None and config.top_k < scaled.size:
        cutoff = np.partition(scaled, -config.top_k)[-config.top_k]
        scaled = np.where(scaled < cutoff, -np.inf, scaled)
    scaled = scaled - scaled.max()
    probabilities = np.exp(scaled)
    probabilities /= probabilities.sum()
    generator = as_generator(rng)
    return int(generator.choice(scaled.size, p=probabilities))


def generate_tokens(
    model: TransformerLM,
    prompt_ids: List[int],
    config: GenerationConfig,
    rng: Optional[np.random.Generator] = None,
) -> List[int]:
    """Generate up to ``max_new_tokens`` ids following ``prompt_ids``.

    Decoding stops early when ``stop_token_id`` is produced.  The prompt is
    truncated from the left if it would exceed the model's context window so
    the most recent tokens are always visible.

    The prompt is encoded once and each subsequent step feeds only the newly
    sampled token against the KV cache.  Whenever the visible window no
    longer extends the cached prefix — i.e. the context hit ``max_seq_len``
    and slid left, shifting every absolute position — the cache is rebuilt
    from the truncated window, so the logits match a full forward of the
    visible window at every step.
    """
    if not prompt_ids:
        raise ValueError("prompt_ids must contain at least one token")
    generator = as_generator(rng)
    max_context = model.config.max_seq_len
    generated: List[int] = []
    context = list(prompt_ids)
    was_training = model.training
    if was_training:
        model.eval()
    cache = model.new_kv_cache()
    # The cache is valid iff it holds exactly the tokens of the current
    # window's prefix.  Because the loop itself appends every token it feeds,
    # it suffices to track the window's start offset into ``context``: while
    # the window is anchored at the same start, the cached prefix matches by
    # construction; when the window slides (or on the first step) the absolute
    # positions shift and the cache must be rebuilt.
    cached_start = -1
    try:
        for _ in range(config.max_new_tokens):
            start = len(context) - max_context
            if start < 0:
                start = 0
            if start == cached_start and cache.length == len(context) - start - 1:
                # Steady state: one fused single-token decode step.
                logits_row = model.decode_logits(context[-1], cache)
            else:
                cache.reset()
                token_array = np.asarray(context[start:], dtype=np.int64)[None, :]
                logits_row = model.prefill(token_array, cache)[0]
            cached_start = start
            next_id = sample_next_token(
                logits_row, config, rng=generator, previous_ids=generated
            )
            generated.append(next_id)
            context.append(next_id)
            if config.stop_token_id is not None and next_id == config.stop_token_id:
                break
    finally:
        if was_training:
            model.train()
    return generated


def generate_tokens_batch(
    model: TransformerLM,
    prompts: Sequence[Sequence[int]],
    config: GenerationConfig,
    rng: Optional[np.random.Generator] = None,
    pad_token_id: int = 0,
) -> List[List[int]]:
    """Decode many prompts in one padded batch; returns new ids per prompt.

    Prompts are left-padded to a common length so every row's last real token
    sits in the final column; per-row position ids start at zero on the first
    real token and the padding columns are excluded via the attention mask, so
    each row is conditioned exactly as it would be on its own.  Rows that
    produce ``stop_token_id`` are marked finished (their outputs stop there)
    while the remaining rows keep decoding; the loop exits as soon as every
    row has finished.

    Decoding is KV-cached.  A prime encodes the padded prompts in one
    :meth:`~repro.nn.transformer.TransformerLM.prefill`, which returns only
    the last column's ``(B, vocab)`` logits (left padding puts every row's
    newest token there); every later step runs
    :meth:`~repro.nn.transformer.TransformerLM.decode_step` over the ``B``
    newest tokens with the padding mask built at the prime.  When the padded
    window hits ``max_seq_len`` the batch is re-primed from each row's last
    ``max_seq_len`` tokens (sliding-window truncation), which invalidates and
    rebuilds the cache.
    """
    if not prompts:
        return []
    contexts: List[List[int]] = []
    for index, prompt in enumerate(prompts):
        ids = list(prompt)
        if not ids:
            raise ValueError(f"prompt {index} must contain at least one token")
        contexts.append(ids)

    generator = as_generator(rng)
    max_context = model.config.max_seq_len
    batch = len(contexts)
    generated: List[List[int]] = [[] for _ in range(batch)]
    finished = [False] * batch
    # Greedy decoding is one argmax over the batch (what
    # ``sample_next_token`` returns per row).  With a repetition penalty it
    # runs on the penalized rows: ``seen`` marks each row's generated tokens.
    seen: Optional[np.ndarray] = None
    if config.greedy and config.repetition_penalty != 1.0:
        seen = np.zeros((batch, model.config.vocab_size), dtype=bool)

    was_training = model.training
    if was_training:
        model.eval()
    # Sized to what the decode can reach before a re-prime (the longest
    # window plus every new token), not to max_seq_len: the cache is
    # batch-sized, so the unused tail would be the largest idle buffer.
    longest = max(len(context) for context in contexts)
    cache = KVCache(
        model.config.num_layers,
        capacity=min(max_context, longest + config.max_new_tokens),
    )
    token_ids = np.zeros(batch, dtype=np.int64)  # each row's newest token
    positions: Optional[np.ndarray] = None  # and its absolute position
    padding: Optional[np.ndarray] = None
    try:
        for step in range(config.max_new_tokens):
            if step > 0 and cache.length + 1 <= max_context:
                # Incremental step: feed only the freshly sampled column.
                final_logits = model.decode_step(token_ids, positions, padding, cache)
                positions += 1
            else:
                # Prime (or re-prime after the window slid): encode each
                # row's visible window in one left-padded forward.
                cache.reset()
                windows = [context[-max_context:] for context in contexts]
                width = max(len(window) for window in windows)
                token_array = np.full((batch, width), pad_token_id, dtype=np.int64)
                position_ids = np.zeros((batch, width), dtype=np.int64)
                # True hides a key: each row's left padding.  Built once
                # per prime; every step until the next prime slices it.
                padding = np.zeros((batch, max_context), dtype=bool)
                for row, window in enumerate(windows):
                    pad = width - len(window)
                    token_array[row, pad:] = window
                    position_ids[row, pad:] = np.arange(len(window))
                    padding[row, :pad] = True
                positions = position_ids[:, -1] + 1
                final_logits = model.prefill(
                    token_array,
                    cache,
                    # Unpadded (one row, or equal windows): no mask to apply.
                    attention_mask=~padding[:, :width] if padding.any() else None,
                    position_ids=position_ids,
                )
            if seen is not None:
                final_logits = penalized_rows(final_logits, seen, config.repetition_penalty)
            if config.greedy:
                next_ids = np.argmax(final_logits, axis=1).tolist()
            else:
                next_ids = [
                    sample_next_token(
                        final_logits[row],
                        config,
                        rng=generator,
                        previous_ids=generated[row],
                    )
                    for row in range(batch)
                ]
            token_ids[:] = next_ids
            for row, next_id in enumerate(next_ids):
                contexts[row].append(next_id)
                if not finished[row]:
                    generated[row].append(next_id)
                    if seen is not None:
                        seen[row, next_id] = True
                    if (
                        config.stop_token_id is not None
                        and next_id == config.stop_token_id
                    ):
                        finished[row] = True
            if all(finished):
                break
    finally:
        if was_training:
            model.train()
    return generated
