"""Autoregressive text generation for the on-device LLM.

The paper generates evaluation responses with temperature sampling
(``τ = 0.5``); the same mechanism (plus optional top-k truncation and greedy
decoding) is implemented here over the numpy transformer.

Decoding runs on the array-level inference path (no autograd graph).  A
prime goes through :meth:`~repro.nn.transformer.TransformerLM.prefill`, which
fills a per-layer KV cache and carries only each row's last position through
the top of the model (``ln_final`` and the head tied to the token
embedding), so each new token then costs one single-position forward
instead of a full re-encode of the context window.  Because attention
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
from itertools import chain
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
    greedy: bool = False
    stop_token_id: Optional[int] = None
    repetition_penalty: float = 1.0

    def __post_init__(self) -> None:
        require_positive("max_new_tokens", self.max_new_tokens)
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
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
    the most recent tokens are always visible.  It is
    :func:`generate_tokens_batch` over one row: the prompt is encoded once,
    each later step feeds only the newly sampled token against the KV cache,
    and the cache is rebuilt from the truncated window whenever the context
    slides past ``max_seq_len``.
    """
    if not prompt_ids:
        raise ValueError("prompt_ids must contain at least one token")
    return generate_tokens_batch(model, [prompt_ids], config, rng=rng)[0]


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
    prompts = [list(prompt) for prompt in prompts]
    for index, prompt in enumerate(prompts):
        if not prompt:
            raise ValueError(f"prompt {index} must contain at least one token")

    generator = as_generator(rng)
    max_context = model.config.max_seq_len
    batch = len(prompts)
    # tokens[:, step] is every row's sampled id at ``step``, finished rows
    # included: they keep decoding (their windows stay in step), but a row's
    # output is its first counts[row] ids, through its first stop token.
    tokens = np.zeros((batch, config.max_new_tokens), dtype=np.int64)
    counts = np.zeros(batch, dtype=np.int64)
    finished = np.zeros(batch, dtype=bool)
    rows = np.arange(batch)
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
    longest = max(len(prompt) for prompt in prompts)
    cache = KVCache(
        model.config.num_layers,
        capacity=min(max_context, longest + config.max_new_tokens),
    )
    next_ids: Optional[np.ndarray] = None  # each row's newest token
    positions: Optional[np.ndarray] = None  # and its absolute position
    padding: Optional[np.ndarray] = None
    try:
        for step in range(config.max_new_tokens):
            if step > 0 and cache.length + 1 <= max_context:
                # Incremental step: feed only the freshly sampled column.
                final_logits = model.decode_step(next_ids, positions, padding, cache)
                positions += 1
            else:
                # Prime (or re-prime after the window slid): encode each
                # row's visible window in one left-padded forward.
                cache.reset()
                windows = [
                    (prompt + generated)[-max_context:]
                    for prompt, generated in zip(prompts, tokens[:, :step].tolist())
                ]
                lengths = np.array([len(window) for window in windows])
                width = int(lengths.max())
                # Each slot's position in its row's window; negative on the left padding.
                offsets = np.arange(width) - (width - lengths)[:, None]
                real = offsets >= 0
                token_array = np.full((batch, width), pad_token_id, dtype=np.int64)
                token_array[real] = list(chain.from_iterable(windows))
                position_ids = np.where(real, offsets, 0)
                # True hides a key: each row's left padding.  Built once
                # per prime; every step until the next prime slices it.
                padding = np.zeros((batch, max_context), dtype=bool)
                padding[:, :width] = ~real
                positions = position_ids[:, -1] + 1
                final_logits = model.prefill(
                    token_array,
                    cache,
                    # Unpadded (one row, or equal windows): no mask to apply.
                    attention_mask=None if real.all() else real,
                    position_ids=position_ids,
                )
            if seen is not None:
                final_logits = penalized_rows(final_logits, seen, config.repetition_penalty)
            if config.greedy:
                next_ids = np.argmax(final_logits, axis=1)
            else:
                # Row order: the RNG draws stay in the order of a per-row loop.
                next_ids = np.array(
                    [
                        sample_next_token(
                            final_logits[row],
                            config,
                            rng=generator,
                            previous_ids=tokens[row, : counts[row]],
                        )
                        for row in range(batch)
                    ],
                    dtype=np.int64,
                )
            tokens[:, step] = next_ids
            if seen is not None:
                # A finished row's marks only steer tokens no output keeps.
                seen[rows, next_ids] = True
            counts += ~finished
            if config.stop_token_id is not None:
                finished |= next_ids == config.stop_token_id
                if finished.all():
                    break
    finally:
        if was_training:
            model.train()
    return [row[:count] for row, count in zip(tokens.tolist(), counts.tolist())]
