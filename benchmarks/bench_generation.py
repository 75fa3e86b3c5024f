"""Benchmark G1 — decode throughput of the fast inference path.

Measures tokens/sec for three ways of generating 64-token responses at smoke
scale:

* ``full_forward`` — the seed decoding loop: a full transformer forward over
  the whole context window for every new token, with the autograd tape
  recorded (parameters require grad), exactly as ``generate_tokens`` worked
  before the fast path existed.
* ``kv_cached`` — :func:`repro.llm.generation.generate_tokens`: the
  graph-free array path plus per-layer KV caching, one single-position
  forward per token.
* ``batched`` — :func:`repro.llm.generation.generate_tokens_batch`: the same
  cached decode over a left-padded batch of prompts, amortizing every forward
  across the batch.

The paths run interleaved, round by round, through ``timing.interleave``;
every figure is a median over ``ROUNDS`` rounds (a speedup, the median of
the per-round ratios), recorded with its interquartile range.  The summary
is gated by ``scripts/perf_check.py``, which, like a direct run, writes it
to ``runs/perf/BENCH_generation.json``; the test asserts the ≥5×
KV-over-full speedup the fast path is held to.  Run directly
(``python benchmarks/bench_generation.py``) or through pytest.
"""

from __future__ import annotations

import json
from typing import Dict, List

import numpy as np

from repro.data.lexicons import builtin_lexicons
from repro.data.synthetic import make_corpus
from repro.llm.generation import GenerationConfig, generate_tokens, generate_tokens_batch, sample_next_token
from repro.llm.model import OnDeviceLLM, OnDeviceLLMConfig
from repro.llm.pretrain import PretrainConfig, build_pretrained_llm
from timing import blas_threads, interleave, per_round, summarize, whole_call, write_summary

RESULT_NAME = "BENCH_generation.json"

RESPONSE_TOKENS = 64
BATCH_PROMPTS = 8
ROUNDS = 30

_PROMPTS = (
    "what should i know about dose and vial",
    "my chest hurts and i feel dizzy",
    "tell me about the refill and the pharmacy",
    "how many pills should i take each day",
    "is the injection safe for my shoulder",
    "please explain the prescription dosage",
    "what about the inhaler and the capsule",
    "my knee and ankle ache after walking",
)


def _build_llm() -> OnDeviceLLM:
    lexicons = builtin_lexicons()
    corpus = make_corpus("meddialog", size=60, seed=0, lexicons=lexicons)
    return build_pretrained_llm(
        corpus,
        llm_config=OnDeviceLLMConfig(
            dim=64, num_layers=2, num_heads=4, max_seq_len=96,
            max_vocab_size=2048, seed=0,
        ),
        pretrain_config=PretrainConfig(epochs=2, batch_size=16, seed=0),
    )


def _seed_decode(llm: OnDeviceLLM, prompt_ids: List[int], config: GenerationConfig) -> List[int]:
    """The pre-fast-path decoding loop: full forward per token, tape recorded."""
    model = llm.model
    max_context = model.config.max_seq_len
    generated: List[int] = []
    context = list(prompt_ids)
    model.eval()
    for _ in range(config.max_new_tokens):
        window = context[-max_context:]
        logits = model(np.asarray(window, dtype=np.int64)[None, :])
        next_id = sample_next_token(logits.data[0, -1], config, previous_ids=generated)
        generated.append(next_id)
        context.append(next_id)
    return generated


def run_benchmark(rounds: int = ROUNDS) -> Dict[str, object]:
    """Measure all three decode paths; returns the JSON-ready summary."""
    llm = _build_llm()
    config = GenerationConfig(max_new_tokens=RESPONSE_TOKENS, greedy=True, stop_token_id=None)
    prompts = [llm._prompt_ids_for_question(question) for question in _PROMPTS]

    seconds, rows = interleave(
        {
            "full_forward": whole_call(lambda: [_seed_decode(llm, prompts[0], config)]),
            "kv_cached": whole_call(
                lambda: [generate_tokens(llm.model, prompts[0], config)]
            ),
            "batched": whole_call(
                lambda: generate_tokens_batch(
                    llm.model,
                    prompts[:BATCH_PROMPTS],
                    config,
                    pad_token_id=llm.tokenizer.vocabulary.pad_id,
                )
            ),
        },
        rounds,
    )
    rates = {
        name: [sum(map(len, out)) / s for out, s in zip(rows[name], seconds[name])]
        for name in seconds
    }
    medians, iqrs = summarize(rates)
    speedups, speedup_iqrs = summarize(
        {name: per_round(rates[name], rates["full_forward"]) for name in ("kv_cached", "batched")}
    )
    summary = {
        "benchmark": "generation_decode_throughput",
        "response_tokens": RESPONSE_TOKENS,
        "batch_prompts": BATCH_PROMPTS,
        "repeats": rounds,
        "blas_threads": blas_threads(),
        "model": {
            "dim": llm.config.dim,
            "num_layers": llm.config.num_layers,
            "num_heads": llm.config.num_heads,
            "max_seq_len": llm.config.max_seq_len,
        },
        "tokens_per_sec": medians,
        "tokens_per_sec_iqr": iqrs,
        "speedup_over_full_forward": speedups,
        "speedup_over_full_forward_iqr": speedup_iqrs,
    }
    return summary


def test_generation_throughput():
    """KV-cached decoding must be ≥5× the seed full-forward path."""
    summary = run_benchmark()
    rates = summary["tokens_per_sec"]
    print(
        f"\n[Generation] tokens/sec — full {rates['full_forward']}, "
        f"kv-cached {rates['kv_cached']}, batched {rates['batched']}"
    )
    assert summary["speedup_over_full_forward"]["kv_cached"] >= 5.0
    assert rates["batched"] > rates["kv_cached"]


if __name__ == "__main__":
    result = run_benchmark()
    write_summary(result, RESULT_NAME)
    print(json.dumps(result, indent=2))
