"""Benchmark T1 — training-step wall time of the fused-kernel backend.

Measures seconds per optimization step for the two training loops the
framework runs on-device, at smoke scale:

* ``finetune_step`` — one LoRA fine-tuning step (batch 16) through the live
  code path, ``repro.llm.finetune.train_batch`` (the step both trainers run):
  the graph-free taped forward/backward with masked cross-entropy, gradient
  clipping and an Adam step (the paper's AdamW at weight decay 0) over the
  adapter parameters.
* ``pretrain_epoch`` — one full pre-training epoch (all parameters trainable,
  Adam, the same ``train_batch``) over a fixed set of dialogue-format batches.

Each measurement is taken twice: once through the *live* code path (the fused
``repro.nn.backend`` kernels) and once through an in-file **legacy** replica
of the pre-backend composition — chained ``Tensor`` micro-ops, generic-power
GELU, allocating AdamW/Adam steps and the ``astype(float64)`` grad-norm
reduction — frozen here so the fused-over-legacy speedup stays measurable on
any machine, the same pattern ``bench_generation.py`` uses for its seed
decode loop.

Fused and legacy passes run in interleaved rounds (``timing.interleave``),
each on its own copy of the model: the packed optimizer would copy the
legacy step's rebound ``.data`` back in at every fused step.  Figures are
medians with IQRs; a speedup is the median of the per-round ratios.  The
summary is gated by ``scripts/perf_check.py --training``, which, like a
direct run, writes it to ``runs/perf/BENCH_training.json``.  The committed
``BENCH_training_baseline.json`` holds the pre-refactor absolute seconds; the
perf gate requires the live path to beat it by the promised factors.

Run directly (``python benchmarks/bench_training.py``).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from bench_generation import _build_llm
from repro.llm.finetune import (
    IGNORE_INDEX,
    build_training_example,
    collate_batch,
    encode_pair_example,
    train_batch,
)
from repro.llm.model import OnDeviceLLM
from repro.llm.pretrain import pretraining_pairs
from repro.nn.functional import attention_scores_mask
from repro.nn.lora import LoRAConfig, LoRALinear, lora_parameters
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from timing import blas_threads, interleave, per_round, summarize, whole_call, write_summary

RESULT_NAME = "BENCH_training.json"

FINETUNE_BATCH = 16
FINETUNE_EXAMPLES = 32
FINETUNE_STEPS = 8
PRETRAIN_BATCH = 32
PRETRAIN_PAIRS = 64
ROUNDS = 9

_GELU_C = float(np.sqrt(2.0 / np.pi))
# The rate of the embedding, attention and FFN dropouts the model had when
# this replica was frozen (every caller left it at 0): the replica still
# makes those calls, so it does the same work as then.
_MODEL_DROPOUT_RATE = 0.0


# --------------------------------------------------------------------------- #
# Legacy reference path: a frozen copy of the pre-backend training
# composition.  Every helper builds the autograd graph from chained Tensor
# micro-ops exactly as the code did before the fused kernels existed, so the
# fused/legacy ratio is a machine-independent measure of the refactor.
# --------------------------------------------------------------------------- #
def _legacy_linear(layer, x: Tensor) -> Tensor:
    out = x.matmul(layer.weight.transpose(1, 0))
    if layer.bias is not None:
        out = out + layer.bias
    return out


def _legacy_dropout(x: Tensor, rate: float, rng, training: bool) -> Tensor:
    if not training or rate == 0.0:
        return x
    keep_prob = 1.0 - rate
    mask = (rng.random(x.data.shape) < keep_prob).astype(x.data.dtype) / keep_prob
    out_data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._make(out_data, (x,), backward)


def _legacy_proj(layer, x: Tensor) -> Tensor:
    if isinstance(layer, LoRALinear):
        base_out = _legacy_linear(layer.base, x)
        dropped = _legacy_dropout(
            x, layer.lora_dropout.rate, layer.lora_dropout._rng, layer.training
        )
        adapted = dropped.matmul(layer.lora_a.transpose(1, 0))
        adapted = adapted.matmul(layer.lora_b.transpose(1, 0))
        return base_out + adapted * layer.config.scaling
    return _legacy_linear(layer, x)


def _legacy_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (x,), backward)


def _legacy_layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float) -> Tensor:
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normalized = (x.data - mean) * inv_std
    out_data = normalized * weight.data + bias.data

    def backward(grad: np.ndarray) -> None:
        dim = x.data.shape[-1]
        if weight.requires_grad:
            weight._accumulate((grad * normalized).reshape(-1, dim).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(grad.reshape(-1, dim).sum(axis=0))
        if x.requires_grad:
            grad_norm = grad * weight.data
            grad_mean = grad_norm.mean(axis=-1, keepdims=True)
            grad_dot = (grad_norm * normalized).mean(axis=-1, keepdims=True)
            x._accumulate(inv_std * (grad_norm - grad_mean - normalized * grad_dot))

    return Tensor._make(out_data, (x, weight, bias), backward)


def _legacy_gelu(x: Tensor) -> Tensor:
    data_in = x.data
    inner = _GELU_C * (data_in + 0.044715 * data_in**3)
    t = np.tanh(inner)
    data = 0.5 * data_in * (1.0 + t)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            dt = (1.0 - t**2) * _GELU_C * (1.0 + 3 * 0.044715 * data_in**2)
            local = 0.5 * (1.0 + t) + 0.5 * data_in * dt
            x._accumulate(grad * local)

    return Tensor._make(data, (x,), backward)


def _legacy_cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int) -> Tensor:
    targets = np.asarray(targets, dtype=np.int64)
    vocab = logits.data.shape[-1]
    flat_logits = logits.data.reshape(-1, vocab)
    flat_targets = targets.reshape(-1)
    valid = flat_targets != ignore_index
    valid_count = int(valid.sum())

    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - logsumexp
    safe_targets = np.where(valid, flat_targets, 0)
    picked = log_probs[np.arange(flat_targets.size), safe_targets]
    loss_value = -(picked * valid).sum() / valid_count

    def backward(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        probs = np.exp(log_probs)
        grad_flat = probs
        grad_flat[np.arange(flat_targets.size), safe_targets] -= 1.0
        grad_flat *= valid[:, None]
        grad_flat *= float(grad) / valid_count
        logits._accumulate(grad_flat.reshape(logits.data.shape))

    return Tensor._make(np.asarray(loss_value, dtype=logits.data.dtype), (logits,), backward)


def _legacy_attention(attn, x: Tensor, attention_mask: Optional[np.ndarray]) -> Tensor:
    batch, seq, _ = x.shape
    heads, head_dim = attn.num_heads, attn.head_dim
    queries = _legacy_proj(attn.q_proj, x).reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)
    keys = _legacy_proj(attn.k_proj, x).reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)
    values = _legacy_proj(attn.v_proj, x).reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)

    scale = 1.0 / np.sqrt(head_dim)
    scores = queries.matmul(keys.transpose(0, 1, 3, 2)) * scale

    causal = attention_scores_mask(seq)
    mask = np.broadcast_to(causal, (batch, heads, seq, seq)).copy()
    if attention_mask is not None:
        padding = ~np.asarray(attention_mask, dtype=bool)
        mask |= padding[:, None, None, :]
        diag = np.eye(seq, seq, dtype=bool)[None, None, :, :]
        mask &= ~diag

    scores = scores.masked_fill(mask, -1e9)
    weights = _legacy_softmax(scores, axis=-1)
    weights = _legacy_dropout(weights, _MODEL_DROPOUT_RATE, None, attn.training)
    context = weights.matmul(values)
    merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, attn.dim)
    return _legacy_proj(attn.o_proj, merged)


def _legacy_forward(model, token_ids: np.ndarray, attention_mask: np.ndarray) -> Tensor:
    batch, seq = token_ids.shape
    positions = np.broadcast_to(np.arange(seq, dtype=np.int64), (batch, seq))
    hidden = model.token_embedding.weight.take_rows(token_ids) + (
        model.position_embedding.weight.take_rows(positions)
    )
    hidden = _legacy_dropout(hidden, _MODEL_DROPOUT_RATE, None, model.training)
    for block in model.blocks:
        normed = _legacy_layer_norm(hidden, block.ln_attn.weight, block.ln_attn.bias, block.ln_attn.eps)
        hidden = hidden + _legacy_attention(block.attention, normed, attention_mask)
        normed = _legacy_layer_norm(hidden, block.ln_ffn.weight, block.ln_ffn.bias, block.ln_ffn.eps)
        up = _legacy_gelu(_legacy_linear(block.ffn.up, normed))
        down = _legacy_linear(block.ffn.down, up)
        down = _legacy_dropout(down, _MODEL_DROPOUT_RATE, None, block.ffn.training)
        hidden = hidden + down
    hidden = _legacy_layer_norm(hidden, model.ln_final.weight, model.ln_final.bias, model.ln_final.eps)
    return hidden.matmul(model.token_embedding.weight.transpose(1, 0))


def _legacy_clip_grad_norm(parameters: Sequence[Tensor], max_norm: float) -> float:
    total = 0.0
    grads = [p.grad for p in parameters if p.grad is not None]
    for grad in grads:
        total += float(np.sum(grad.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for grad in grads:
            grad *= scale
    return norm


class _LegacyAdamW:
    """The pre-backend AdamW step: fresh temporaries on every update."""

    def __init__(self, parameters, lr=3e-4, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.parameters = list(parameters)
        self.lr, self.eps, self.weight_decay = lr, eps, weight_decay
        self.beta1, self.beta2 = betas
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._step_count = 0

    def step(self):
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for parameter, m, v in zip(self.parameters, self._m, self._v):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * parameter.data
            parameter.data = parameter.data - self.lr * update


def _legacy_step(model, optimizer: _LegacyAdamW, batch) -> None:
    """One pre-backend training step: graph forward, backward, clip, update."""
    token_ids, labels, mask = batch
    model.zero_grad()
    loss = _legacy_cross_entropy(_legacy_forward(model, token_ids, mask), labels, IGNORE_INDEX)
    loss.backward()
    _legacy_clip_grad_norm(optimizer.parameters, 1.0)
    optimizer.step()


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
def _finetune_batches(llm: OnDeviceLLM) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Precollated deterministic fine-tuning batches (shared by both paths)."""
    from repro.data.lexicons import builtin_lexicons
    from repro.data.synthetic import make_corpus

    corpus = make_corpus("meddialog", size=60, seed=0, lexicons=builtin_lexicons())
    examples = []
    for dialogue in corpus:
        ids, labels = build_training_example(llm, dialogue)
        if any(label != IGNORE_INDEX for label in labels):
            examples.append((ids, labels))
        if len(examples) >= FINETUNE_EXAMPLES:
            break
    batches = [
        collate_batch(llm, examples[start : start + FINETUNE_BATCH])
        for start in range(0, len(examples), FINETUNE_BATCH)
    ]
    return [batches[i % len(batches)] for i in range(FINETUNE_STEPS)]


def _pretrain_batches(llm: OnDeviceLLM) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Precollated dialogue-format pre-training batches (one epoch's worth)."""
    from repro.data.lexicons import builtin_lexicons
    from repro.data.synthetic import make_corpus

    corpus = make_corpus("meddialog", size=60, seed=0, lexicons=builtin_lexicons())
    pairs = pretraining_pairs(corpus, rng=0)[:PRETRAIN_PAIRS]
    examples = [encode_pair_example(llm, question, response) for question, response in pairs]
    examples = [
        (ids, labels)
        for ids, labels in examples
        if len(ids) >= 2 and any(label != IGNORE_INDEX for label in labels)
    ]
    return [
        collate_batch(llm, examples[start : start + PRETRAIN_BATCH])
        for start in range(0, len(examples), PRETRAIN_BATCH)
    ]


def _pass_seconds(fused, legacy, batches, rounds: int) -> Dict[str, list]:
    """Seconds of one pass over ``batches`` per path, interleaved by round.

    ``fused`` and ``legacy`` are ``(model, optimizer)`` pairs.
    """

    def run_pass(step, model, optimizer):
        return whole_call(lambda: [step(model, optimizer, batch) for batch in batches])

    def fused_step(model, optimizer, batch):
        train_batch(model, optimizer, batch)

    seconds, _ = interleave(
        {"fused": run_pass(fused_step, *fused), "legacy": run_pass(_legacy_step, *legacy)},
        rounds,
    )
    return seconds


# --------------------------------------------------------------------------- #
def run_benchmark(rounds: int = ROUNDS) -> Dict[str, object]:
    """Measure fused and legacy training-step times; returns the summary."""
    llm = _build_llm()

    # --- pretrain epoch (all parameters trainable) before LoRA injection --- #
    pretrain_batches = _pretrain_batches(llm)
    legacy_llm = llm.clone()
    for model in (llm.model, legacy_llm.model):
        model.train()
    pretrain = _pass_seconds(
        (llm.model, Adam(llm.model.parameters(), lr=3e-3)),
        (legacy_llm.model, _LegacyAdamW(legacy_llm.model.parameters(), lr=3e-3)),
        pretrain_batches,
        rounds,
    )

    # --- LoRA fine-tune step ---------------------------------------------- #
    llm.add_lora(LoRAConfig())
    legacy_llm = llm.clone()
    for model in (llm.model, legacy_llm.model):
        model.train()
    finetune_batches = _finetune_batches(llm)
    finetune = _pass_seconds(
        (llm.model, Adam(lora_parameters(llm.model), lr=3e-4)),
        (
            legacy_llm.model,
            _LegacyAdamW(lora_parameters(legacy_llm.model), lr=3e-4, weight_decay=0.0),
        ),
        finetune_batches,
        rounds,
    )
    llm.model.eval()

    steps = len(finetune_batches)
    fused_s, legacy_s = (
        {"finetune_step": [s / steps for s in finetune[path]], "pretrain_epoch": pretrain[path]}
        for path in ("fused", "legacy")
    )
    fused, fused_iqrs = summarize(fused_s, 6)
    legacy, legacy_iqrs = summarize(legacy_s, 6)
    speedups, speedup_iqrs = summarize(
        {key: per_round(legacy_s[key], fused_s[key]) for key in fused_s}
    )
    summary = {
        "benchmark": "training_step_time",
        "repeats": rounds,
        "blas_threads": blas_threads(),
        "model": {
            "dim": llm.config.dim,
            "num_layers": llm.config.num_layers,
            "num_heads": llm.config.num_heads,
            "max_seq_len": llm.config.max_seq_len,
        },
        "workload": {
            "finetune_batch": FINETUNE_BATCH,
            "finetune_steps": FINETUNE_STEPS,
            "pretrain_batch": PRETRAIN_BATCH,
            "pretrain_pairs": PRETRAIN_PAIRS,
        },
        "seconds": fused,
        "seconds_iqr": fused_iqrs,
        "legacy_seconds": legacy,
        "legacy_seconds_iqr": legacy_iqrs,
        "speedup_over_legacy": speedups,
        "speedup_over_legacy_iqr": speedup_iqrs,
    }
    return summary


if __name__ == "__main__":
    result = run_benchmark()
    write_summary(result, RESULT_NAME)
    print(json.dumps(result, indent=2))
