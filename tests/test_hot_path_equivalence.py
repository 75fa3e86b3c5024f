"""The fine-tune and evaluation hot paths against in-test references.

``tests/test_train_step.py`` pins the training step's loss and gradients,
but nothing there covers what happens around it: the optimizer update,
gradient clipping, batch collation, mode switches and greedy decoding's
repetition penalty.  Each of those has a faster form in the library; each
is compared here, byte for byte, with the straightforward form it
replaced:

* the packed :class:`~repro.nn.optim.Adam` step (and its clipping)
  against one backend ``adamw_step`` per parameter, with a parameter
  without a gradient and a reassigned ``.data``;
* :func:`~repro.llm.finetune.collate_round` slices against
  :func:`~repro.llm.finetune.collate_batch` of the same rows;
* :func:`~repro.llm.generation.generate_tokens_batch`'s vectorised greedy
  penalty against a per-row :func:`~repro.llm.generation.sample_next_token`
  loop, with finished rows and empty histories;
* the cached module list behind ``train()`` / ``eval()`` after
  ``inject_lora``;
* the LayerNorm VJP's means against ``ndarray.mean``.
"""

import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.finetune import collate_batch, collate_round
from repro.llm.generation import (
    GenerationConfig,
    apply_repetition_penalty,
    generate_tokens_batch,
    penalized_rows,
    sample_next_token,
)
from repro.nn.backend import numpy_backend
from repro.nn.lora import LoRAConfig, inject_lora, lora_layers
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor
from repro.nn.transformer import IGNORE_INDEX, TransformerConfig, TransformerLM

# Sizes chosen so most segments need padding to the 64-byte boundary.
SHAPES = [(3, 5), (7,), (4, 4), (2, 3, 3), (1,), (16,)]


def _bytes(arrays):
    return [np.ascontiguousarray(array).tobytes() for array in arrays]


class ReferenceAdam:
    """The per-parameter update: one backend ``adamw_step`` per gradient."""

    def __init__(self, parameters, lr, betas=(0.9, 0.999), eps=1e-8):
        self.parameters = parameters
        self.lr, self.eps = lr, eps
        self.beta1, self.beta2 = betas
        self.m = [np.zeros_like(p.data) for p in parameters]
        self.v = [np.zeros_like(p.data) for p in parameters]
        self.steps = 0

    def step(self):
        self.steps += 1
        bias1 = 1.0 - self.beta1**self.steps
        bias2 = 1.0 - self.beta2**self.steps
        for parameter, m, v in zip(self.parameters, self.m, self.v):
            if parameter.grad is None:
                continue
            numpy_backend.adamw_step(
                parameter.data, parameter.grad, m, v,
                np.empty_like(m), np.empty_like(m),
                self.lr, self.beta1, self.beta2, self.eps, bias1, bias2,
            )


def _parameters(seed):
    rng = np.random.default_rng(seed)
    return [
        Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        for shape in SHAPES
    ]


def _grads(rng, step, skip):
    """Fresh float32 gradients; parameter ``skip`` gets none on odd steps."""
    grads = []
    for index, shape in enumerate(SHAPES):
        if index == skip and step % 2 == 1:
            grads.append(None)
        else:
            grads.append((rng.standard_normal(shape) * 3.0).astype(np.float32))
    return grads


class TestPackedAdam:
    @pytest.mark.parametrize("max_norm", [None, 0.5, 1e6])
    def test_matches_per_parameter_steps(self, max_norm):
        steps, skip = 7, 2
        reference = _parameters(0)
        ref_opt = ReferenceAdam(reference, lr=0.01)
        packed = _parameters(0)
        opt = Adam(packed, lr=0.01)
        rng = np.random.default_rng(1)
        for step in range(steps):
            grads = _grads(rng, step, skip)
            for ref, new, grad in zip(reference, packed, grads):
                ref.grad = None if grad is None else grad.copy()
                new.grad = None if grad is None else grad.copy()
            if max_norm is not None:
                ref_norm = clip_grad_norm(reference, max_norm)
                assert opt.clip_grad_norm(max_norm) == ref_norm
                assert _bytes(p.grad for p in packed if p.grad is not None) == _bytes(
                    p.grad for p in reference if p.grad is not None
                )
            ref_opt.step()
            opt.step()
            assert _bytes(p.data for p in packed) == _bytes(p.data for p in reference)
        assert _bytes(opt._m) == _bytes(ref_opt.m)
        assert _bytes(opt._v) == _bytes(ref_opt.v)

    def test_parameter_without_gradient_is_untouched(self):
        parameters = _parameters(3)
        opt = Adam(parameters, lr=0.1)
        before = parameters[1].data.copy()
        for parameter in parameters:
            parameter.grad = np.ones_like(parameter.data)
        parameters[1].grad = None
        opt.step()
        assert parameters[1].data.tobytes() == before.tobytes()
        assert not opt._m[1].any()
        assert opt._m[0].all()

    def test_reassigned_data_is_picked_up(self):
        reference, packed = _parameters(4), _parameters(4)
        ref_opt = ReferenceAdam(reference, lr=0.1)
        opt = Adam(packed, lr=0.1)
        rng = np.random.default_rng(5)
        for step in range(3):
            if step == 1:
                fresh = rng.standard_normal(SHAPES[0]).astype(np.float32)
                reference[0].data = fresh.copy()
                packed[0].data = fresh.copy()
            for ref, new, grad in zip(reference, packed, _grads(rng, step, skip=-1)):
                ref.grad, new.grad = grad.copy(), grad.copy()
            ref_opt.step()
            opt.step()
        assert _bytes(p.data for p in packed) == _bytes(p.data for p in reference)

    def test_parameters_share_one_contiguous_buffer(self):
        parameters = _parameters(6)
        originals = [p.data for p in parameters]
        opt = Adam(parameters, lr=0.1)
        # Nothing is packed until first use.
        assert all(p.data is original for p, original in zip(parameters, originals))
        opt.step()
        bases = {id(p.data.base) for p in parameters}
        assert len(bases) == 1
        for parameter in parameters:
            assert parameter.data.ctypes.data % 64 == 0
            assert parameter.data.flags["C_CONTIGUOUS"]

    def test_duplicate_parameter_rejected(self):
        parameter = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="more than once"):
            Adam([parameter, parameter], lr=0.1)

    def test_mixed_dtypes_rejected(self):
        first = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        second = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        second.data = second.data.astype(np.float64)
        with pytest.raises(ValueError, match="dtype"):
            Adam([first, second], lr=0.1)


@st.composite
def rounds(draw):
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=10))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    examples = []
    for length in lengths:
        ids = rng.integers(1, 50, size=length).tolist()
        labels = [
            IGNORE_INDEX if rng.random() < 0.3 else int(label)
            for label in rng.integers(1, 50, size=length)
        ]
        examples.append((ids, labels))
    order = rng.permutation(len(examples))
    batch_size = draw(st.integers(1, len(examples)))
    return examples, order, batch_size


class TestCollateRound:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rounds())
    def test_slices_equal_collate_batch(self, case):
        examples, order, batch_size = case
        llm = SimpleNamespace(tokenizer=SimpleNamespace(vocabulary=SimpleNamespace(pad_id=0)))
        take = collate_round(llm, examples)
        for start in range(0, len(examples), batch_size):
            rows = order[start : start + batch_size]
            expected = collate_batch(llm, [examples[int(i)] for i in rows])
            for got, want in zip(take(rows), expected):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.flags["C_CONTIGUOUS"]
                assert got.tobytes() == want.tobytes()


class RandomLogitsModel:
    """Stands in for a TransformerLM: every prime and step returns fresh random logits."""

    def __init__(self, vocab, seed, stop_id):
        self.config = SimpleNamespace(max_seq_len=64, num_layers=1, vocab_size=vocab)
        self.training = False
        self._rng = np.random.default_rng(seed)
        self.stop_id = stop_id
        self.emitted = []

    def _logits(self, batch):
        logits = self._rng.standard_normal((batch, self.config.vocab_size)).astype(np.float32)
        # Near-ties and sign changes make the penalty decide many argmaxes;
        # a boosted stop token finishes rows at different steps.
        logits[:, : self.config.vocab_size // 2] *= 0.05
        logits[:, self.stop_id] += 1.2
        self.emitted.append(logits)
        return logits

    @staticmethod
    def _encode(kv_cache, batch, positions):
        empty = np.zeros((batch, 1, positions, 1), dtype=np.float32)
        kv_cache.layers[0].extend(empty, empty)

    def prefill(self, token_array, kv_cache, attention_mask, position_ids):
        self._encode(kv_cache, *token_array.shape)
        return self._logits(token_array.shape[0])

    def decode_step(self, token_ids, positions, padding, kv_cache):
        self._encode(kv_cache, len(token_ids), 1)
        return self._logits(len(token_ids))


def _reference_decode(emitted, config):
    """The per-row ``sample_next_token`` loop over the logits a run saw."""
    batch = emitted[0].shape[0]
    generated = [[] for _ in range(batch)]
    finished = [False] * batch
    for logits in emitted:
        next_ids = [
            sample_next_token(logits[row], config, previous_ids=generated[row])
            for row in range(batch)
        ]
        for row, next_id in enumerate(next_ids):
            if not finished[row]:
                generated[row].append(next_id)
                finished[row] = next_id == config.stop_token_id
    return generated


class TestGreedyPenalty:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        batch=st.integers(1, 6),
        vocab=st.integers(3, 40),
        penalty=st.sampled_from([1.0, 1.3, 2.0]),
        seed=st.integers(0, 2**16),
    )
    def test_batch_decode_matches_per_row_loop(self, batch, vocab, penalty, seed):
        config = GenerationConfig(
            max_new_tokens=12, greedy=True, repetition_penalty=penalty, stop_token_id=1
        )
        model = RandomLogitsModel(vocab, seed, stop_id=1)
        got = generate_tokens_batch(model, [[2]] * batch, config)
        assert got == _reference_decode(model.emitted, config)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        batch=st.integers(1, 5),
        vocab=st.integers(1, 30),
        seed=st.integers(0, 2**16),
        penalty=st.sampled_from([1.1, 1.3, 3.0]),
    )
    def test_penalized_rows_match_per_row_rule(self, batch, vocab, seed, penalty):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((batch, vocab)).astype(np.float32)
        histories = [rng.integers(0, vocab, size=rng.integers(0, 5)).tolist() for _ in range(batch)]
        seen = np.zeros((batch, vocab), dtype=bool)
        for row, history in enumerate(histories):
            seen[row, history] = True
        got = penalized_rows(logits, seen, penalty)
        for row, history in enumerate(histories):
            want = apply_repetition_penalty(logits[row].astype(np.float64), history, penalty)
            assert got[row].tobytes() == want.tobytes()


class TestCachedModuleList:
    def _model(self):
        config = TransformerConfig(vocab_size=20, max_seq_len=8, dim=8, num_layers=2, num_heads=2)
        return TransformerLM(config, rng=0)

    def _modes(self, model):
        return {module.training for module in model.modules()}

    def test_mode_switches_reach_injected_modules(self):
        model = self._model()
        model.eval()  # builds the cached list before the tree changes
        adapters = inject_lora(model, LoRAConfig(rank=2))
        assert lora_layers(model) == adapters
        model.train()
        assert self._modes(model) == {True}
        model.eval()
        assert self._modes(model) == {False}

    def test_cache_keeps_no_reference_cycle(self):
        model = self._model()
        model.eval()
        inject_lora(model, LoRAConfig(rank=2))
        model.train()
        dropped = weakref.ref(model)
        gc.disable()
        try:
            del model
            assert dropped() is None
        finally:
            gc.enable()

    def test_cached_lists_match_a_fresh_walk(self):
        model = self._model()
        model.module_list(), model.parameter_list()
        inject_lora(model, LoRAConfig(rank=2))
        assert model.module_list() == list(model.modules())
        assert [id(p) for p in model.parameter_list()] == [id(p) for p in model.parameters()]
        block = model.blocks[0]
        assert [id(p) for p in block.parameter_list()] == [id(p) for p in block.parameters()]


class TestLayerNormVJP:
    @pytest.mark.parametrize("shape", [(1, 1, 5), (3, 7, 32), (16, 23, 32), (4, 64)])
    def test_means_equal_ndarray_mean(self, shape):
        rng = np.random.default_rng(len(shape) * 7 + shape[-1])
        x = (rng.standard_normal(shape) * 3).astype(np.float32)
        weight = rng.standard_normal(shape[-1]).astype(np.float32)
        bias = rng.standard_normal(shape[-1]).astype(np.float32)
        grad = rng.standard_normal(shape).astype(np.float32)
        _, residuals = numpy_backend.layernorm(x, weight, bias)
        grad_x, _, _ = numpy_backend.layernorm_vjp(residuals, grad, (True, False, False))
        normalized, inv_std, _ = residuals
        grad_norm = grad * weight
        want = grad_norm - grad_norm.mean(axis=-1, keepdims=True)
        want -= normalized * (grad_norm * normalized).mean(axis=-1, keepdims=True)
        want *= inv_std
        assert grad_x.tobytes() == want.tobytes()


def test_clip_norm_is_finite_sqrt_of_partials():
    parameters = _parameters(8)
    for parameter in parameters:
        parameter.grad = np.full_like(parameter.data, 2.0)
    norm = Adam(parameters, lr=0.1).clip_grad_norm(1e9)
    assert norm == math.sqrt(sum(4.0 * p.data.size for p in parameters))
