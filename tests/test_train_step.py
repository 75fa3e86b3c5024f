"""The graph-free training step against its autograd reference.

:meth:`TransformerLM.train_step` runs the taped array-level forward and a
handwritten reverse sweep.  The autograd path — ``forward`` with grad
enabled, ``cross_entropy(...)`` and ``backward()`` — is the reference:

* under the same RNG state, the step's loss and every gradient must equal
  the reference to float rounding, and both must draw the same LoRA
  dropout masks, for LoRA-only and all-weights training, over random tiny
  configurations (hypothesis).  The step runs its GEMMs on packed row
  subsets, which round differently from the reference's full-window GEMMs,
  so bit identity cannot hold;
* what the loss cannot read does not move a bit: padding token ids and the
  tokens after each row's last label;
* the loss and every gradient have the same bits at 1 and 2 OpenBLAS
  threads;
* a finite-difference check pins the step's gradients on their own;
* the production training loops (``LoRAFineTuner.finetune`` and
  ``pretrain``) and the inference entry points (``respond_batch``,
  ``embed_batch``, ``hidden_states``) must not build a single Tensor graph
  node.
"""

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.llm.finetune import FineTuneConfig, LoRAFineTuner
from repro.llm.generation import GenerationConfig
from repro.llm.pretrain import PretrainConfig, pretrain, pretraining_pairs
from repro.nn.functional import cross_entropy
from repro.nn.layers import Dropout
from repro.nn.lora import LoRAConfig, inject_lora, lora_layers
from repro.nn.tensor import Tensor
from repro.nn.transformer import IGNORE_INDEX, TransformerConfig, TransformerLM
from repro.utils.rng import get_generator_state, set_generator_state

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"
SETTINGS = settings(max_examples=40, deadline=None)
# Equal to autograd: |step - reference| <= RTOL * (the largest reference
# gradient of the model) + ATOL.  Scaling by the largest gradient covers the
# mathematically zero ones (k_proj.bias: softmax is shift-invariant), which
# hold only rounding noise.  ATOL covers dim-2 models: a two-feature
# LayerNorm's input gradient is exactly zero, so everything below it is
# noise (up to 3.4e-6 measured; dim > 2 stays within 2.1e-5 * the scale).
RTOL, ATOL, LOSS_RTOL = 2e-4, 2e-5, 1e-5
# The tolerances of test_gradcheck.gradcheck_tensor (float32 central differences).
FD_EPS, FD_ATOL, FD_RTOL = 1e-2, 5e-2, 5e-2


@dataclass(frozen=True)
class Case:
    """One random tiny model and batch."""

    num_layers: int
    num_heads: int
    head_dim: int
    batch: int
    seq: int
    single_label: bool
    seed: int


@st.composite
def cases(draw):
    return Case(
        num_layers=draw(st.integers(1, 3)),
        num_heads=draw(st.integers(1, 2)),
        head_dim=draw(st.sampled_from([2, 4])),
        batch=draw(st.integers(1, 4)),
        seq=draw(st.integers(1, 10)),
        single_label=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


def _model(case: Case, lora: bool, training: bool = True) -> TransformerLM:
    config = TransformerConfig(
        vocab_size=11,
        max_seq_len=12,
        dim=case.num_heads * case.head_dim,
        num_layers=case.num_layers,
        num_heads=case.num_heads,
        ffn_multiplier=2,
    )
    model = TransformerLM(config, rng=case.seed)
    if lora:
        inject_lora(model, LoRAConfig(rank=2, alpha=4.0, dropout_rate=0.3), rng=case.seed + 1)
        # B starts at zero, which would make every A gradient zero.
        rng = np.random.default_rng(case.seed + 2)
        for layer in lora_layers(model):
            layer.lora_b.data = (rng.standard_normal(layer.lora_b.data.shape) * 0.2).astype(
                np.float32
            )
    return model.train() if training else model.eval()


def _batch(case: Case):
    """Ragged right-padded token ids, mask and labels (at least one label)."""
    rng = np.random.default_rng(case.seed + 3)
    token_ids = rng.integers(0, 11, size=(case.batch, case.seq))
    lengths = rng.integers(1, case.seq + 1, size=case.batch)
    lengths[rng.integers(case.batch)] = case.seq
    mask = np.arange(case.seq)[None, :] < lengths[:, None]
    labels = rng.integers(0, 11, size=mask.shape)
    labels[(rng.random(mask.shape) >= 0.6) | ~mask] = IGNORE_INDEX
    if case.single_label or not (labels != IGNORE_INDEX).any():
        labels[:] = IGNORE_INDEX
        row = int(rng.integers(case.batch))
        labels[row, int(rng.integers(lengths[row]))] = int(rng.integers(11))
    return token_ids, mask, labels


def _dropout_states(model):
    return [
        get_generator_state(module._rng)
        for module in model.modules()
        if isinstance(module, Dropout)
    ]


def _restore_dropout_states(model, states):
    dropouts = [module for module in model.modules() if isinstance(module, Dropout)]
    for module, state in zip(dropouts, states):
        set_generator_state(module._rng, state)


SINGLE_LABEL = Case(
    num_layers=2, num_heads=2, head_dim=2, batch=3, seq=7, single_label=True, seed=5,
)


class TestEqualToAutograd:
    @pytest.mark.parametrize("lora", [True, False], ids=["lora-only", "all-weights"])
    @SETTINGS
    @given(case=cases())
    @example(case=SINGLE_LABEL)
    def test_loss_and_every_gradient(self, lora, case):
        model = _model(case, lora)
        token_ids, mask, labels = _batch(case)
        states = _dropout_states(model)

        reference = cross_entropy(
            model(token_ids, attention_mask=mask), labels, ignore_index=IGNORE_INDEX
        )
        reference.backward()
        expected = {name: tensor.grad for name, tensor in model.named_parameters()}
        after_reference = _dropout_states(model)
        model.zero_grad()
        _restore_dropout_states(model, states)

        loss = model.train_step(token_ids, mask, labels)

        assert loss == pytest.approx(float(reference.data), rel=LOSS_RTOL)
        scale = max(float(np.abs(grad).max()) for grad in expected.values() if grad is not None)
        trained = 0
        for name, tensor in model.named_parameters():
            assert (tensor.grad is None) == (expected[name] is None), name
            if tensor.grad is not None:
                np.testing.assert_allclose(
                    tensor.grad, expected[name], rtol=0, atol=RTOL * scale + ATOL, err_msg=name
                )
                trained += 1
        assert trained == len(model.trainable_parameters())
        # Both paths drew the same dropout masks in the same order.
        assert [str(state) for state in _dropout_states(model)] == [
            str(state) for state in after_reference
        ]

    def test_labels_must_match_tokens(self):
        model = _model(SINGLE_LABEL, lora=True)
        token_ids, mask, labels = _batch(SINGLE_LABEL)
        with pytest.raises(ValueError, match="labels shape"):
            model.train_step(token_ids, mask, labels[:, :-1])


def _step(model, token_ids, mask, labels, states):
    """Loss and every gradient of one step from the dropout ``states``."""
    model.zero_grad()
    _restore_dropout_states(model, states)
    loss = model.train_step(token_ids, mask, labels)
    return loss, [tensor.grad for tensor in model.trainable_parameters()]


class TestUnreadTokens:
    @pytest.mark.parametrize("lora", [True, False], ids=["lora-only", "all-weights"])
    @SETTINGS
    @given(case=cases(), replacement=st.integers(0, 10))
    @example(case=SINGLE_LABEL, replacement=0)
    def test_padding_and_tokens_after_the_last_label_change_nothing(
        self, lora, case, replacement
    ):
        model = _model(case, lora)
        token_ids, mask, labels = _batch(case)
        states = _dropout_states(model)
        loss, grads = _step(model, token_ids, mask, labels, states)

        # Padding, and every position after its row's last label.
        positions = np.arange(case.seq)
        last_label = np.where(labels != IGNORE_INDEX, positions, -1).max(axis=1)
        unread = ~mask | (positions[None, :] > last_label[:, None])
        changed = token_ids.copy()
        changed[unread] = (changed[unread] + 1 + replacement) % 11
        changed_loss, changed_grads = _step(model, changed, mask, labels, states)

        assert changed_loss == loss
        for grad, changed_grad in zip(grads, changed_grads):
            assert np.array_equal(grad, changed_grad)


# One model and three batches at the production width (dim 64, FFN 256):
# two full batches and a ragged one.  Prints the real-row counts and one
# digest of every loss and gradient.
_THREADS_SCRIPT = """
import hashlib
import json
import numpy as np
from repro.nn.lora import LoRAConfig, inject_lora, lora_layers
from repro.nn.transformer import IGNORE_INDEX, TransformerConfig, TransformerLM

def batch(rows, seq, ragged, seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(seq // 4, seq + 1, size=rows) if ragged else np.full(rows, seq)
    mask = np.arange(seq)[None, :] < lengths[:, None]
    labels = rng.integers(0, 300, size=(rows, seq))
    labels[(rng.random((rows, seq)) < 0.5) | ~mask] = IGNORE_INDEX
    return rng.integers(0, 300, size=(rows, seq)), mask, labels

digest = hashlib.sha256()
real_rows = []
for lora in (False, True):
    config = TransformerConfig(vocab_size=300, max_seq_len=40, dim=64, num_layers=2, num_heads=4)
    model = TransformerLM(config, rng=0)
    if lora:
        inject_lora(model, LoRAConfig(), rng=1)
        for layer in lora_layers(model):
            layer.lora_b.data[...] = 0.05
    model.train()
    for shape, ragged, seed in (((25, 31), False, 2), ((30, 35), False, 3), ((25, 37), True, 4)):
        token_ids, mask, labels = batch(*shape, ragged, seed)
        real_rows.append(int(mask.sum()))
        model.zero_grad()
        digest.update(np.float64(model.train_step(token_ids, mask, labels)).tobytes())
        for tensor in model.trainable_parameters():
            digest.update(tensor.grad.tobytes())
print(json.dumps({"digest": digest.hexdigest(), "real_rows": real_rows}))
"""


class TestBlasThreadCount:
    def test_one_and_two_threads_give_the_same_bits(self):
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
            env["OPENBLAS_NUM_THREADS"] = threads
            result = subprocess.run(
                [sys.executable, "-c", _THREADS_SCRIPT],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert result.returncode == 0, result.stderr
            outcome = json.loads(result.stdout)
            digests.append(outcome["digest"])
        # The ragged batch's real rows are above the counts OpenBLAS keeps
        # thread-invariant on its own (448) and not a multiple of 32.
        ragged = outcome["real_rows"][2]
        assert ragged > 448 and ragged % 32 != 0
        assert digests[0] == digests[1]


class TestFiniteDifferences:
    @pytest.mark.parametrize("lora", [True, False], ids=["lora-only", "all-weights"])
    def test_step_gradients_match_central_differences(self, lora):
        case = Case(
            num_layers=2, num_heads=2, head_dim=2, batch=2, seq=6, single_label=False, seed=11,
        )
        model = _model(case, lora, training=False)  # inert dropout: a deterministic loss
        # At the default init (std 0.02) the residual stream is so small that
        # LayerNorm's curvature makes a 1e-2 step leave the linear regime.
        for embedding in (model.token_embedding, model.position_embedding):
            embedding.weight.data *= 25.0
        token_ids, mask, labels = _batch(case)
        model.train_step(token_ids, mask, labels)
        parameters = model.trainable_parameters()
        analytic = [tensor.grad.copy() for tensor in parameters]
        for tensor, grad in zip(parameters, analytic):
            flat = tensor.data.reshape(-1)
            for index in range(flat.size):
                original = flat[index]
                losses = []
                for sign in (+1.0, -1.0):
                    flat[index] = original + sign * FD_EPS
                    losses.append(model.train_step(token_ids, mask, labels))
                flat[index] = original
                numeric = (losses[0] - losses[1]) / (2.0 * FD_EPS)
                np.testing.assert_allclose(
                    grad.reshape(-1)[index], numeric, atol=FD_ATOL, rtol=FD_RTOL
                )


class TestNoTensorGraph:
    @pytest.fixture()
    def made(self, monkeypatch):
        """Counts every Tensor graph node created while the test runs."""
        calls = []
        original = Tensor._make

        def counting(data, parents, backward):
            calls.append(len(parents))
            return original(data, parents, backward)

        monkeypatch.setattr(Tensor, "_make", staticmethod(counting))
        return calls

    def test_finetune_builds_no_graph(self, made, fresh_llm, med_corpus):
        dialogues = [
            dialogue.annotated(dialogue.gold_response) for dialogue in med_corpus.dialogues()[:6]
        ]
        report = LoRAFineTuner(fresh_llm, FineTuneConfig(epochs=2, batch_size=4)).finetune(
            dialogues
        )
        assert report.num_examples == 6
        assert made == []

    def test_pretrain_builds_no_graph(self, made, untrained_llm, med_corpus):
        llm = untrained_llm.clone()
        report = pretrain(
            llm, pretraining_pairs(med_corpus, rng=0)[:12], PretrainConfig(epochs=1, batch_size=8)
        )
        assert report.num_examples == 12
        assert made == []

    def test_inference_builds_no_graph(self, made, fresh_llm):
        # Every ``forward`` op makes a graph node; inference must not reach one.
        answers = fresh_llm.respond_batch(
            ["what about the dose", "my knee aches"],
            generation=GenerationConfig(max_new_tokens=4, greedy=True),
        )
        assert len(answers) == 2
        assert fresh_llm.embed_batch(["a dose of medicine", "my knee"]).shape[0] == 2
        assert fresh_llm.model.hidden_states(np.array([[1, 2, 3]])).shape[:2] == (1, 3)
        assert made == []
