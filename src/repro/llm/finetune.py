"""LoRA fine-tuning of the on-device LLM on selected + synthesized data.

Mirrors the paper's setup: the buffer contents (after annotation) plus the
synthesized dialogue sets form the training data; LoRA adapters on the
``q_proj``/``k_proj``/``v_proj``/``o_proj`` projections are trained with
AdamW at weight decay 0, i.e. :class:`~repro.nn.optim.Adam`; the loss is
next-token cross-entropy computed only on the response portion of each
``question <sep> response`` sequence, so the model learns to *answer in the
user's preferred style* rather than to parrot questions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dialogue import DialogueSet
from repro.llm.model import OnDeviceLLM
from repro.nn.lora import LoRAConfig, lora_parameters
from repro.nn.optim import Adam
from repro.nn.transformer import IGNORE_INDEX, TransformerLM
from repro.utils.config import require_positive
from repro.utils.rng import as_generator, get_generator_state, set_generator_state


#: Global gradient-norm clip of every training step (fine-tune and pre-train).
MAX_GRAD_NORM = 1.0


@dataclass
class FineTuneConfig:
    """Hyper-parameters of one fine-tuning round.

    Paper defaults: batch size 128, learning rate 3e-4, 100 epochs, LoRA rank
    8 / alpha 16 / dropout 0.05, max sequence length 512.  The structural
    defaults here match; the epoch count is the CPU-scale default and can be
    raised to the paper's value through the config.  Every round trains
    with a fresh Adam (the paper's AdamW at weight decay 0) built from
    ``learning_rate``, clipped to :data:`MAX_GRAD_NORM`, on examples cut to
    the model's ``max_seq_len``.
    """

    epochs: int = 8
    batch_size: int = 16
    learning_rate: float = 3e-4
    lora: LoRAConfig = field(default_factory=LoRAConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        require_positive("epochs", self.epochs)
        require_positive("batch_size", self.batch_size)
        require_positive("learning_rate", self.learning_rate)


@dataclass
class FineTuneReport:
    """Outcome of one fine-tuning round."""

    num_examples: int
    epochs: int
    losses: List[float]
    seconds_total: float
    seconds_per_epoch: float

    @property
    def initial_loss(self) -> float:
        return self.losses[0] if self.losses else 0.0

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else 0.0


def build_training_example(llm: OnDeviceLLM, dialogue: DialogueSet) -> Tuple[List[int], List[int]]:
    """Token ids and target labels for one dialogue set (its gold response if any)."""
    response = dialogue.gold_response if dialogue.gold_response is not None else dialogue.response
    return encode_pair_example(llm, dialogue.question, response)


def encode_pair_example(
    llm: OnDeviceLLM, question: str, response: str
) -> Tuple[List[int], List[int]]:
    """Token ids and target labels for one ``(question, response)`` pair.

    The input is ``<bos> question <sep> response <eos>``, cut to the model's
    ``max_seq_len``; labels are the next-token ids with everything up to and
    including ``<sep>`` masked to ``IGNORE_INDEX`` so only response tokens
    contribute to the loss.  Both fine-tuning and pre-training encode their
    examples here.
    """
    ids = llm.tokenizer.encode_pair(question, response, max_length=llm.config.max_seq_len)
    sep_id = llm.tokenizer.vocabulary.sep_id
    # Next-token labels: position t predicts ids[t + 1]; the final position has
    # nothing to predict and is masked out.
    labels = ids[1:] + [IGNORE_INDEX]
    try:
        sep_position = ids.index(sep_id)
    except ValueError:
        sep_position = 0
    masked = [
        IGNORE_INDEX if position < sep_position else label
        for position, label in enumerate(labels)
    ]
    return ids, masked


def collate_batch(
    llm: OnDeviceLLM, examples: Sequence[Tuple[List[int], List[int]]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad a list of (ids, labels) examples into dense arrays.

    Returns ``(token_ids, labels, attention_mask)``; padded label positions
    are set to ``IGNORE_INDEX``.
    """
    if not examples:
        raise ValueError("collate_batch received an empty list of examples")
    for row, (ids, label_ids) in enumerate(examples):
        if len(ids) != len(label_ids):
            raise ValueError(
                f"example {row}: ids ({len(ids)}) and labels ({len(label_ids)}) "
                "must have equal length"
            )
    pad_id = llm.tokenizer.vocabulary.pad_id
    lengths = np.asarray([len(ids) for ids, _ in examples], dtype=np.int64)
    max_len = int(lengths.max())
    mask = np.arange(max_len)[None, :] < lengths[:, None]
    batch = np.full((len(examples), max_len), pad_id, dtype=np.int64)
    labels = np.full((len(examples), max_len), IGNORE_INDEX, dtype=np.int64)
    # ids and labels of one example always have equal length, so a single
    # boolean scatter fills both without any per-row loop.
    batch[mask] = np.fromiter(
        (token for ids, _ in examples for token in ids), dtype=np.int64, count=int(lengths.sum())
    )
    labels[mask] = np.fromiter(
        (label for _, label_ids in examples for label in label_ids),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    return batch, labels, mask


def collate_round(
    llm: OnDeviceLLM, examples: Sequence[Tuple[List[int], List[int]]]
) -> Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Collate a training round's examples once; returns ``take(rows)``.

    ``take`` gathers the given example indices from the round's padded
    arrays and slices them to those rows' own longest example, so its batch
    is byte-equal to ``collate_batch(llm, [examples[i] for i in rows])``
    without re-padding the same examples every epoch.
    """
    token_ids, labels, mask = collate_batch(llm, examples)
    lengths = mask.sum(axis=1)

    def take(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        width = int(lengths[rows].max())
        return token_ids[rows, :width], labels[rows, :width], mask[rows, :width]

    return take


def train_batch(
    model: TransformerLM,
    optimizer: Adam,
    batch: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> float:
    """One optimization step on a collated batch; returns its loss.

    The step both training loops run: clear the optimizer's gradients, run
    the model's graph-free :meth:`~repro.nn.transformer.TransformerLM.
    train_step`, clip to :data:`MAX_GRAD_NORM`, update.  Clipping
    goes through the optimizer, so Adam's scales its packed gradient.
    """
    token_ids, labels, mask = batch
    optimizer.zero_grad()
    loss = model.train_step(token_ids, mask, labels)
    optimizer.clip_grad_norm(MAX_GRAD_NORM)
    optimizer.step()
    return loss


class LoRAFineTuner:
    """Runs LoRA fine-tuning rounds on an :class:`OnDeviceLLM`."""

    def __init__(self, llm: OnDeviceLLM, config: Optional[FineTuneConfig] = None) -> None:
        self.llm = llm
        self.config = config or FineTuneConfig()
        self._rng = as_generator(self.config.seed)
        self.llm.add_lora(self.config.lora)

    # -- serialization (the checkpoint contract) --------------------------- #
    def state_dict(self) -> dict:
        """Picklable snapshot: the epoch-shuffling RNG.

        Each round builds and drops its own optimizer, so nothing else
        outlives a round.
        """
        return {"rng": get_generator_state(self._rng)}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        set_generator_state(self._rng, state["rng"])

    # ------------------------------------------------------------------ #
    def finetune(self, dialogues: Sequence[DialogueSet]) -> FineTuneReport:
        """Run one full fine-tuning round over ``dialogues``.

        The examples are shuffled every epoch; the mean per-batch loss of each
        epoch is recorded in the report.
        """
        dialogues = [d for d in dialogues if d.question and (d.gold_response or d.response)]
        if not dialogues:
            return FineTuneReport(0, 0, [], 0.0, 0.0)
        examples = [build_training_example(self.llm, dialogue) for dialogue in dialogues]
        examples = [
            example
            for example in examples
            if any(label != IGNORE_INDEX for label in example[1])
        ]
        if not examples:
            return FineTuneReport(0, 0, [], 0.0, 0.0)

        # Each round is its own optimization session: stale Adam moments
        # from a previous round (computed on different data) would
        # destabilise the first steps.
        optimizer = Adam(lora_parameters(self.llm.model), lr=self.config.learning_rate)
        start = time.perf_counter()
        losses: List[float] = []
        take = collate_round(self.llm, examples)
        self.llm.model.train()
        for _ in range(self.config.epochs):
            order = self._rng.permutation(len(examples))
            epoch_losses: List[float] = []
            for batch_start in range(0, len(examples), self.config.batch_size):
                batch = take(order[batch_start : batch_start + self.config.batch_size])
                epoch_losses.append(train_batch(self.llm.model, optimizer, batch))
            losses.append(float(np.mean(epoch_losses)))
        # The gradients view the optimizer's packed buffer: drop them with it.
        optimizer.zero_grad()
        self.llm.model.eval()
        elapsed = time.perf_counter() - start
        return FineTuneReport(
            num_examples=len(examples),
            epochs=self.config.epochs,
            losses=losses,
            seconds_total=elapsed,
            seconds_per_epoch=elapsed / self.config.epochs,
        )
