"""Pre-training of the generic on-device LLM.

The paper deploys a *pre-trained* Llama-3B and personalizes it on-device.
Our substitute model must likewise arrive on the device already knowing
general language — the question patterns, the ``question <sep> response``
dialogue format, the generic answer style and the general assistant phrase
inventory — but *not* the specific user's preferred style.  This module
trains the base transformer on exactly that before any personalization
experiment starts.

Pre-training uses the same dialogue format as fine-tuning and inference
(``<bos> question <sep> response <eos>``) so that the deployed model can
already respond to a ``question <sep>`` prompt; the *content* of the
responses is generic or drawn from randomly sampled decoy personas, never
from the experiment user's persona.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dialogue import DialogueCorpus
from repro.data.persona import UserPersona, generic_model_response
from repro.llm.base_cache import (
    BaseModelBoot,
    base_model_key,
    load_base_model,
    record_path,
    store_base_model,
)
from repro.llm.finetune import IGNORE_INDEX, collate_round, encode_pair_example, train_batch
from repro.llm.model import OnDeviceLLM, OnDeviceLLMConfig
from repro.nn.optim import Adam
from repro.utils.config import require_positive
from repro.utils.rng import as_generator

# Decoy personas whose responses expose the assistant phrase inventory.
NUM_DECOY_PERSONAS = 4


# Adam learning rate of pre-training; train_batch clips to finetune.MAX_GRAD_NORM.
PRETRAIN_LEARNING_RATE = 3e-3


@dataclass
class PretrainConfig:
    """Hyper-parameters of base-model pre-training."""

    epochs: int = 20
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        require_positive("epochs", self.epochs)
        require_positive("batch_size", self.batch_size)


@dataclass
class PretrainReport:
    """Loss trajectory and timing of the pre-training run."""

    losses: List[float]
    seconds_total: float
    num_examples: int = 0

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else 0.0

    @property
    def initial_loss(self) -> float:
        return self.losses[0] if self.losses else 0.0


def pretraining_pairs(corpus: DialogueCorpus, rng=None) -> List[Tuple[str, str]]:
    """Build (question, response) pre-training pairs from a corpus.

    Every question is paired with a *generic* (non-personalized) response
    and with a response styled by one of :data:`NUM_DECOY_PERSONAS` randomly
    drawn decoy personas.  The decoys expose the assistant phrase inventory
    (as a web-pretrained LLM would have seen) while the experiment user's
    specific persona combination remains unseen.
    """
    generator = as_generator(rng)
    pairs: List[Tuple[str, str]] = []
    domains = corpus.domains()
    decoys: List[UserPersona] = []
    if domains:
        decoys = [
            UserPersona.sample(domains, rng=generator, name=f"decoy-{index}")
            for index in range(NUM_DECOY_PERSONAS)
        ]
    for dialogue in corpus:
        pairs.append(
            (dialogue.question, generic_model_response(dialogue.question, rng=generator))
        )
        if decoys:
            decoy = decoys[int(generator.integers(len(decoys)))]
            pairs.append(
                (dialogue.question, decoy.preferred_response(dialogue.question, dialogue.domain))
            )
    return pairs


def pretrain(
    llm: OnDeviceLLM,
    pairs: Sequence[Tuple[str, str]],
    config: Optional[PretrainConfig] = None,
) -> PretrainReport:
    """Train the base model on (question, response) pairs in dialogue format."""
    config = config or PretrainConfig()
    rng = as_generator(config.seed)
    examples = [
        encode_pair_example(llm, question, response) for question, response in pairs
    ]
    examples = [
        (ids, labels)
        for ids, labels in examples
        if len(ids) >= 2 and any(label != IGNORE_INDEX for label in labels)
    ]
    if not examples:
        raise ValueError("pretrain received no usable (question, response) pairs")

    optimizer = Adam(
        [p for p in llm.model.parameters() if p.requires_grad], lr=PRETRAIN_LEARNING_RATE
    )

    start = time.perf_counter()
    losses: List[float] = []
    take = collate_round(llm, examples)
    llm.model.train()
    for _ in range(config.epochs):
        order = rng.permutation(len(examples))
        epoch_losses: List[float] = []
        for batch_start in range(0, len(examples), config.batch_size):
            batch = take(order[batch_start : batch_start + config.batch_size])
            epoch_losses.append(train_batch(llm.model, optimizer, batch))
        losses.append(float(np.mean(epoch_losses)))
    # The gradients view the optimizer's packed buffer: drop them with it.
    optimizer.zero_grad()
    llm.model.eval()
    return PretrainReport(
        losses=losses,
        seconds_total=time.perf_counter() - start,
        num_examples=len(examples),
    )


def build_pretrained_llm(
    corpus: DialogueCorpus,
    llm_config: Optional[OnDeviceLLMConfig] = None,
    pretrain_config: Optional[PretrainConfig] = None,
) -> OnDeviceLLM:
    """End-to-end helper: tokenizer + model + pre-training from a corpus.

    The tokenizer's vocabulary covers the corpus text *and* the gold persona
    responses (a deployed LLM's vocabulary certainly contains everyday words
    like "friend" or "advice"), but the pre-training pairs never use the
    experiment user's specific persona.

    The trained model comes from the base-model cache
    (:mod:`repro.llm.base_cache`) when it holds a record for exactly these
    inputs; otherwise the model pretrains and the record is written.
    ``llm.boot`` tells which happened and how long it took.
    """
    llm_config = llm_config or OnDeviceLLMConfig()
    pretrain_config = pretrain_config or PretrainConfig()
    vocabulary_texts = corpus.all_text()
    llm = OnDeviceLLM.from_texts(vocabulary_texts, config=llm_config)
    pairs = pretraining_pairs(corpus, rng=pretrain_config.seed)
    started = time.perf_counter()
    key = base_model_key(llm, pretrain_config, pairs)
    path = record_path(key)
    result = load_base_model(llm, key, path)
    if result != "hit":
        pretrain(llm, pairs, pretrain_config)
        store_base_model(llm, key, path)
    llm.boot = BaseModelBoot(result, time.perf_counter() - started)
    return llm
