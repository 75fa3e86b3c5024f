"""ROUGE-1 evaluation of a personalized model on held-out dialogue sets.

For every dialogue set in the evaluation split, the same user question is fed
to the model, a response is sampled (temperature :data:`EVAL_TEMPERATURE` =
0.5 as in the paper, repetition penalty :data:`EVAL_REPETITION_PENALTY`), and
ROUGE-1 F1 is computed against the gold (user-preferred) response.  The
evaluator keeps a fixed subsample across calls so that learning-curve points
for different methods and rounds are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.data.dialogue import DialogueCorpus, DialogueSet
from repro.llm.generation import GenerationConfig
from repro.llm.model import OnDeviceLLM
from repro.textmetrics.rouge import rouge_1_f1
from repro.utils.config import require_positive
from repro.utils.rng import as_generator


#: Sampling temperature of the evaluated responses (the paper's 0.5).
EVAL_TEMPERATURE = 0.5
#: Repetition penalty of the evaluated responses.
EVAL_REPETITION_PENALTY = 1.3


@dataclass
class EvaluationConfig:
    """Evaluation knobs."""

    max_new_tokens: int = 24
    greedy: bool = False
    subset_size: Optional[int] = 64
    seed: int = 0
    # Questions decoded together per padded batch.  Greedy scores do not
    # depend on it; *sampled* scores depend on the rng draw order and
    # therefore on this value — compare temperature-sampled runs only at the
    # same batch_size.
    batch_size: int = 32

    def __post_init__(self) -> None:
        require_positive("max_new_tokens", self.max_new_tokens)
        if self.subset_size is not None:
            require_positive("subset_size", self.subset_size)
        require_positive("batch_size", self.batch_size)


@dataclass
class EvaluationReport:
    """Per-question scores plus the aggregate."""

    mean_rouge_1: float
    scores: List[float]
    num_evaluated: int


class ResponseEvaluator:
    """Callable evaluator: ``evaluator(llm) -> mean ROUGE-1``."""

    def __init__(
        self,
        eval_dialogues: Sequence[DialogueSet],
        config: Optional[EvaluationConfig] = None,
    ) -> None:
        if not eval_dialogues:
            raise ValueError("ResponseEvaluator requires a non-empty evaluation set")
        self.config = config or EvaluationConfig()
        dialogues = list(eval_dialogues)
        rng = as_generator(self.config.seed)
        if self.config.subset_size is not None and self.config.subset_size < len(dialogues):
            indices = rng.choice(len(dialogues), size=self.config.subset_size, replace=False)
            dialogues = [dialogues[int(i)] for i in indices]
        self.dialogues = dialogues
        self._generation_seed = int(rng.integers(0, 2**31 - 1))

    @classmethod
    def from_corpus(
        cls, corpus: DialogueCorpus, config: Optional[EvaluationConfig] = None
    ) -> "ResponseEvaluator":
        """Build from a :class:`DialogueCorpus` evaluation split."""
        return cls(corpus.dialogues(), config=config)

    def _generation_config(self, llm: OnDeviceLLM) -> GenerationConfig:
        return GenerationConfig(
            max_new_tokens=self.config.max_new_tokens,
            temperature=EVAL_TEMPERATURE,
            greedy=self.config.greedy,
            repetition_penalty=EVAL_REPETITION_PENALTY,
            stop_token_id=llm.tokenizer.vocabulary.eos_id,
        )

    def _references(self) -> List[str]:
        return [
            dialogue.gold_response
            if dialogue.gold_response is not None
            else dialogue.response
            for dialogue in self.dialogues
        ]

    def evaluate(self, llm: OnDeviceLLM) -> EvaluationReport:
        """Full evaluation with per-question scores.

        Questions are decoded in padded batches of ``config.batch_size`` so
        the model forwards are shared across the evaluation set.  A fresh,
        fixed-seed generator per evaluation keeps sampling noise identical
        across methods and fine-tuning rounds.
        """
        generation = self._generation_config(llm)
        rng = as_generator(self._generation_seed)
        references = self._references()
        generated: List[str] = []
        questions = [dialogue.question for dialogue in self.dialogues]
        for start in range(0, len(questions), self.config.batch_size):
            chunk = questions[start : start + self.config.batch_size]
            generated.extend(llm.respond_batch(chunk, generation=generation, rng=rng))
        scores = [
            rouge_1_f1(candidate, reference)
            for candidate, reference in zip(generated, references)
        ]
        mean = float(np.mean(scores)) if scores else 0.0
        return EvaluationReport(mean_rouge_1=mean, scores=scores, num_evaluated=len(scores))

    def __call__(self, llm: OnDeviceLLM) -> float:
        return self.evaluate(llm).mean_rouge_1
