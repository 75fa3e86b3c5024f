"""Data synthesis: generating semantically similar dialogue sets (Section 3.3).

Right before each fine-tuning round, every dialogue set in the buffer is used
to synthesize several additional, semantically similar sets, because multiple
similar question/answer pairs lead to better fine-tuning.  Each synthesized
set must pass a ROUGE-1 similarity sanity check against its original or it is
discarded.

Two synthesis strategies are provided:

* ``"llm"`` — the literal procedure from the paper: the on-device LLM is
  prompted with the fixed instruction ("Please refine and generate a text
  semantically similar to the following text block ...") and its sampled
  output forms the synthetic question.  With the small CPU model this mostly
  produces text that fails the sanity check, which is precisely the failure
  mode the paper added the check for; the code path is exercised end to end.
* ``"guided"`` (default) — an LLM-vocabulary-guided paraphrase: the original
  question and annotated response are perturbed (token dropout at
  :data:`PERTURBATION_RATE`, filler-word substitution, keyword duplication)
  so the result is semantically similar by construction.  This plays the
  role of a competent instruction-following generator and keeps experiments
  deterministic and fast.

Either strategy gets :data:`MAX_ATTEMPTS_PER_ITEM` tries per requested set
to produce a candidate that passes the sanity check below.

Note: the paper's prose says generated sets whose ROUGE-1 is *above* a
threshold are discarded, which contradicts its own motivation two sentences
earlier (generated sets that "differ from the original significantly ... as
such we add a sanity check").  We implement the evidently intended rule: keep
a synthesized set only when its ROUGE-1 similarity to the original is at or
above the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from repro.data.dialogue import DialogueSet
from repro.llm.generation import GenerationConfig
from repro.llm.model import OnDeviceLLM
from repro.textmetrics.rouge import Rouge1Reference
from repro.tokenizer.word_tokenizer import split_words
from repro.utils.config import require_choice, require_in_unit_interval, require_non_negative
from repro.utils.rng import as_generator, get_generator_state, set_generator_state

SYNTHESIS_PROMPT = (
    "please refine and generate a text semantically similar to the following "
    "text block, no need to answer it, no need to explain, use [ ] to hold "
    "your generated response: "
)

#: Candidates generated per requested set before it counts as rejected.
MAX_ATTEMPTS_PER_ITEM = 3
#: Chance that the guided paraphrase drops a short (<= 4 letter) token.
PERTURBATION_RATE = 0.15

_FILLER_SUBSTITUTES = (
    ("please", "kindly"),
    ("explain", "describe"),
    ("tell", "share"),
    ("should", "could"),
    ("think", "feel"),
    ("keep", "stay"),
    ("about", "regarding"),
    ("really", "truly"),
)


@dataclass
class SynthesisConfig:
    """Parameters of the data-synthesis stage."""

    num_per_item: int = 3
    similarity_threshold: float = 0.35
    strategy: str = "guided"
    generation: GenerationConfig = field(
        default_factory=lambda: GenerationConfig(max_new_tokens=24, temperature=0.7)
    )
    seed: int = 0

    def __post_init__(self) -> None:
        require_non_negative("num_per_item", self.num_per_item)
        require_in_unit_interval("similarity_threshold", self.similarity_threshold)
        require_choice("strategy", self.strategy, ("guided", "llm"))


@dataclass
class SynthesisStats:
    """Bookkeeping over all synthesis calls."""

    requested: int = 0
    generated: int = 0
    rejected: int = 0

    def acceptance_rate(self) -> float:
        """Fraction of generated candidates that passed the sanity check."""
        attempts = self.generated + self.rejected
        if attempts == 0:
            return 0.0
        return self.generated / attempts


class DataSynthesizer:
    """Synthesizes semantically similar dialogue sets from buffered originals."""

    def __init__(
        self,
        llm: OnDeviceLLM,
        config: Optional[SynthesisConfig] = None,
        rng=None,
    ) -> None:
        self.llm = llm
        self.config = config or SynthesisConfig()
        self._rng = as_generator(rng if rng is not None else self.config.seed)
        self.stats = SynthesisStats()
        self._reference: Optional[Rouge1Reference] = None

    # ------------------------------------------------------------------ #
    # candidate generation strategies
    # ------------------------------------------------------------------ #
    def _perturb_text(self, text: str, keep_all_keywords: bool = False) -> str:
        """Token-level paraphrase: substitutions, light dropout, duplication."""
        tokens = split_words(text)
        if not tokens:
            return text
        substitutions = dict(_FILLER_SUBSTITUTES)
        reverse = {b: a for a, b in _FILLER_SUBSTITUTES}
        substitutions.update(reverse)
        output: List[str] = []
        for token in tokens:
            roll = self._rng.random()
            if token in substitutions and roll < 0.5:
                output.append(substitutions[token])
                continue
            if not keep_all_keywords and roll < PERTURBATION_RATE and len(token) <= 4:
                continue  # drop short filler tokens occasionally
            output.append(token)
        if output and self._rng.random() < 0.5:
            # duplicate one informative token to vary length without changing meaning
            longest = max(output, key=len)
            output.append(longest)
        return " ".join(output) if output else text

    def _generate_candidate_guided(self, original: DialogueSet) -> DialogueSet:
        """Paraphrase-based candidate (deterministic given the RNG state)."""
        question = self._perturb_text(original.question)
        response = self._perturb_text(original.response, keep_all_keywords=True)
        return DialogueSet(
            question=question,
            response=response,
            gold_response=original.response,
            domain=original.domain,
            source=original.source,
            synthetic=True,
            metadata={"origin": "guided", "original_question": original.question},
        )

    def _generate_candidate_llm(self, original: DialogueSet) -> DialogueSet:
        """Literal paper procedure: prompt the LLM for a similar text block."""
        prompt = SYNTHESIS_PROMPT + original.text()
        generated = self.llm.generate(prompt, generation=self.config.generation, rng=self._rng)
        generated = generated.strip() or original.question
        return DialogueSet(
            question=generated,
            response=original.response,
            gold_response=original.response,
            domain=original.domain,
            source=original.source,
            synthetic=True,
            metadata={"origin": "llm", "original_question": original.question},
        )

    def _generate_candidate(self, original: DialogueSet) -> DialogueSet:
        if self.config.strategy == "llm":
            return self._generate_candidate_llm(original)
        return self._generate_candidate_guided(original)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def _reference_for(self, original: DialogueSet) -> Rouge1Reference:
        """Pre-tokenized ROUGE reference for ``original`` (one-slot cache).

        All attempts for one original compare against the same text, so the
        reference side of the ROUGE-1 check is tokenized exactly once.
        """
        text = original.text()
        if self._reference is None or self._reference.text != text:
            self._reference = Rouge1Reference(text)
        return self._reference

    def passes_sanity_check(self, candidate: DialogueSet, original: DialogueSet) -> bool:
        """ROUGE-1 similarity sanity check against the original dialogue set."""
        similarity = self._reference_for(original).f1(candidate.text())
        return similarity >= self.config.similarity_threshold

    def synthesize_for(self, original: DialogueSet) -> List[DialogueSet]:
        """Synthesize up to ``num_per_item`` similar sets for one original."""
        accepted: List[DialogueSet] = []
        if self.config.num_per_item == 0:
            return accepted
        for _ in range(self.config.num_per_item):
            self.stats.requested += 1
            candidate: Optional[DialogueSet] = None
            for _ in range(MAX_ATTEMPTS_PER_ITEM):
                attempt = self._generate_candidate(original)
                if self.passes_sanity_check(attempt, original):
                    candidate = attempt
                    break
                self.stats.rejected += 1
            if candidate is not None:
                self.stats.generated += 1
                accepted.append(candidate)
        return accepted

    def synthesize(self, originals: Sequence[DialogueSet]) -> List[DialogueSet]:
        """Synthesize similar sets for every buffered original (pre-fine-tune)."""
        synthesized: List[DialogueSet] = []
        for original in originals:
            synthesized.extend(self.synthesize_for(original))
        return synthesized

    # ------------------------------------------------------------------ #
    # serialization (the checkpoint contract)
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Picklable snapshot of the synthesizer's RNG stream and statistics."""
        return {"rng": get_generator_state(self._rng), "stats": replace(self.stats)}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        set_generator_state(self._rng, state["rng"])
        self.stats = replace(state["stats"])
        # The one-slot ROUGE reference memo is a pure function of its input
        # text; dropping it only costs one re-tokenization.
        self._reference = None
