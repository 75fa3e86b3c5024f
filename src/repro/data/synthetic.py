"""Synthetic dialogue corpora standing in for the paper's six datasets.

The paper evaluates on ALPACA, DOLLY, OPENORCA (diverse, weak temporal
correlation) and MedDialog, Prosocial-Dialog, Empathetic-Dialog
(domain-specific, strong temporal correlation).  Those datasets cannot be
downloaded in this offline environment, so this module generates synthetic
analogues that preserve the properties the framework actually interacts with:

* a domain mixture drawn from the built-in lexicons, so the Domain Specific
  Score and dominant-domain computations are meaningful;
* a controllable temporal-correlation level for the input stream;
* a fraction of low-information filler chit-chat (the paper's
  "uncontroversial dialogue sets") that a good selection policy should skip;
* a user persona that defines gold (user-preferred) responses, giving the
  fine-tuning a learnable personalization target and ROUGE-1 a reference.

Each generated :class:`~repro.data.dialogue.DialogueSet` carries the question,
the generic model response (what the deployed LLM would have said), the gold
persona response (the annotation a user would provide), and its ground-truth
domain for analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dialogue import DialogueCorpus, DialogueSet
from repro.data.lexicons import LexiconCollection, builtin_lexicons
from repro.data.persona import UserPersona, generic_model_response
from repro.utils.config import require_in_unit_interval, require_positive
from repro.utils.rng import as_generator

# --------------------------------------------------------------------------- #
# Question templates.  ``{w1}``/``{w2}``/``{w3}`` are filled with words drawn
# from the dialogue's domain lexicon; the per-corpus flavour adds its own
# phrasing so the six corpora are lexically distinguishable.
# --------------------------------------------------------------------------- #

_QUESTION_TEMPLATES: Dict[str, Tuple[str, ...]] = {
    "instruction": (
        "explain how {w1} relates to {w2} in simple terms",
        "write a short note about {w1} and why {w2} matters",
        "list three practical tips about {w1} {w2} and {w3}",
        "compare {w1} with {w2} and give one example",
        "summarize what someone should know about {w1} before trying {w2}",
    ),
    "conversation": (
        "i keep thinking about {w1} and {w2} what should i do",
        "lately the {w1} has been worrying me especially the {w2}",
        "can we talk about {w1} i noticed some {w2} yesterday",
        "my experience with {w1} and {w3} left me confused about {w2}",
        "someone told me {w1} causes {w2} is that true",
    ),
    "reasoning": (
        "if {w1} increases while {w2} stays fixed what happens to {w3}",
        "why would {w1} lead to {w2} rather than {w3}",
        "given {w1} and {w2} which one better explains {w3}",
        "walk me through the steps from {w1} to {w2}",
        "what evidence links {w1} with {w2} and {w3}",
    ),
}

# Lower-information substantive questions (richness levels 1 and 2): they are
# still evaluable domain content, but they mention fewer domain keywords and
# elicit preferred answers covering less of the user's go-to vocabulary.
_LEVEL1_QUESTION_TEMPLATES = (
    "tell me something useful about {w1} please",
    "what should i generally know about {w1}",
    "how do people usually handle {w1}",
)

_LEVEL2_QUESTION_TEMPLATES = (
    "explain how {w1} relates to {w2} for me",
    "i am weighing {w1} against {w2} what matters",
    "does {w1} usually come together with {w2}",
)

_THIN_QUESTION_TEMPLATES = (
    "any quick thoughts about {w1} i guess",
    "hmm i was wondering about that {w1} thing",
    "so about the {w1} from yesterday you know",
    "not sure if it matters but {w1} came up again",
    "just curious what about {w1} then",
)

_FILLER_QUESTIONS = (
    "hello again how are you doing today",
    "nice weather we are having right now",
    "thanks for the chat earlier it was fun",
    "good morning hope you slept well",
    "just checking in nothing much to ask",
    "ok sounds good talk to you later",
    "haha that was funny anyway",
    "hmm let me think about it for a bit",
)

# Quality tiers of a dialogue set.  Rich sets carry substantive domain content
# and a fully informative user annotation; thin sets are vague questions whose
# preferred response is only a clarifying question; fillers are small talk.
QUALITY_RICH = "rich"
QUALITY_THIN = "thin"
QUALITY_FILLER = "filler"

# Chance that a rich dialogue which stays in its predecessor's domain is a
# near-duplicate of it, and the domain words drawn for a fresh question.
DUPLICATE_RATE = 0.5
WORDS_PER_QUESTION = 3


@dataclass
class SyntheticCorpusConfig:
    """Configuration of one synthetic corpus.

    ``filler_rate`` / ``thin_rate`` control low-information items *inside the
    corpus itself* and default to zero: the dataset analogues contain
    substantive (evaluable) dialogue sets, while small talk and vague turns
    are injected into the *stream* by
    :meth:`SyntheticCorpusGenerator.make_interaction_stream`, mirroring the
    paper's observation that the user–LLM interaction contains
    "uncontroversial dialogue sets" between the informative ones.
    """

    name: str
    size: int = 600
    domain_names: Tuple[str, ...] = ()
    question_flavor: str = "conversation"
    temporal_correlation: float = 0.5
    filler_rate: float = 0.0
    thin_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        require_positive("size", self.size)
        require_in_unit_interval("temporal_correlation", self.temporal_correlation)
        require_in_unit_interval("filler_rate", self.filler_rate)
        require_in_unit_interval("thin_rate", self.thin_rate)
        if self.question_flavor not in _QUESTION_TEMPLATES:
            raise ValueError(
                f"unknown question_flavor {self.question_flavor!r}; "
                f"known: {sorted(_QUESTION_TEMPLATES)}"
            )
        if not self.domain_names:
            raise ValueError("domain_names must not be empty")


class SyntheticCorpusGenerator:
    """Generates a :class:`DialogueCorpus` from a :class:`SyntheticCorpusConfig`."""

    def __init__(
        self,
        config: SyntheticCorpusConfig,
        lexicons: Optional[LexiconCollection] = None,
        persona: Optional[UserPersona] = None,
    ) -> None:
        self.config = config
        self.lexicons = lexicons or builtin_lexicons()
        unknown = [name for name in config.domain_names if name not in self.lexicons]
        if unknown:
            raise KeyError(f"unknown domains in config: {unknown}")
        self.domain_lexicons = self.lexicons.subset(list(config.domain_names))
        rng = as_generator(config.seed)
        self._rng = rng
        self.persona = persona or UserPersona.sample(
            list(config.domain_names),
            rng=rng,
            lexicons=self.domain_lexicons,
            name=f"{config.name}-user",
        )

    # ------------------------------------------------------------------ #
    def _sample_plan(self, size: int, rng: np.random.Generator) -> List[Tuple[Optional[str], str, bool]]:
        """Assign ``(domain, quality, duplicate_of_previous)`` to every position.

        Temporal correlation is realised as a sticky Markov chain over
        domains: with probability ``temporal_correlation`` the next dialogue
        keeps the previous domain (and with :data:`DUPLICATE_RATE` it is a
        near-duplicate of the previous dialogue — the "few rounds of
        uncontroversial dialogue sets" the paper describes).  Fillers and thin
        questions are sprinkled in independently.
        """
        domains = list(self.config.domain_names)
        plan: List[Tuple[Optional[str], str, bool]] = []
        current = domains[int(rng.integers(len(domains)))]
        previous_was_domain = False
        for _ in range(size):
            if rng.random() < self.config.filler_rate:
                plan.append((None, QUALITY_FILLER, False))
                previous_was_domain = False
                continue
            stayed = False
            if plan and previous_was_domain and rng.random() < self.config.temporal_correlation:
                stayed = True  # stay in the current domain
            else:
                current = domains[int(rng.integers(len(domains)))]
            quality = QUALITY_THIN if rng.random() < self.config.thin_rate else QUALITY_RICH
            duplicate = bool(
                stayed and quality == QUALITY_RICH and rng.random() < DUPLICATE_RATE
            )
            plan.append((current, quality, duplicate))
            previous_was_domain = True
        return plan

    def _sample_words(self, domain: str, count: int, rng: np.random.Generator) -> List[str]:
        """Draw ``count`` lexicon words from ``domain`` (with replacement)."""
        lexicon_words = sorted(self.lexicons.get(domain).words)
        return [
            lexicon_words[int(rng.integers(len(lexicon_words)))] for _ in range(count)
        ]

    def _rich_question(
        self, domain: str, picks: Sequence[str], rng: np.random.Generator, level: int = 3
    ) -> str:
        """A substantive question whose richness ``level`` (1-3) sets how many
        distinct domain keywords it carries."""
        if level <= 1:
            templates = _LEVEL1_QUESTION_TEMPLATES
            template = templates[int(rng.integers(len(templates)))]
            return template.format(w1=picks[0])
        if level == 2:
            templates = _LEVEL2_QUESTION_TEMPLATES
            template = templates[int(rng.integers(len(templates)))]
            return template.format(w1=picks[0], w2=picks[1])
        templates = _QUESTION_TEMPLATES[self.config.question_flavor]
        template = templates[int(rng.integers(len(templates)))]
        return template.format(w1=picks[0], w2=picks[1], w3=picks[2])

    def _thin_question(self, domain: str, picks: Sequence[str], rng: np.random.Generator) -> str:
        """A vague question that mentions only one domain word in passing."""
        template = _THIN_QUESTION_TEMPLATES[int(rng.integers(len(_THIN_QUESTION_TEMPLATES)))]
        return template.format(w1=picks[0])

    def _perturb_duplicate(self, picks: List[str], domain: str, rng: np.random.Generator) -> List[str]:
        """Near-duplicate word picks: keep all but (sometimes) one word."""
        perturbed = list(picks)
        if perturbed and rng.random() < 0.5:
            replacement = self._sample_words(domain, 1, rng)[0]
            perturbed[int(rng.integers(len(perturbed)))] = replacement
        return perturbed

    def _gold_response(
        self, question: str, domain: Optional[str], quality: str, level: int = 3
    ) -> str:
        """The user's preferred (annotation) response for a dialogue set."""
        if quality == QUALITY_FILLER or domain is None:
            return self.persona.filler_response(question)
        if quality == QUALITY_THIN:
            return self.persona.clarifying_response(question, lexicons=self.domain_lexicons)
        return self.persona.preferred_response(
            question,
            domain,
            lexicons=self.domain_lexicons,
            vocabulary_count=2 * level,
        )

    def make_filler_dialogue(self, rng: np.random.Generator, index: int = -1) -> DialogueSet:
        """One small-talk dialogue set with the user's (trivial) preferred reply."""
        question = _FILLER_QUESTIONS[int(rng.integers(len(_FILLER_QUESTIONS)))]
        return DialogueSet(
            question=question,
            response=generic_model_response(question, rng=rng),
            gold_response=self.persona.filler_response(question),
            domain=None,
            source=self.config.name,
            metadata={"index": index, "quality": QUALITY_FILLER, "duplicate": False},
        )

    def make_thin_dialogue(
        self, domain: str, rng: np.random.Generator, index: int = -1
    ) -> DialogueSet:
        """One vague dialogue set whose preferred reply is a clarifying question."""
        picks = self._sample_words(domain, 1, rng)
        question = self._thin_question(domain, picks, rng)
        return DialogueSet(
            question=question,
            response=generic_model_response(question, rng=rng),
            gold_response=self.persona.clarifying_response(question, lexicons=self.domain_lexicons),
            domain=domain,
            source=self.config.name,
            metadata={"index": index, "quality": QUALITY_THIN, "duplicate": False},
        )

    def make_interaction_stream(
        self,
        dialogues: Sequence[DialogueSet],
        filler_rate: float = 0.2,
        thin_rate: float = 0.2,
        rng=None,
    ) -> List[DialogueSet]:
        """Interleave substantive dialogue sets with interaction noise.

        The returned list preserves the order of ``dialogues`` and inserts
        filler small-talk and vague (thin) turns between them at the given
        rates.  Thin turns reuse the domain of the neighbouring substantive
        dialogue so the stream's temporal correlation is preserved.  This is
        the stream the on-device framework actually observes; the substantive
        corpus alone is what evaluation measures.
        """
        require_in_unit_interval("filler_rate", filler_rate)
        require_in_unit_interval("thin_rate", thin_rate)
        generator = as_generator(rng if rng is not None else self.config.seed + 7)
        stream: List[DialogueSet] = []
        fallback_domains = list(self.config.domain_names)
        for position, dialogue in enumerate(dialogues):
            if generator.random() < filler_rate:
                stream.append(self.make_filler_dialogue(generator, index=-1))
            if generator.random() < thin_rate:
                domain = dialogue.domain or fallback_domains[
                    int(generator.integers(len(fallback_domains)))
                ]
                stream.append(self.make_thin_dialogue(domain, generator, index=-1))
            stream.append(dialogue)
        return stream

    def generate(self) -> DialogueCorpus:
        """Generate the full corpus (deterministic for a given config)."""
        rng = as_generator(self.config.seed + 1)
        plan = self._sample_plan(self.config.size, rng)
        dialogues: List[DialogueSet] = []
        previous_picks: Dict[str, Tuple[List[str], int]] = {}
        for index, (domain, quality, duplicate) in enumerate(plan):
            level = 3
            if domain is None:
                question = _FILLER_QUESTIONS[int(rng.integers(len(_FILLER_QUESTIONS)))]
            else:
                if duplicate and domain in previous_picks:
                    picks, level = previous_picks[domain]
                    picks = self._perturb_duplicate(picks, domain, rng)
                else:
                    picks = self._sample_words(domain, WORDS_PER_QUESTION, rng)
                    # Richness level: how much information the dialogue carries
                    # (distinct domain keywords in the question, and how much of
                    # the user's go-to vocabulary the preferred answer covers).
                    level = int(rng.integers(1, 4))
                previous_picks[domain] = (picks, level)
                if quality == QUALITY_THIN:
                    question = self._thin_question(domain, picks, rng)
                else:
                    question = self._rich_question(domain, picks, rng, level=level)
            response = generic_model_response(question, rng=rng)
            gold = self._gold_response(question, domain, quality, level=level)
            dialogues.append(
                DialogueSet(
                    question=question,
                    response=response,
                    gold_response=gold,
                    domain=domain,
                    source=self.config.name,
                    metadata={
                        "index": index,
                        "quality": quality,
                        "duplicate": duplicate,
                        "level": level if domain is not None and quality == QUALITY_RICH else 0,
                    },
                )
            )
        return DialogueCorpus(dialogues, name=self.config.name)


# --------------------------------------------------------------------------- #
# The six dataset analogues.
# --------------------------------------------------------------------------- #

_DATASET_PRESETS: Dict[str, Dict[str, object]] = {
    # Diverse, weak temporal correlation (paper: ALPACA, DOLLY, OPENORCA).
    "alpaca": {
        "domain_names": ("tech", "finance", "cooking", "travel"),
        "question_flavor": "instruction",
        "temporal_correlation": 0.05,
    },
    "dolly": {
        "domain_names": ("tech", "travel", "cooking", "safety"),
        "question_flavor": "instruction",
        "temporal_correlation": 0.10,
    },
    "openorca": {
        "domain_names": ("tech", "finance", "glove_tw26", "glove_cc41"),
        "question_flavor": "reasoning",
        "temporal_correlation": 0.05,
    },
    # Domain-specific, strong temporal correlation (paper: MedDialog,
    # Prosocial-Dialog, Empathetic-Dialog).
    "meddialog": {
        "domain_names": (
            "medical_admin",
            "medical_anatomy",
            "medical_drug",
            "medical_symptom",
        ),
        "question_flavor": "conversation",
        "temporal_correlation": 0.85,
    },
    "prosocial": {
        "domain_names": ("safety", "emotion_trust", "emotion_fear", "emotion_sadness"),
        "question_flavor": "conversation",
        "temporal_correlation": 0.80,
    },
    "empathetic": {
        "domain_names": (
            "emotion_joy",
            "emotion_sadness",
            "emotion_fear",
            "emotion_trust",
        ),
        "question_flavor": "conversation",
        "temporal_correlation": 0.85,
    },
}

# Interaction-noise characteristics of the user–LLM stream for each dataset
# analogue: how often the conversation drifts into pure small talk (filler)
# and vague, low-information turns (thin).  Domain-specific conversational
# corpora (MedDialog / Prosocial / Empathetic analogues) get noisier streams,
# matching the paper's description of temporally correlated conversations with
# "a few rounds of uncontroversial dialogue sets".
_STREAM_NOISE_PRESETS: Dict[str, Dict[str, float]] = {
    "alpaca": {"filler_rate": 0.12, "thin_rate": 0.18},
    "dolly": {"filler_rate": 0.14, "thin_rate": 0.18},
    "openorca": {"filler_rate": 0.10, "thin_rate": 0.15},
    "meddialog": {"filler_rate": 0.25, "thin_rate": 0.25},
    "prosocial": {"filler_rate": 0.25, "thin_rate": 0.25},
    "empathetic": {"filler_rate": 0.25, "thin_rate": 0.25},
}

DATASET_NAMES: Tuple[str, ...] = tuple(_DATASET_PRESETS.keys())

# Which presets model a strongly temporally-correlated stream.
STRONGLY_CORRELATED: Tuple[str, ...] = ("meddialog", "prosocial", "empathetic")


def dataset_preset(name: str) -> Dict[str, object]:
    """The preset parameters for dataset analogue ``name``."""
    if name not in _DATASET_PRESETS:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(_DATASET_PRESETS)}")
    return dict(_DATASET_PRESETS[name])


def stream_noise_preset(name: str) -> Dict[str, float]:
    """Interaction-noise (filler / thin) rates for dataset analogue ``name``."""
    if name not in _STREAM_NOISE_PRESETS:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(_STREAM_NOISE_PRESETS)}")
    return dict(_STREAM_NOISE_PRESETS[name])


def make_generator(
    name: str,
    size: int = 600,
    seed: int = 0,
    lexicons: Optional[LexiconCollection] = None,
    persona: Optional[UserPersona] = None,
    **overrides: object,
) -> SyntheticCorpusGenerator:
    """Build the corpus generator for a dataset analogue (exposes the persona)."""
    config = make_corpus_config(name, size=size, seed=seed, **overrides)
    return SyntheticCorpusGenerator(config, lexicons=lexicons, persona=persona)


def make_corpus_config(
    name: str, size: int = 600, seed: int = 0, **overrides: object
) -> SyntheticCorpusConfig:
    """Build a :class:`SyntheticCorpusConfig` for one of the six dataset analogues."""
    preset = dataset_preset(name)
    preset.update(overrides)
    return SyntheticCorpusConfig(name=name, size=size, seed=seed, **preset)  # type: ignore[arg-type]


def make_corpus(
    name: str,
    size: int = 600,
    seed: int = 0,
    lexicons: Optional[LexiconCollection] = None,
    persona: Optional[UserPersona] = None,
    **overrides: object,
) -> DialogueCorpus:
    """Generate a synthetic corpus analogue of dataset ``name``."""
    config = make_corpus_config(name, size=size, seed=seed, **overrides)
    generator = SyntheticCorpusGenerator(config, lexicons=lexicons, persona=persona)
    return generator.generate()
