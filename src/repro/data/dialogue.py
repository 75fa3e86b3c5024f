"""Dialogue-set data structures.

The paper's atomic unit of data selection is a *dialogue set*: one pair of
user question and model response from the user–LLM interaction.  The
structures here also carry the gold (user-preferred) response used to
simulate annotation, the ground-truth domain of the synthetic generator
(never consulted by the selection policy — it is self-supervised — but useful
for analysis and tests), and arbitrary metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.tokenizer.word_tokenizer import split_words


@dataclass
class DialogueSet:
    """A question / response pair plus annotation and provenance."""

    question: str
    response: str
    gold_response: Optional[str] = None
    domain: Optional[str] = None
    source: Optional[str] = None
    synthetic: bool = False
    metadata: Dict[str, object] = field(default_factory=dict)

    def text(self) -> str:
        """The full dialogue text (question followed by response)."""
        return f"{self.question} {self.response}".strip()

    def num_tokens(self) -> int:
        """Word-token count of the full dialogue text."""
        return len(split_words(self.text()))

    def annotated(self, preferred_response: str) -> "DialogueSet":
        """A copy whose response is replaced by the user-preferred one.

        Mirrors the paper's annotation step: "If users provided an alternative
        response that is preferred, the dialog set will be updated using the
        user provided content before being placed into the buffer."
        """
        return replace(self, response=preferred_response, gold_response=preferred_response)

    def with_response(self, response: str) -> "DialogueSet":
        """A copy with a different model response (gold label untouched)."""
        return replace(self, response=response)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON serializable)."""
        return {
            "question": self.question,
            "response": self.response,
            "gold_response": self.gold_response,
            "domain": self.domain,
            "source": self.source,
            "synthetic": self.synthetic,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DialogueSet":
        """Inverse of :meth:`to_dict`."""
        return cls(
            question=str(data["question"]),
            response=str(data["response"]),
            gold_response=data.get("gold_response"),  # type: ignore[arg-type]
            domain=data.get("domain"),  # type: ignore[arg-type]
            source=data.get("source"),  # type: ignore[arg-type]
            synthetic=bool(data.get("synthetic", False)),
            metadata=dict(data.get("metadata", {})),  # type: ignore[arg-type]
        )


class DialogueCorpus:
    """An ordered collection of dialogue sets with a split helper."""

    def __init__(self, dialogues: Sequence[DialogueSet], name: str = "corpus") -> None:
        self._dialogues: List[DialogueSet] = list(dialogues)
        self.name = name

    # -- container protocol ------------------------------------------------- #
    def __len__(self) -> int:
        return len(self._dialogues)

    def __iter__(self) -> Iterator[DialogueSet]:
        return iter(self._dialogues)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return DialogueCorpus(self._dialogues[index], name=self.name)
        return self._dialogues[index]

    def dialogues(self) -> List[DialogueSet]:
        """The underlying list (copy)."""
        return list(self._dialogues)

    # -- analysis ----------------------------------------------------------- #
    def domains(self) -> List[str]:
        """Distinct ground-truth domains present, in first-seen order."""
        seen: List[str] = []
        for dialogue in self._dialogues:
            if dialogue.domain is not None and dialogue.domain not in seen:
                seen.append(dialogue.domain)
        return seen

    def domain_histogram(self) -> Dict[str, int]:
        """Count of dialogue sets per ground-truth domain."""
        histogram: Dict[str, int] = {}
        for dialogue in self._dialogues:
            key = dialogue.domain or "<unknown>"
            histogram[key] = histogram.get(key, 0) + 1
        return histogram

    def questions(self) -> List[str]:
        """All question texts."""
        return [dialogue.question for dialogue in self._dialogues]

    def all_text(self) -> List[str]:
        """Every question and response string (used for vocabulary building)."""
        texts: List[str] = []
        for dialogue in self._dialogues:
            texts.append(dialogue.question)
            texts.append(dialogue.response)
            if dialogue.gold_response:
                texts.append(dialogue.gold_response)
        return texts

    # -- manipulation -------------------------------------------------------- #
    def split(self, first_fraction: float, rng=None) -> tuple["DialogueCorpus", "DialogueCorpus"]:
        """Random split into (first, second) with ``first_fraction`` in the first.

        The paper streams a random 10% of each dataset and evaluates on the
        remaining 90%; this is the helper that produces that split.
        """
        from repro.utils.rng import as_generator

        if not 0.0 < first_fraction < 1.0:
            raise ValueError(f"first_fraction must be in (0, 1), got {first_fraction}")
        generator = as_generator(rng)
        indices = generator.permutation(len(self._dialogues))
        cut = max(1, int(round(first_fraction * len(self._dialogues))))
        first = [self._dialogues[i] for i in indices[:cut]]
        second = [self._dialogues[i] for i in indices[cut:]]
        return (
            DialogueCorpus(first, name=f"{self.name}[stream]"),
            DialogueCorpus(second, name=f"{self.name}[eval]"),
        )

    def extend(self, dialogues: Iterable[DialogueSet]) -> None:
        """Append more dialogue sets in place."""
        self._dialogues.extend(dialogues)
