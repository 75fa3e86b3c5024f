"""Streaming-data simulation.

On the device, dialogue sets arrive one at a time from the user–LLM
interaction; they are *not* i.i.d. samples from the dataset but a temporally
correlated stream.  A :class:`DialogueStream` is its corpus in corpus order:
the corpus generator sets the correlation
(:attr:`~repro.data.synthetic.SyntheticCorpusConfig.temporal_correlation`).
This module measures how temporally correlated an ordering is and provides
the chunking used to trigger fine-tuning every ``N`` dialogue sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.data.dialogue import DialogueCorpus, DialogueSet
from repro.utils.config import require_positive


def temporal_correlation_index(dialogues: Sequence[DialogueSet]) -> float:
    """Fraction of adjacent pairs that share the same ground-truth domain.

    Filler items (domain ``None``) are skipped.  Returns 0.0 when fewer than
    two labelled items are present.
    """
    labelled = [d.domain for d in dialogues if d.domain is not None]
    if len(labelled) < 2:
        return 0.0
    same = sum(1 for a, b in zip(labelled, labelled[1:]) if a == b)
    return same / (len(labelled) - 1)


@dataclass
class StreamConfig:
    """Configuration of the streaming simulation."""

    finetune_interval: int = 800

    def __post_init__(self) -> None:
        require_positive("finetune_interval", self.finetune_interval)


class DialogueStream:
    """An iterator over dialogue sets with fine-tuning trigger points.

    The paper starts a fine-tuning round every 800 dialogue sets received;
    :meth:`chunks` yields the stream in such intervals so the framework can
    interleave selection and fine-tuning exactly the same way.
    """

    def __init__(self, corpus: DialogueCorpus, config: Optional[StreamConfig] = None) -> None:
        self.config = config or StreamConfig()
        self._ordered = corpus.dialogues()
        self.name = corpus.name

    def __len__(self) -> int:
        return len(self._ordered)

    def __iter__(self) -> Iterator[DialogueSet]:
        return iter(self._ordered)

    def dialogues(self) -> List[DialogueSet]:
        """The stream as a list, in arrival order."""
        return list(self._ordered)

    def chunks(self, skip: int = 0) -> Iterator[List[DialogueSet]]:
        """Yield consecutive chunks of ``finetune_interval`` dialogue sets.

        The final, possibly shorter chunk is also yielded so that no data is
        silently dropped; the framework decides whether to fine-tune on it.

        ``skip`` is the stream cursor: the number of dialogue sets already
        consumed (e.g. by a run being resumed from a checkpoint).  Chunk
        boundaries stay aligned to the original interval grid, so a cursor
        that is not itself a boundary first yields the remainder of the chunk
        it falls inside.
        """
        if skip < 0:
            raise ValueError(f"skip must be non-negative, got {skip}")
        interval = self.config.finetune_interval
        if skip % interval:
            boundary = (skip // interval + 1) * interval
            partial = self._ordered[skip:boundary]
            if partial:
                yield partial
            skip = boundary
        for start in range(skip, len(self._ordered), interval):
            yield self._ordered[start : start + interval]

    def num_finetune_rounds(self) -> int:
        """Number of chunks the stream will produce."""
        interval = self.config.finetune_interval
        return (len(self._ordered) + interval - 1) // interval
