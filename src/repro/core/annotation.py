"""Sparse user annotation.

The paper asks the user for a preferred response only for dialogue sets that
were actually selected into the buffer ("Do you think my response is
acceptable and if not what would be an ideal response?").  In the experiments
the user is simulated by the dataset's gold responses — exactly as the paper
itself does ("our framework only uses annotations for the data selected to
finetune the LLM; and the fully annotated dataset is used in the evaluation").

:class:`AnnotationOracle` plays that user: it returns the gold response for a
selected dialogue set and keeps count of how many annotation requests were
made, which is the user-burden statistic an on-device deployment cares about.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.data.dialogue import DialogueSet
from repro.utils.config import require_in_unit_interval
from repro.utils.rng import as_generator, get_generator_state, set_generator_state


@dataclass
class AnnotationStats:
    """How much annotation effort was requested from the user."""

    requests: int = 0
    provided: int = 0
    declined: int = 0


class AnnotationOracle:
    """Simulated user who provides preferred responses for selected data.

    ``response_rate`` models a user who sometimes declines to answer; when the
    user declines, the original (model-generated) response is kept, mirroring
    the paper's fallback of using the dialogue set as-is.
    """

    def __init__(self, response_rate: float = 1.0, rng=None) -> None:
        require_in_unit_interval("response_rate", response_rate)
        self.response_rate = response_rate
        self._rng = as_generator(rng)
        self.stats = AnnotationStats()

    def annotate(self, dialogue: DialogueSet) -> DialogueSet:
        """Ask the user to annotate one selected dialogue set.

        Returns a dialogue set whose response has been replaced by the user's
        preferred response (when the user answers and a preference exists),
        otherwise the original dialogue set unchanged.
        """
        self.stats.requests += 1
        if self._rng.random() > self.response_rate:
            self.stats.declined += 1
            return dialogue
        preferred = dialogue.gold_response
        if preferred is None:
            self.stats.declined += 1
            return dialogue
        self.stats.provided += 1
        return dialogue.annotated(preferred)

    @property
    def request_count(self) -> int:
        """Total number of annotation requests made so far."""
        return self.stats.requests

    # -- serialization (the checkpoint contract) ------------------------------ #
    def state_dict(self) -> dict:
        """Picklable snapshot of the oracle's RNG stream and statistics."""
        return {"rng": get_generator_state(self._rng), "stats": replace(self.stats)}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        set_generator_state(self._rng, state["rng"])
        self.stats = replace(state["stats"])
