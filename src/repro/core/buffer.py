"""The on-device data buffer.

The buffer is divided into equal-size bins; each bin holds one dialogue set's
text, its dominant domain and its embedding vector (Section 4.1 of the paper:
"we divide it into bins of equal size and each bin is able to hold the text of
one dialog set, its domain as well as its embedding").  Storing the embedding
means it never has to be recomputed when later arrivals are compared against
the buffer.

The bin geometry is fixed at the paper's (1024 text tokens, a 4096-float
embedding: 22 KB per bin); :func:`buffer_size_kb` reports a buffer's nominal
size in those units, as Table 3 does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.core.metrics import QualityScores
from repro.data.dialogue import DialogueSet
from repro.utils.config import require_positive


@dataclass
class BufferEntry:
    """One occupied bin: the dialogue set plus everything cached about it."""

    dialogue: DialogueSet
    embedding: np.ndarray
    dominant_domain: Optional[str]
    scores: Optional[QualityScores] = None
    annotated: bool = False
    arrival_index: int = 0

    def text(self) -> str:
        """The dialogue text held in this bin."""
        return self.dialogue.text()


# Physical sizing, mirroring the paper's KB accounting: a dialogue set of at
# most 1024 tokens and a 4096-float embedding give a 22 KB bin.  With our
# small model the real footprint is much smaller, but the same accounting is
# reproduced so buffer sizes can be reported in the paper's units.
BIN_TEXT_TOKENS = 1024
BIN_EMBEDDING_DIM = 4096
BYTES_PER_TOKEN = 6.0
BYTES_PER_FLOAT = 4


def buffer_size_kb(num_bins: int) -> float:
    """Nominal size in KB (1 KB = 1024 bytes) of a buffer of ``num_bins`` bins."""
    bin_bytes = int(BIN_TEXT_TOKENS * BYTES_PER_TOKEN + BIN_EMBEDDING_DIM * BYTES_PER_FLOAT)
    return bin_bytes / 1024.0 * num_bins


class DataBuffer:
    """Fixed-capacity bin buffer holding the selected dialogue sets."""

    def __init__(self, num_bins: int) -> None:
        require_positive("num_bins", num_bins)
        self.num_bins = int(num_bins)
        self._entries: List[BufferEntry] = []
        self._replacements = 0
        self._insertions = 0
        # Derived views rebuilt lazily and dropped on mutation.  Offers are
        # far more frequent than insertions, so the stacked embedding matrix
        # (K-Center) and the domain index (IDD) are usually served from cache.
        self._stacked_embeddings: Optional[np.ndarray] = None
        self._domain_index: Optional[Dict[Optional[str], List[int]]] = None

    def _invalidate_views(self) -> None:
        self._stacked_embeddings = None
        self._domain_index = None

    # -- container protocol ------------------------------------------------- #
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[BufferEntry]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> BufferEntry:
        return self._entries[index]

    @property
    def capacity(self) -> int:
        """Maximum number of dialogue sets the buffer can hold."""
        return self.num_bins

    def is_full(self) -> bool:
        """True when every bin is occupied."""
        return len(self._entries) >= self.num_bins

    def is_empty(self) -> bool:
        return not self._entries

    # -- statistics ---------------------------------------------------------- #
    @property
    def insertion_count(self) -> int:
        """Total number of dialogue sets ever inserted (including replacements)."""
        return self._insertions

    @property
    def replacement_count(self) -> int:
        """Number of insertions that evicted an existing entry."""
        return self._replacements

    def occupancy(self) -> float:
        """Fraction of bins currently occupied."""
        return len(self._entries) / self.num_bins

    def domain_histogram(self) -> Dict[str, int]:
        """Dominant-domain counts over the buffered entries."""
        histogram: Dict[str, int] = {}
        for entry in self._entries:
            key = entry.dominant_domain or "<none>"
            histogram[key] = histogram.get(key, 0) + 1
        return histogram

    # -- content access ------------------------------------------------------ #
    def entries(self) -> List[BufferEntry]:
        """All occupied bins (copy of the list)."""
        return list(self._entries)

    def dialogues(self) -> List[DialogueSet]:
        """The buffered dialogue sets."""
        return [entry.dialogue for entry in self._entries]

    def embeddings(self) -> np.ndarray:
        """Stacked embeddings of all entries, shape ``(len(buffer), dim)``.

        The stacked matrix is cached between mutations; treat it as
        read-only.
        """
        if not self._entries:
            return np.zeros((0, 0))
        if self._stacked_embeddings is None:
            stacked = np.stack(
                [np.asarray(entry.embedding, dtype=np.float64) for entry in self._entries]
            )
            stacked.setflags(write=False)  # callers share the cached matrix
            self._stacked_embeddings = stacked
        return self._stacked_embeddings

    def _domain_indices(self) -> Dict[Optional[str], List[int]]:
        if self._domain_index is None:
            index: Dict[Optional[str], List[int]] = {}
            for position, entry in enumerate(self._entries):
                index.setdefault(entry.dominant_domain, []).append(position)
            self._domain_index = index
        return self._domain_index

    def entries_in_domain(self, domain: Optional[str]) -> List[BufferEntry]:
        """Entries whose dominant domain equals ``domain``."""
        positions = self._domain_indices().get(domain, [])
        return [self._entries[position] for position in positions]

    def embeddings_in_domain(self, domain: Optional[str]) -> List[np.ndarray]:
        """Embeddings of the entries sharing dominant domain ``domain``.

        This is the ``E^i_{Dom_d}`` collection the IDD metric averages over.
        """
        return [entry.embedding for entry in self.entries_in_domain(domain)]

    # -- mutation ------------------------------------------------------------ #
    def add(self, entry: BufferEntry) -> int:
        """Append ``entry`` to a free bin; returns its index.

        Raises ``RuntimeError`` when the buffer is already full — callers must
        use :meth:`replace` in that case (the decision of *which* bin to evict
        belongs to the selection policy, not to the buffer).
        """
        if self.is_full():
            raise RuntimeError("buffer is full; use replace() with an explicit victim index")
        self._entries.append(entry)
        self._insertions += 1
        self._invalidate_views()
        return len(self._entries) - 1

    def replace(self, index: int, entry: BufferEntry) -> BufferEntry:
        """Replace the entry at ``index`` with ``entry``; returns the evicted one."""
        if not 0 <= index < len(self._entries):
            raise IndexError(f"buffer index {index} out of range [0, {len(self._entries)})")
        evicted = self._entries[index]
        self._entries[index] = entry
        self._insertions += 1
        self._replacements += 1
        self._invalidate_views()
        return evicted

    def clear(self) -> None:
        """Remove every entry (the paper does *not* clear after fine-tuning;
        this exists for tests and ablations)."""
        self._entries.clear()
        self._invalidate_views()

    # -- serialization (the checkpoint contract) ----------------------------- #
    def state_dict(self) -> dict:
        """Picklable snapshot: the occupied bins plus the mutation counters."""
        return {
            "entries": list(self._entries),
            "insertions": self._insertions,
            "replacements": self._replacements,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        The buffer must have capacity for the snapshotted entries (it was
        configured from the same ``FrameworkConfig``).
        """
        entries = list(state["entries"])
        if len(entries) > self.num_bins:
            raise ValueError(
                f"snapshot holds {len(entries)} buffer entries but the buffer "
                f"capacity is {self.num_bins}"
            )
        self._entries = entries
        self._insertions = int(state["insertions"])
        self._replacements = int(state["replacements"])
        self._invalidate_views()
