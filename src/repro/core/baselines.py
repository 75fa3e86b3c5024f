"""Baseline selection policies (Section 4.1 of the paper).

* :class:`RandomReplaceSelector` — "selects data uniformly at random from new
  data to replace the ones already in the buffer"; implemented as reservoir
  sampling (every seen item equally likely to be retained), which is the
  strong variant the continual-learning literature uses.
* :class:`FIFOReplaceSelector` — replaces the oldest buffered entry.
* :class:`KCenterSelector` — streaming core-set heuristic in embedding space:
  an arrival is admitted only when doing so increases the buffer's minimum
  pairwise dissimilarity (i.e. improves coverage of the feature space).
* :class:`SingleMetricSelector` — the ablation baselines that use exactly one
  of EOE / DSS / IDD to drive replacement (Table 4).

All baselines share the :class:`~repro.core.selector.SelectionPolicy`
interface and the same buffer/bin structure, and the framework applies the
same annotation and data-synthesis stages to whatever they select, matching
the paper's "for fair comparison" setup.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.buffer import BufferEntry
from repro.core.metrics import QualityScores
from repro.core.selector import SelectionDecision, SelectionPolicy
from repro.data.dialogue import DialogueSet
from repro.textmetrics.similarity import pairwise_cosine_similarity
from repro.utils.config import require_choice


class RandomReplaceSelector(SelectionPolicy):
    """Random replacement by reservoir sampling."""

    name = "random"

    def _decide(self, dialogue: DialogueSet) -> SelectionDecision:
        if not self.buffer.is_full():
            return self._insert(self._build_entry(dialogue), None)
        # Keep each of the n items seen so far with equal probability k/n.
        keep_probability = self.buffer.capacity / max(self._offered, 1)
        if self._rng.random() >= keep_probability:
            return SelectionDecision(accepted=False)
        victim = int(self._rng.integers(len(self.buffer)))
        return self._insert(self._build_entry(dialogue), victim)


class FIFOReplaceSelector(SelectionPolicy):
    """First-in-first-out replacement: always evict the oldest entry."""

    name = "fifo"

    def _decide(self, dialogue: DialogueSet) -> SelectionDecision:
        entry = self._build_entry(dialogue)
        if not self.buffer.is_full():
            return self._insert(entry, None)
        oldest_index = min(
            range(len(self.buffer)), key=lambda index: self.buffer[index].arrival_index
        )
        return self._insert(entry, oldest_index)


class KCenterSelector(SelectionPolicy):
    """Streaming K-Center (core-set) selection in embedding space.

    The buffered entries are treated as centers.  A new arrival is admitted
    only if swapping it for one endpoint of the currently closest pair of
    centers would increase the minimum pairwise dissimilarity — i.e. only if
    it spreads the centers further apart and therefore covers the embedding
    space better.  This is the standard greedy adaptation of the core-set
    active-learning objective (Sener & Savarese, 2017) to a streaming buffer.
    """

    name = "kcenter"

    def _decide(self, dialogue: DialogueSet) -> SelectionDecision:
        entry = self._build_entry(dialogue)
        if not self.buffer.is_full():
            return self._insert(entry, None)

        embeddings = self.buffer.embeddings()
        if embeddings.size == 0:
            return self._insert(entry, None)
        # Buffer-buffer and candidate-buffer distances must come from the
        # same routine on one stacked matrix: an exact-duplicate candidate
        # then gets bit-identical distances to its twin, so "swap in the
        # duplicate" cannot read as a rounding-level improvement.
        new_vector = np.asarray(entry.embedding, dtype=np.float64)
        count = len(self.buffer)
        stacked = np.vstack([embeddings, new_vector])
        full_dissimilarity = 1.0 - pairwise_cosine_similarity(stacked)
        dissimilarity = full_dissimilarity[:count, :count].copy()
        np.fill_diagonal(dissimilarity, np.inf)
        new_distances = full_dissimilarity[count, :count]
        # The closest pair of existing centers limits current coverage.
        flat_index = int(np.argmin(dissimilarity))
        row, column = np.unravel_index(flat_index, dissimilarity.shape)
        min_pair_distance = float(dissimilarity[row, column])

        # Candidate swap: replace one endpoint of the closest pair.  After the
        # swap, that endpoint's distances are replaced by the new item's
        # distances (excluding the evicted row itself).  Cosine distances are
        # O(1), so an "improvement" at float rounding scale is noise, not
        # better coverage — require it to clear a tiny threshold.
        best_victim: Optional[int] = None
        best_improvement = 1e-9
        for victim in (int(row), int(column)):
            remaining = [i for i in range(len(self.buffer)) if i != victim]
            if not remaining:
                continue
            reduced = dissimilarity[np.ix_(remaining, remaining)]
            new_to_remaining = new_distances[remaining]
            candidate_min = min(float(reduced.min()), float(new_to_remaining.min()))
            improvement = candidate_min - min_pair_distance
            if improvement > best_improvement:
                best_improvement = improvement
                best_victim = victim
        if best_victim is None:
            return SelectionDecision(accepted=False)
        return self._insert(entry, best_victim)


class SingleMetricSelector(SelectionPolicy):
    """Ablation policy that ranks replacements by a single quality metric.

    With ``metric='eoe'`` (or ``'dss'`` / ``'idd'``) an arrival replaces the
    buffered entry with the lowest value of that metric, provided the arrival
    scores strictly higher.  Used for the Table 4 ablation.
    """

    def __init__(self, buffer, scorer, metric: str, rng=None) -> None:
        super().__init__(buffer, scorer, rng=rng)
        require_choice("metric", metric, ("eoe", "dss", "idd"))
        self.metric = metric
        self.name = metric

    def _score(self, dialogue: DialogueSet) -> tuple[BufferEntry, QualityScores]:
        text = dialogue.text()
        token_embeddings = self.scorer.embedder.token_embeddings(text)
        text_embedding = np.asarray(token_embeddings, dtype=np.float64).mean(axis=0)
        domain = self.scorer.dominant_domain(text)
        same_domain = self.buffer.embeddings_in_domain(domain)
        all_embeddings = [entry.embedding for entry in self.buffer]
        scores = self.scorer.score(
            text,
            same_domain,
            token_embeddings=token_embeddings,
            text_embedding=text_embedding,
            fallback_embeddings=all_embeddings,
        )
        entry = BufferEntry(
            dialogue=dialogue,
            embedding=text_embedding,
            dominant_domain=domain,
            scores=scores,
            arrival_index=self._offered,
        )
        return entry, scores

    def _decide(self, dialogue: DialogueSet) -> SelectionDecision:
        entry, scores = self._score(dialogue)
        if not self.buffer.is_full():
            return self._insert(entry, None)
        values: List[float] = []
        for existing in self.buffer:
            if existing.scores is None:
                values.append(float("-inf"))
            else:
                values.append(existing.scores.get(self.metric))
        weakest = int(np.argmin(values))
        if scores.get(self.metric) > values[weakest]:
            return self._insert(entry, weakest)
        return SelectionDecision(accepted=False, scores=scores)


def make_selector(
    name: str,
    buffer,
    scorer,
    rng=None,
) -> SelectionPolicy:
    """Factory mapping a policy name to a selector instance.

    Known names: ``ours``, ``random``, ``fifo``, ``kcenter``, ``eoe``,
    ``dss``, ``idd``.
    """
    from repro.core.selector import QualityScoreSelector

    name = selector_name(name)
    if name == "ours":
        return QualityScoreSelector(buffer, scorer, rng=rng)
    if name == "random":
        return RandomReplaceSelector(buffer, scorer, rng=rng)
    if name == "fifo":
        return FIFOReplaceSelector(buffer, scorer, rng=rng)
    if name == "kcenter":
        return KCenterSelector(buffer, scorer, rng=rng)
    return SingleMetricSelector(buffer, scorer, metric=name, rng=rng)


def selector_name(name: str) -> str:
    """The policy name :func:`make_selector` builds for ``name``.

    Case-insensitive; ``quality``/``proposed`` mean ``ours`` and ``k-center``
    means ``kcenter``.  Raises :class:`ValueError` for an unknown name.
    """
    name = name.lower()
    name = _SELECTOR_ALIASES.get(name, name)
    if name not in ALL_POLICY_NAMES:
        expected = ", ".join(repr(known) for known in ALL_POLICY_NAMES)
        raise ValueError(f"unknown selector {name!r}; expected one of {expected}")
    return name


_SELECTOR_ALIASES = {"quality": "ours", "proposed": "ours", "k-center": "kcenter"}

BASELINE_NAMES = ("random", "fifo", "kcenter")
ABLATION_NAMES = ("eoe", "dss", "idd")
ALL_POLICY_NAMES = ("ours",) + BASELINE_NAMES + ABLATION_NAMES
