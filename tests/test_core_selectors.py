"""Tests for the proposed selection policy and all baseline policies."""

import pytest

from repro.core.baselines import (
    ABLATION_NAMES,
    ALL_POLICY_NAMES,
    BASELINE_NAMES,
    FIFOReplaceSelector,
    KCenterSelector,
    RandomReplaceSelector,
    SingleMetricSelector,
    make_selector,
)
from repro.core.buffer import DataBuffer
from repro.core.metrics import QualityScorer
from repro.core.selector import QualityScoreSelector
from repro.data.dialogue import DialogueSet
from repro.data.lexicons import builtin_lexicons
from repro.data.synthetic import QUALITY_FILLER, QUALITY_RICH


@pytest.fixture(scope="module")
def scorer(pretrained_llm):
    lexicons = builtin_lexicons().subset(
        ["medical_admin", "medical_anatomy", "medical_drug", "medical_symptom"]
    )
    return QualityScorer(pretrained_llm, lexicons)


def _rich(i):
    return DialogueSet(
        question=f"what dose of insulin and aspirin should i take for pain {i}",
        response="here is some general information regarding insulin",
        domain="medical_drug",
        metadata={"quality": QUALITY_RICH},
    )


def _filler(i):
    return DialogueSet(
        question="hello again how are you doing today",
        response="glad to hear from you again",
        domain=None,
        metadata={"quality": QUALITY_FILLER},
    )


class TestQualityScoreSelector:
    def test_fills_buffer_before_rejecting(self, scorer):
        buffer = DataBuffer(3)
        selector = QualityScoreSelector(buffer, scorer, rng=0)
        decisions = [selector.offer(_rich(i)) for i in range(3)]
        assert all(decision.accepted for decision in decisions)
        assert buffer.is_full()

    def test_rejects_when_not_dominating(self, scorer, med_corpus):
        buffer = DataBuffer(2)
        selector = QualityScoreSelector(buffer, scorer, rng=0)
        dialogues = med_corpus.dialogues()
        for dialogue in dialogues[:2]:
            selector.offer(dialogue)
        # Offering the exact same dialogue again cannot strictly dominate
        # (equal scores on EOE/DSS), so it must be rejected.
        decision = selector.offer(dialogues[0])
        assert not decision.accepted
        assert decision.scores is not None

    def test_replacement_only_under_strict_dominance(self, scorer):
        """Once full, every accepted offer must be a replacement, and the
        replacement rule must actually have been satisfied (the new item's
        stored scores dominate nobody still in the buffer by construction,
        but the decision itself must be consistent)."""
        buffer = DataBuffer(2)
        selector = QualityScoreSelector(buffer, scorer, rng=0)
        selector.offer(_filler(0))
        selector.offer(_filler(1))
        assert buffer.is_full()
        decisions = [selector.offer(_rich(i)) for i in range(5)]
        for decision in decisions:
            if decision.accepted:
                assert decision.was_replacement
                assert decision.evicted is not None
            else:
                assert decision.scores is not None
        assert len(buffer) == 2  # capacity never exceeded

    def test_scores_stored_on_entries(self, scorer):
        buffer = DataBuffer(2)
        selector = QualityScoreSelector(buffer, scorer, rng=0)
        selector.offer(_rich(0))
        assert buffer[0].scores is not None

    def test_acceptance_statistics(self, scorer):
        buffer = DataBuffer(1)
        selector = QualityScoreSelector(buffer, scorer, rng=0)
        selector.offer(_rich(0))
        selector.offer(_rich(0))
        assert selector.offered_count == 2
        assert selector.accepted_count == 1
        assert selector.acceptance_rate() == 0.5


class TestRandomReplace:
    def test_accepts_every_arrival_until_full(self, scorer):
        buffer = DataBuffer(2)
        selector = RandomReplaceSelector(buffer, scorer, rng=0)
        for i in range(2):
            assert selector.offer(_rich(i)).accepted
        assert buffer.is_full()

    def test_reservoir_acceptance_rate_decays(self, scorer):
        buffer = DataBuffer(2)
        selector = RandomReplaceSelector(buffer, scorer, rng=0)
        accepted = sum(selector.offer(_rich(i)).accepted for i in range(30))
        assert 2 <= accepted < 30


class TestFIFOReplace:
    def test_evicts_oldest(self, scorer):
        buffer = DataBuffer(2)
        selector = FIFOReplaceSelector(buffer, scorer, rng=0)
        selector.offer(_rich(0))
        selector.offer(_rich(1))
        decision = selector.offer(_rich(2))
        assert decision.accepted and decision.evicted is not None
        assert "0" in decision.evicted.dialogue.question
        remaining = {entry.dialogue.question for entry in buffer}
        assert all("0" not in question for question in remaining)


class TestKCenter:
    def test_fills_then_swaps_for_coverage(self, scorer, med_corpus, alpaca_corpus):
        buffer = DataBuffer(4)
        selector = KCenterSelector(buffer, scorer, rng=0)
        for dialogue in med_corpus.dialogues()[:4]:
            assert selector.offer(dialogue).accepted
        # Offer a dialogue from a very different corpus; it should be accepted
        # if it increases coverage, or rejected otherwise — but never crash and
        # never exceed capacity.
        selector.offer(alpaca_corpus.dialogues()[0])
        assert len(buffer) == 4

    def test_duplicate_rejected(self, scorer):
        buffer = DataBuffer(2)
        selector = KCenterSelector(buffer, scorer, rng=0)
        selector.offer(_rich(0))
        selector.offer(_filler(0))
        decision = selector.offer(_rich(0))
        assert not decision.accepted


class TestSingleMetric:
    @pytest.mark.parametrize("metric", ["eoe", "dss", "idd"])
    def test_replaces_weakest_entry(self, scorer, metric):
        buffer = DataBuffer(2)
        selector = SingleMetricSelector(buffer, scorer, metric=metric, rng=0)
        selector.offer(_filler(0))
        selector.offer(_filler(1))
        selector.offer(_rich(0))
        assert selector.name == metric
        assert len(buffer) == 2

    def test_invalid_metric(self, scorer):
        with pytest.raises(ValueError):
            SingleMetricSelector(DataBuffer(2), scorer, metric="rouge")


class TestFactory:
    @pytest.mark.parametrize("name", ALL_POLICY_NAMES)
    def test_make_selector_known_names(self, scorer, name):
        selector = make_selector(name, DataBuffer(2), scorer, rng=0)
        assert selector.offer(_rich(0)).accepted

    def test_make_selector_aliases(self, scorer):
        assert isinstance(make_selector("proposed", DataBuffer(2), scorer), QualityScoreSelector)
        assert isinstance(make_selector("k-center", DataBuffer(2), scorer), KCenterSelector)

    def test_unknown_name_raises(self, scorer):
        with pytest.raises(ValueError):
            make_selector("magic", DataBuffer(2), scorer)

    def test_name_constants(self):
        assert set(BASELINE_NAMES) == {"random", "fifo", "kcenter"}
        assert set(ABLATION_NAMES) == {"eoe", "dss", "idd"}
