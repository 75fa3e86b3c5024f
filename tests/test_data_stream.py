"""Tests for the temporally-correlated stream simulator."""

import pytest

from repro.data.dialogue import DialogueCorpus, DialogueSet
from repro.data.stream import DialogueStream, StreamConfig, temporal_correlation_index


def _corpus(num_per_domain=10, domains=("a", "b", "c")):
    dialogues = []
    for domain in domains:
        for index in range(num_per_domain):
            dialogues.append(
                DialogueSet(question=f"{domain} question {index}", response="r", domain=domain)
            )
    return DialogueCorpus(dialogues, name="toy")


def _filler_corpus(size=8):
    """A corpus of only filler items (domain ``None``)."""
    return DialogueCorpus(
        [DialogueSet(question=f"hm {index}", response="ok") for index in range(size)],
        name="filler",
    )


class TestTemporalCorrelationIndex:
    def test_blocked_order_is_high(self):
        assert temporal_correlation_index(_corpus().dialogues()) > 0.8

    def test_all_filler_corpus_is_zero(self):
        # No labelled items at all: fewer than two domains to compare.
        assert temporal_correlation_index(_filler_corpus().dialogues()) == 0.0

    def test_single_labelled_among_filler_is_zero(self):
        dialogues = _filler_corpus().dialogues()
        dialogues.insert(3, DialogueSet(question="q", response="r", domain="a"))
        assert temporal_correlation_index(dialogues) == 0.0

    def test_filler_items_are_transparent(self):
        # Filler between two same-domain items must not break the adjacency.
        dialogues = [
            DialogueSet(question="q1", response="r", domain="a"),
            DialogueSet(question="hm", response="ok"),
            DialogueSet(question="q2", response="r", domain="a"),
        ]
        assert temporal_correlation_index(dialogues) == 1.0

    def test_alternating_order_is_low(self):
        dialogues = []
        for index in range(12):
            dialogues.append(DialogueSet(question=str(index), response="r", domain="ab"[index % 2]))
        assert temporal_correlation_index(dialogues) == 0.0

    def test_short_or_unlabelled_streams(self):
        assert temporal_correlation_index([]) == 0.0
        assert temporal_correlation_index([DialogueSet(question="q", response="r")]) == 0.0


class TestDialogueStream:
    def test_chunks_cover_everything(self):
        stream = DialogueStream(_corpus(), StreamConfig(finetune_interval=7))
        chunks = list(stream.chunks())
        assert sum(len(chunk) for chunk in chunks) == len(stream)
        assert all(len(chunk) == 7 for chunk in chunks[:-1])
        assert stream.num_finetune_rounds() == len(chunks)

    def test_preserve_order_default(self):
        corpus = _corpus()
        stream = DialogueStream(corpus)
        assert [d.question for d in stream] == [d.question for d in corpus]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            StreamConfig(finetune_interval=0)

    def test_len_and_dialogues(self):
        stream = DialogueStream(_corpus())
        assert len(stream) == 30
        assert len(stream.dialogues()) == 30

    def test_chunking_exact_multiple_of_interval(self):
        # 30 dialogues at interval 10: three full chunks, no trailing stub.
        stream = DialogueStream(_corpus(), StreamConfig(finetune_interval=10))
        chunks = list(stream.chunks())
        assert [len(chunk) for chunk in chunks] == [10, 10, 10]
        assert stream.num_finetune_rounds() == 3
        assert sum(len(chunk) for chunk in chunks) == len(stream)

    def test_chunks_skip_at_boundary(self):
        stream = DialogueStream(_corpus(), StreamConfig(finetune_interval=10))
        chunks = list(stream.chunks(skip=10))
        assert [len(chunk) for chunk in chunks] == [10, 10]
        assert chunks[0][0].question == stream.dialogues()[10].question

    def test_chunks_skip_mid_chunk_realigns(self):
        # A mid-chunk cursor first yields the remainder of its chunk, keeping
        # later chunk boundaries on the original interval grid.
        stream = DialogueStream(_corpus(), StreamConfig(finetune_interval=10))
        chunks = list(stream.chunks(skip=4))
        assert [len(chunk) for chunk in chunks] == [6, 10, 10]

    def test_chunks_skip_everything(self):
        stream = DialogueStream(_corpus(), StreamConfig(finetune_interval=10))
        assert list(stream.chunks(skip=30)) == []
        assert list(stream.chunks(skip=35)) == []

    def test_chunks_skip_negative_raises(self):
        stream = DialogueStream(_corpus(), StreamConfig(finetune_interval=10))
        with pytest.raises(ValueError):
            list(stream.chunks(skip=-1))
