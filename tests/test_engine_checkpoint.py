"""Tests for the pipeline engine, its observers and checkpoint/resume.

The centerpiece is the round-trip test: a run interrupted at a fine-tuning
boundary, checkpointed and resumed in a fresh process-equivalent framework
must produce a learning curve *bit-identical* to the uninterrupted run —
same seeds, same scores.
"""

import pytest

from repro.core.checkpoint import CheckpointError, CheckpointManager
from repro.core.engine import (
    STAGES,
    DialogueEvent,
    EvalEvent,
    PipelineObserver,
    RoundEndEvent,
    RoundStartEvent,
)
from repro.core.framework import FrameworkConfig, PersonalizationFramework
from repro.core.synthesis import SynthesisConfig
from repro.data.dialogue import DialogueCorpus
from repro.data.stream import DialogueStream, StreamConfig
from repro.eval.rouge_eval import EvaluationConfig, ResponseEvaluator
from repro.llm.finetune import FineTuneConfig
from repro.nn.lora import LoRAConfig
from repro.obs import MetricsRegistry

INTERVAL = 8


def _config() -> FrameworkConfig:
    # LoRA dropout is deliberately non-zero: its per-layer RNGs advance every
    # fine-tuning step, so the round trip also proves dropout-RNG capture.
    return FrameworkConfig(
        buffer_bins=4,
        finetune_interval=INTERVAL,
        selector="ours",
        synthesis=SynthesisConfig(num_per_item=1, seed=0),
        finetune=FineTuneConfig(
            epochs=2, batch_size=4, learning_rate=5e-3,
            lora=LoRAConfig(rank=4, dropout_rate=0.05),
        ),
        seed=0,
    )


def _stream(dialogues) -> DialogueStream:
    return DialogueStream(
        DialogueCorpus(list(dialogues), name="ckpt-stream"),
        StreamConfig(finetune_interval=INTERVAL),
    )


@pytest.fixture()
def dialogues(med_generator, med_corpus):
    noisy = med_generator.make_interaction_stream(
        med_corpus.dialogues()[:16], filler_rate=0.2, thin_rate=0.2, rng=0
    )
    # Exactly two full fine-tuning chunks.
    assert len(noisy) >= 2 * INTERVAL
    return noisy[: 2 * INTERVAL]


@pytest.fixture()
def evaluator(med_corpus):
    return ResponseEvaluator(
        med_corpus.dialogues()[40:52],
        EvaluationConfig(subset_size=6, max_new_tokens=12, greedy=True, seed=0),
    )


def _curve_key(result):
    """The deterministic part of a learning curve (wall-clock excluded)."""
    return [(p.seen, p.rouge_1, p.finetune_round) for p in result.learning_curve]


class TestEngineStructure:
    def test_stage_names(self):
        assert STAGES == ("ingest", "select", "annotate", "synthesize", "finetune", "evaluate")

    def test_framework_exposes_engine(self, pretrained_llm, lexicons):
        framework = PersonalizationFramework(
            pretrained_llm.clone(), config=_config(), lexicons=lexicons
        )
        assert framework.engine.buffer is framework.buffer
        assert framework.engine.selector is framework.selector
        assert framework.engine.observers == []
        assert framework.seen_count == 0
        assert framework.finetune_round_count == 0

    def test_observers_and_callbacks_fire(self, pretrained_llm, lexicons, dialogues, evaluator):
        class Counter(PipelineObserver):
            def __init__(self):
                self.dialogues = 0
                self.round_starts = 0
                self.round_ends = 0
                self.evals = 0
                self.runs = 0

            def on_dialogue(self, event):
                assert isinstance(event, DialogueEvent)
                self.dialogues += 1

            def on_round_start(self, event):
                assert isinstance(event, RoundStartEvent)
                self.round_starts += 1

            def on_round_end(self, event):
                assert isinstance(event, RoundEndEvent)
                self.round_ends += 1

            def on_eval(self, event):
                assert isinstance(event, EvalEvent)
                self.evals += 1

            def on_run_end(self, engine):
                self.runs += 1

        class EvalScores(PipelineObserver):
            def __init__(self):
                self.scores = []

            def on_eval(self, event):
                self.scores.append(event.score)

        counter = Counter()
        framework = PersonalizationFramework(
            pretrained_llm.clone(), config=_config(), lexicons=lexicons,
            observers=[counter],
        )
        eval_scores = EvalScores()
        framework.engine.observers.append(eval_scores)
        result = framework.run(_stream(dialogues), evaluator=evaluator)

        assert counter.dialogues == len(dialogues)
        assert counter.round_starts == counter.round_ends == len(result.finetune_reports)
        # initial point + one per round
        assert counter.evals == len(result.finetune_reports) + 1
        assert counter.runs == 1
        assert eval_scores.scores == [p.rouge_1 for p in result.learning_curve]

    def test_stage_timing_is_one_measurement(
        self, pretrained_llm, lexicons, dialogues, evaluator
    ):
        """Result timings, the stage_seconds histograms, EvalEvent.seconds and
        LearningCurvePoint.eval_seconds all come from the same clock reads."""

        class EvalWatcher(PipelineObserver):
            def __init__(self, engine):
                self.engine = engine
                self.events = []
                self.saw_own_point = []

            def on_eval(self, event):
                self.events.append(event)
                point = self.engine.learning_curve[-1]
                self.saw_own_point.append(
                    (point.seen, point.rouge_1) == (event.seen, event.score)
                )

        framework = PersonalizationFramework(
            pretrained_llm.clone(), config=_config(), lexicons=lexicons
        )
        engine = framework.engine
        registry = MetricsRegistry()
        engine.observe_stages(registry)
        watcher = EvalWatcher(engine)
        engine.observers.append(watcher)
        result = framework.run(_stream(dialogues), evaluator=evaluator)

        assert set(result.timings) == {
            "selection", "annotation", "synthesis", "finetune", "evaluation"
        }
        for stage, seconds in result.timings.items():
            histogram = registry.histogram("stage_seconds", stage=stage)
            assert histogram.sum == seconds
        assert registry.histogram("stage_seconds", stage="generation").count == 0
        assert registry.histogram("stage_seconds", stage="finetune").count == len(
            result.finetune_reports
        )
        assert [event.seconds for event in watcher.events] == [
            point.eval_seconds for point in result.learning_curve
        ]
        assert watcher.saw_own_point == [True] * len(result.learning_curve)


class TestCheckpointRoundTrip:
    def test_resumed_curve_bit_identical(
        self, pretrained_llm, lexicons, dialogues, evaluator, tmp_path
    ):
        checkpoint_dir = tmp_path / "ckpt"

        # Uninterrupted reference run over the full 16-dialogue stream
        # (2 chunks of INTERVAL → 2 fine-tuning rounds).
        reference = PersonalizationFramework(
            pretrained_llm.clone(), config=_config(), lexicons=lexicons
        ).run(_stream(dialogues), evaluator=evaluator)
        assert len(reference.finetune_reports) == 2

        # "Killed" run: sees only the first chunk, checkpoints each round,
        # then the process is gone (we simply drop the framework).
        interrupted = PersonalizationFramework(
            pretrained_llm.clone(), config=_config(), lexicons=lexicons
        ).run(
            _stream(dialogues[:INTERVAL]),
            evaluator=evaluator,
            checkpoint_dir=checkpoint_dir,
        )
        assert len(interrupted.finetune_reports) == 1
        assert CheckpointManager(checkpoint_dir).exists()

        # Fresh framework (same config, same base model) resumes mid-stream.
        resumed = PersonalizationFramework(
            pretrained_llm.clone(), config=_config(), lexicons=lexicons
        ).run(_stream(dialogues), evaluator=evaluator, resume_from=checkpoint_dir)

        assert _curve_key(resumed) == _curve_key(reference)
        assert resumed.total_seen == reference.total_seen
        assert resumed.annotation_requests == reference.annotation_requests
        assert resumed.synthesized_total == reference.synthesized_total
        assert resumed.acceptance_rate == reference.acceptance_rate
        assert resumed.buffer_domain_histogram == reference.buffer_domain_histogram
        # Per-round training losses must match bit-for-bit as well.
        assert [r.losses for r in resumed.finetune_reports] == [
            r.losses for r in reference.finetune_reports
        ]
        # The interrupted prefix agrees with the reference prefix too.
        assert _curve_key(interrupted) == _curve_key(reference)[:2]

    def test_mid_chunk_hook_checkpoint_resumes_bit_identical(
        self, pretrained_llm, lexicons, dialogues, evaluator, tmp_path
    ):
        """A checkpoint saved from an on_dialogue hook mid-chunk must resume
        without re-processing or skipping, and the remainder chunk must still
        trigger the fine-tuning round at the interval boundary."""
        checkpoint_dir = tmp_path / "midchunk"

        reference = PersonalizationFramework(
            pretrained_llm.clone(), config=_config(), lexicons=lexicons
        ).run(_stream(dialogues), evaluator=evaluator)

        interrupted = PersonalizationFramework(
            pretrained_llm.clone(), config=_config(), lexicons=lexicons
        )
        save_at = INTERVAL + 3  # three dialogues into the second chunk

        class Snapshot(PipelineObserver):
            def on_dialogue(self, event):
                if event.seen == save_at:
                    interrupted.save_checkpoint(checkpoint_dir)

        interrupted.engine.observers.append(Snapshot())
        interrupted.run(_stream(dialogues), evaluator=evaluator)
        manifest = CheckpointManager(checkpoint_dir).manifest()
        assert manifest["seen"] == save_at

        resumed = PersonalizationFramework(
            pretrained_llm.clone(), config=_config(), lexicons=lexicons
        ).run(_stream(dialogues), evaluator=evaluator, resume_from=checkpoint_dir)

        assert _curve_key(resumed) == _curve_key(reference)
        assert resumed.total_seen == reference.total_seen
        assert resumed.acceptance_rate == reference.acceptance_rate
        assert [r.losses for r in resumed.finetune_reports] == [
            r.losses for r in reference.finetune_reports
        ]

    def test_manifest_reflects_progress(
        self, pretrained_llm, lexicons, dialogues, evaluator, tmp_path
    ):
        checkpoint_dir = tmp_path / "ckpt"
        PersonalizationFramework(
            pretrained_llm.clone(), config=_config(), lexicons=lexicons
        ).run(
            _stream(dialogues[:INTERVAL]),
            evaluator=evaluator,
            checkpoint_dir=checkpoint_dir,
        )
        manifest = CheckpointManager(checkpoint_dir).manifest()
        assert manifest["format_version"] == 2
        assert manifest["seen"] == INTERVAL
        assert manifest["finetune_rounds"] == 1
        assert manifest["selector"] == "ours"
        assert manifest["learning_curve_points"] == 2

    def test_save_and_load_checkpoint_methods(
        self, pretrained_llm, lexicons, dialogues, tmp_path
    ):
        checkpoint_dir = tmp_path / "manual"
        framework = PersonalizationFramework(
            pretrained_llm.clone(), config=_config(), lexicons=lexicons
        )
        for dialogue in dialogues[:INTERVAL]:
            framework.process_dialogue(dialogue)
        framework.finetune_round()
        framework.save_checkpoint(checkpoint_dir)

        restored = PersonalizationFramework(
            pretrained_llm.clone(), config=_config(), lexicons=lexicons
        )
        manifest = restored.load_checkpoint(checkpoint_dir)
        assert manifest["seen"] == INTERVAL
        assert restored.seen_count == framework.seen_count
        assert restored.finetune_round_count == framework.finetune_round_count
        assert len(restored.buffer) == len(framework.buffer)
        assert restored.selector.acceptance_rate() == framework.selector.acceptance_rate()
        # Restored weights are the fine-tuned ones, not the base clone's.
        import numpy as np

        for (name_a, tensor_a), (name_b, tensor_b) in zip(
            framework.llm.model.named_parameters(),
            restored.llm.model.named_parameters(),
        ):
            assert name_a == name_b
            np.testing.assert_array_equal(tensor_a.data, tensor_b.data)

    def test_selector_mismatch_rejected(
        self, pretrained_llm, lexicons, dialogues, tmp_path
    ):
        checkpoint_dir = tmp_path / "ours-ckpt"
        PersonalizationFramework(
            pretrained_llm.clone(), config=_config(), lexicons=lexicons
        ).run(_stream(dialogues[:INTERVAL]), checkpoint_dir=checkpoint_dir)

        import dataclasses

        fifo_config = dataclasses.replace(_config(), selector="fifo")
        mismatched = PersonalizationFramework(
            pretrained_llm.clone(), config=fifo_config, lexicons=lexicons
        )
        with pytest.raises(CheckpointError, match="selector"):
            mismatched.run(_stream(dialogues), resume_from=checkpoint_dir)

    def test_missing_checkpoint_raises(self, pretrained_llm, lexicons, dialogues, tmp_path):
        framework = PersonalizationFramework(
            pretrained_llm.clone(), config=_config(), lexicons=lexicons
        )
        with pytest.raises(CheckpointError):
            framework.run(_stream(dialogues), resume_from=tmp_path / "nope")

    def test_corrupt_manifest_raises(self, pretrained_llm, lexicons, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text("{not json")
        framework = PersonalizationFramework(
            pretrained_llm.clone(), config=_config(), lexicons=lexicons
        )
        with pytest.raises(CheckpointError):
            framework.load_checkpoint(bad)

    def test_invalid_checkpoint_every(self, pretrained_llm, lexicons, dialogues):
        framework = PersonalizationFramework(
            pretrained_llm.clone(), config=_config(), lexicons=lexicons
        )
        with pytest.raises(ValueError):
            framework.run(_stream(dialogues), checkpoint_every=0)

    def test_standalone_processing_does_not_shift_run_cursor(
        self, pretrained_llm, lexicons, dialogues
    ):
        # Dialogues processed outside run() count towards `seen` but must not
        # make a later run() skip the head of a fresh stream.
        framework = PersonalizationFramework(
            pretrained_llm.clone(), config=_config(), lexicons=lexicons
        )
        for dialogue in dialogues[:3]:
            framework.process_dialogue(dialogue)
        result = framework.run(_stream(dialogues), evaluate_initial=False)
        assert result.total_seen == 3 + len(dialogues)
        assert len(result.finetune_reports) == 2

    def test_sequential_runs_cover_each_stream_fully(
        self, pretrained_llm, lexicons, dialogues
    ):
        framework = PersonalizationFramework(
            pretrained_llm.clone(), config=_config(), lexicons=lexicons
        )
        first = framework.run(_stream(dialogues[:INTERVAL]), evaluate_initial=False)
        result = framework.run(_stream(dialogues), evaluate_initial=False)
        # The second run must not inherit the first run's cursor, and its
        # result must report only its own rounds (seen stays cumulative,
        # matching the pre-engine framework).
        assert len(first.finetune_reports) == 1
        assert result.total_seen == INTERVAL + len(dialogues)
        assert len(result.finetune_reports) == 2
