"""Integration tests for the personalization framework and the evaluator."""

import pytest

from repro.core.framework import (
    FrameworkConfig,
    PersonalizationFramework,
    run_personalization,
)
from repro.core.synthesis import SynthesisConfig
from repro.data.stream import DialogueStream, StreamConfig
from repro.eval.learning_curve import (
    LearningCurve,
    format_learning_curves,
    rank_methods,
)
from repro.eval.rouge_eval import EvaluationConfig, ResponseEvaluator
from repro.llm.finetune import FineTuneConfig
from repro.nn.lora import LoRAConfig


@pytest.fixture()
def small_config():
    return FrameworkConfig(
        buffer_bins=4,
        finetune_interval=8,
        selector="ours",
        synthesis=SynthesisConfig(num_per_item=1, seed=0),
        finetune=FineTuneConfig(epochs=2, batch_size=4, learning_rate=5e-3,
                                lora=LoRAConfig(rank=4)),
        seed=0,
    )


@pytest.fixture()
def stream(med_generator, med_corpus):
    noisy = med_generator.make_interaction_stream(
        med_corpus.dialogues()[:16], filler_rate=0.2, thin_rate=0.2, rng=0
    )
    from repro.data.dialogue import DialogueCorpus

    return DialogueStream(DialogueCorpus(noisy, name="test-stream"),
                          StreamConfig(finetune_interval=8))


@pytest.fixture()
def evaluator(med_corpus):
    return ResponseEvaluator(
        med_corpus.dialogues()[40:52],
        EvaluationConfig(subset_size=6, max_new_tokens=12, greedy=True, seed=0),
    )


class TestFrameworkConfig:
    def test_invalid_values(self):
        with pytest.raises(ValueError):
            FrameworkConfig(buffer_bins=0)
        with pytest.raises(ValueError):
            FrameworkConfig(finetune_interval=0)


class TestPersonalizationFramework:
    def test_process_dialogue_annotates_accepted(self, fresh_llm, small_config, med_corpus, lexicons):
        framework = PersonalizationFramework(fresh_llm, config=small_config, lexicons=lexicons)
        dialogue = med_corpus[0]
        decision = framework.process_dialogue(dialogue)
        assert decision.accepted
        assert framework.buffer[0].annotated
        assert framework.buffer[0].dialogue.response == dialogue.gold_response
        assert framework.annotator.request_count == 1

    def test_run_produces_learning_curve_and_reports(
        self, fresh_llm, small_config, stream, evaluator, lexicons
    ):
        framework = PersonalizationFramework(fresh_llm, config=small_config, lexicons=lexicons)
        result = framework.run(stream, evaluator=evaluator)
        assert result.total_seen == len(stream)
        assert len(result.finetune_reports) == stream.num_finetune_rounds()
        # initial point + one point per fine-tune round
        assert len(result.learning_curve) == len(result.finetune_reports) + 1
        assert result.learning_curve[0].seen == 0
        assert 0.0 <= result.final_rouge <= 1.0
        assert result.annotation_requests > 0
        assert result.buffer_occupancy > 0
        assert "finetune" in result.timings

    def test_buffer_not_cleared_after_finetune(self, fresh_llm, small_config, stream, lexicons):
        framework = PersonalizationFramework(fresh_llm, config=small_config, lexicons=lexicons)
        result = framework.run(stream, evaluator=None)
        assert len(framework.buffer) > 0
        assert len(result.finetune_reports) >= 1

    def test_regenerate_responses_mode(self, fresh_llm, med_corpus, lexicons):
        config = FrameworkConfig(
            buffer_bins=2, finetune_interval=4, selector="fifo",
            synthesis=SynthesisConfig(num_per_item=0),
            finetune=FineTuneConfig(epochs=1, batch_size=2, learning_rate=1e-3),
            regenerate_responses=True,
        )
        framework = PersonalizationFramework(fresh_llm, config=config, lexicons=lexicons)
        decision = framework.process_dialogue(med_corpus[0])
        assert decision.accepted
        assert "generation" in framework.engine.stage_seconds

    def test_custom_selector_injection(self, fresh_llm, small_config, lexicons):
        from repro.core.baselines import FIFOReplaceSelector
        from repro.core.buffer import DataBuffer
        from repro.core.metrics import QualityScorer

        buffer = DataBuffer(small_config.buffer_bins)
        scorer = QualityScorer(fresh_llm, lexicons)
        selector = FIFOReplaceSelector(buffer, scorer)
        framework = PersonalizationFramework(
            fresh_llm, config=small_config, lexicons=lexicons, selector=selector
        )
        assert framework.selector is selector

    def test_run_personalization_wrapper(self, fresh_llm, med_corpus, lexicons):
        config = FrameworkConfig(
            buffer_bins=2, finetune_interval=6, selector="random",
            synthesis=SynthesisConfig(num_per_item=0),
            finetune=FineTuneConfig(epochs=1, batch_size=4, learning_rate=1e-3),
        )
        result = run_personalization(fresh_llm, med_corpus.dialogues()[:6], config=config,
                                     lexicons=lexicons)
        assert result.total_seen == 6


class TestResponseEvaluator:
    def test_scores_in_unit_interval(self, pretrained_llm, evaluator):
        report = evaluator.evaluate(pretrained_llm)
        assert report.num_evaluated == 6
        assert all(0.0 <= score <= 1.0 for score in report.scores)
        assert 0.0 <= report.mean_rouge_1 <= 1.0

    def test_callable_returns_mean(self, pretrained_llm, evaluator):
        assert evaluator(pretrained_llm) == pytest.approx(
            evaluator.evaluate(pretrained_llm).mean_rouge_1
        )

    def test_deterministic_across_calls(self, pretrained_llm, evaluator):
        assert evaluator(pretrained_llm) == pytest.approx(evaluator(pretrained_llm))

    def test_empty_eval_set_raises(self):
        with pytest.raises(ValueError):
            ResponseEvaluator([])

    def test_subset_respected(self, med_corpus):
        evaluator = ResponseEvaluator(
            med_corpus.dialogues(), EvaluationConfig(subset_size=5, greedy=True)
        )
        assert len(evaluator.dialogues) == 5


class TestLearningCurve:
    def _result(self, method="ours", values=(0.1, 0.2, 0.3)):
        from repro.core.framework import LearningCurvePoint, PersonalizationResult

        result = PersonalizationResult(selector_name=method)
        result.learning_curve = [
            LearningCurvePoint(seen=10 * i, rouge_1=v, finetune_round=i)
            for i, v in enumerate(values)
        ]
        return result

    def test_from_result_and_accessors(self):
        curve = LearningCurve.from_result(self._result())
        assert curve.final == pytest.approx(0.3)
        assert curve.initial == pytest.approx(0.1)
        assert curve.improvement() == pytest.approx(0.2)
        assert curve.seen() == [0, 10, 20]

    def test_comparisons_and_formatting(self):
        curves = [
            LearningCurve.from_result(self._result("ours", (0.1, 0.5))),
            LearningCurve.from_result(self._result("fifo", (0.1, 0.2))),
        ]
        assert rank_methods(curves) == [("ours", pytest.approx(0.5)), ("fifo", pytest.approx(0.2))]
        table = format_learning_curves(curves)
        assert "ours" in table and "fifo" in table
