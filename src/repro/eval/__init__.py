"""Evaluation harness: ROUGE-1 response evaluation and learning curves."""

from repro.eval.learning_curve import (
    LearningCurve,
    format_learning_curves,
    rank_methods,
)
from repro.eval.rouge_eval import EvaluationConfig, EvaluationReport, ResponseEvaluator

__all__ = [
    "EvaluationConfig",
    "EvaluationReport",
    "LearningCurve",
    "ResponseEvaluator",
    "format_learning_curves",
    "rank_methods",
]
