"""Learning-curve containers and comparisons (the Figure 2 profiling tool)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.framework import LearningCurvePoint, PersonalizationResult


@dataclass
class LearningCurve:
    """ROUGE-1 as a function of the number of dialogue sets seen."""

    method: str
    points: List[LearningCurvePoint] = field(default_factory=list)

    @classmethod
    def from_result(cls, result: PersonalizationResult) -> "LearningCurve":
        """Extract the curve recorded by a personalization run."""
        return cls(method=result.selector_name, points=list(result.learning_curve))

    def seen(self) -> List[int]:
        """x-axis: number of dialogue sets seen at each measurement."""
        return [point.seen for point in self.points]

    def rouge(self) -> List[float]:
        """y-axis: ROUGE-1 at each measurement."""
        return [point.rouge_1 for point in self.points]

    def eval_seconds(self) -> List[float]:
        """Evaluator wall-clock seconds behind each measurement point."""
        return [point.eval_seconds for point in self.points]

    @property
    def final(self) -> float:
        """ROUGE-1 at the last measurement (0.0 for an empty curve)."""
        return self.points[-1].rouge_1 if self.points else 0.0

    @property
    def initial(self) -> float:
        """ROUGE-1 at the first measurement (0.0 for an empty curve)."""
        return self.points[0].rouge_1 if self.points else 0.0

    def improvement(self) -> float:
        """Final minus initial ROUGE-1."""
        return self.final - self.initial

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form."""
        return {
            "method": self.method,
            "seen": self.seen(),
            "rouge_1": self.rouge(),
            "eval_seconds": self.eval_seconds(),
        }


def rank_methods(curves: Sequence[LearningCurve]) -> List[Tuple[str, float]]:
    """Methods sorted by final ROUGE-1, best first."""
    return sorted(
        ((curve.method, curve.final) for curve in curves), key=lambda item: -item[1]
    )


def format_learning_curves(curves: Sequence[LearningCurve]) -> str:
    """A plain-text table of the curves (one row per measurement point)."""
    lines = ["seen\t" + "\t".join(curve.method for curve in curves)]
    num_rows = max((len(curve.points) for curve in curves), default=0)
    for row in range(num_rows):
        cells = []
        seen_value = ""
        for curve in curves:
            if row < len(curve.points):
                seen_value = str(curve.points[row].seen)
                cells.append(f"{curve.points[row].rouge_1:.4f}")
            else:
                cells.append("-")
        lines.append(f"{seen_value}\t" + "\t".join(cells))
    return "\n".join(lines)
