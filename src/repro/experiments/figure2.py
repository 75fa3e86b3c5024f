"""Experiment E2 — Figure 2 of the paper.

The learning curve (ROUGE-1 versus number of dialogue sets seen) of the
proposed framework and the three baselines on each of the six dataset
analogues with a fixed buffer size.  The same runs that fill Table 2 also
produce these curves; this module exposes them as series that can be printed
or plotted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.data.synthetic import DATASET_NAMES
from repro.eval.learning_curve import LearningCurve, format_learning_curves
from repro.experiments.common import (
    DEFAULT_METHODS,
    prepare_environment,
    run_method_comparison,
)
from repro.experiments.presets import ExperimentScale, get_scale


@dataclass
class Figure2Result:
    """Learning curves per dataset per method."""

    curves: Dict[str, Dict[str, LearningCurve]] = field(default_factory=dict)
    methods: List[str] = field(default_factory=list)
    datasets: List[str] = field(default_factory=list)

    def curve(self, dataset: str, method: str) -> LearningCurve:
        """The learning curve of ``method`` on ``dataset``."""
        return self.curves[dataset][method]

    def final_improvement(self, dataset: str, method: str) -> float:
        """Final minus initial ROUGE-1 of ``method`` on ``dataset``."""
        return self.curve(dataset, method).improvement()

    def format(self, dataset: str) -> str:
        """Plain-text rendering of one dataset's panel."""
        return format_learning_curves(
            [self.curves[dataset][method] for method in self.methods]
        )


def run_figure2(
    datasets: Sequence[str] = DATASET_NAMES,
    methods: Sequence[str] = DEFAULT_METHODS,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    num_seeds: int = 1,
    run_dir: Optional[Union[str, Path]] = None,
) -> Figure2Result:
    """Run the learning-curve comparison on every dataset analogue.

    ``run_dir`` (set by the experiment runner CLI) enables per-run engine
    checkpoints under ``run_dir/checkpoints/<dataset>/<method>/seed<seed>``.
    """
    scale = scale or get_scale(seed=seed)
    figure = Figure2Result(methods=list(methods), datasets=list(datasets))
    for dataset in datasets:
        env = prepare_environment(dataset, scale=scale, seed=seed)
        checkpoint_root = (
            Path(run_dir) / "checkpoints" / dataset if run_dir is not None else None
        )
        results = run_method_comparison(
            env, methods=methods, num_seeds=num_seeds, checkpoint_root=checkpoint_root
        )
        figure.curves[dataset] = {
            method: LearningCurve.from_result(result) for method, result in results.items()
        }
    return figure
