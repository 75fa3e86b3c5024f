"""Experiment E1 — Table 2 of the paper.

ROUGE-1 of Random Replace, FIFO Replace, K-Center and the proposed
quality-score selection on all six dataset analogues with a fixed buffer size
(128 bins / 2816 KB in the paper; the preset's ``buffer_bins`` here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.framework import PersonalizationResult
from repro.data.synthetic import DATASET_NAMES
from repro.experiments.common import (
    DEFAULT_METHODS,
    comparison_scores,
    format_table,
    prepare_environment,
    run_method_comparison,
)
from repro.experiments.presets import ExperimentScale, get_scale


@dataclass
class Table2Result:
    """ROUGE-1 per dataset per method, plus the underlying run results."""

    scores: Dict[str, Dict[str, float]] = field(default_factory=dict)
    results: Dict[str, Dict[str, PersonalizationResult]] = field(default_factory=dict)
    methods: List[str] = field(default_factory=list)
    datasets: List[str] = field(default_factory=list)

    def score(self, dataset: str, method: str) -> float:
        """ROUGE-1 of ``method`` on ``dataset``."""
        return self.scores[dataset][method]

    def best_method(self, dataset: str) -> str:
        """The method with the highest ROUGE-1 on ``dataset``."""
        row = self.scores[dataset]
        return max(row, key=row.get)

    def wins_for(self, method: str) -> int:
        """Number of datasets on which ``method`` is the best."""
        return sum(1 for dataset in self.datasets if self.best_method(dataset) == method)

    def format(self) -> str:
        """Plain-text rendering in the paper's row/column layout."""
        return format_table(self.datasets, self.methods, self.scores)


def run_table2(
    datasets: Sequence[str] = DATASET_NAMES,
    methods: Sequence[str] = DEFAULT_METHODS,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    num_seeds: int = 1,
    run_dir: Optional[Union[str, Path]] = None,
) -> Table2Result:
    """Run the Table 2 comparison.

    Every method runs from an identical pre-trained base model per dataset;
    the reported number is the final ROUGE-1 of the personalization run
    (averaged over ``num_seeds`` framework seeds when ``num_seeds > 1``).
    """
    scale = scale or get_scale(seed=seed)
    table = Table2Result(methods=list(methods), datasets=list(datasets))
    for dataset in datasets:
        env = prepare_environment(dataset, scale=scale, seed=seed)
        checkpoint_root = (
            Path(run_dir) / "checkpoints" / dataset if run_dir is not None else None
        )
        results = run_method_comparison(
            env, methods=methods, num_seeds=num_seeds, checkpoint_root=checkpoint_root
        )
        table.results[dataset] = results
        table.scores[dataset] = comparison_scores(results)
    return table
