"""Experiment E3 — Table 3 of the paper.

ROUGE-1 on the MedDialog analogue as a function of buffer size (number of
bins), for the proposed method and the three baselines.  The learning rate is
scaled with the square root of the batch size exactly as the paper describes
(buffer size doubles → learning rate grows by √2, anchored at the preset's
base buffer size and learning rate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.buffer import buffer_size_kb
from repro.core.framework import PersonalizationResult
from repro.experiments.common import (
    DEFAULT_METHODS,
    format_table,
    mean_final_rouge,
    prepare_environment,
    run_method_mean,
)
from repro.experiments.presets import ExperimentScale, get_scale
from repro.nn.optim import sqrt_batch_scaled_lr


@dataclass
class Table3Result:
    """ROUGE-1 per buffer size (bins) per method."""

    dataset: str
    scores: Dict[int, Dict[str, float]] = field(default_factory=dict)
    results: Dict[int, Dict[str, PersonalizationResult]] = field(default_factory=dict)
    buffer_sizes_kb: Dict[int, float] = field(default_factory=dict)
    methods: List[str] = field(default_factory=list)
    bins_list: List[int] = field(default_factory=list)

    def score(self, bins: int, method: str) -> float:
        """ROUGE-1 for the given buffer size and method."""
        return self.scores[bins][method]

    def ours_series(self, method: str = "ours") -> List[float]:
        """ROUGE-1 of ``method`` ordered by increasing buffer size."""
        return [self.scores[bins][method] for bins in self.bins_list]

    def format(self) -> str:
        """Plain-text rendering with buffer sizes in KB (paper units)."""
        rows = [f"{self.buffer_sizes_kb[bins]:.0f}KB/{bins}bins" for bins in self.bins_list]
        values = {
            f"{self.buffer_sizes_kb[bins]:.0f}KB/{bins}bins": self.scores[bins]
            for bins in self.bins_list
        }
        return format_table(rows, self.methods, values, row_label="buffer")


def run_table3(
    dataset: str = "meddialog",
    bins_list: Optional[Sequence[int]] = None,
    methods: Sequence[str] = DEFAULT_METHODS,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    num_seeds: int = 1,
    run_dir: Optional[Union[str, Path]] = None,
) -> Table3Result:
    """Run the buffer-size sweep (averaged over ``num_seeds`` seeds)."""
    scale = scale or get_scale(seed=seed)
    bins_list = list(bins_list if bins_list is not None else scale.buffer_bins_sweep)
    env = prepare_environment(dataset, scale=scale, seed=seed)

    table = Table3Result(dataset=dataset, methods=list(methods), bins_list=bins_list)
    for bins in bins_list:
        learning_rate = sqrt_batch_scaled_lr(
            scale.learning_rate, base_batch_size=scale.buffer_bins, batch_size=bins
        )
        per_method: Dict[str, PersonalizationResult] = {}
        scores: Dict[str, float] = {}
        for method in methods:
            checkpoint_root = (
                Path(run_dir) / "checkpoints" / f"bins{bins}" / method
                if run_dir is not None
                else None
            )
            repeats = run_method_mean(
                env,
                method,
                num_seeds=num_seeds,
                buffer_bins=bins,
                learning_rate=learning_rate,
                checkpoint_root=checkpoint_root,
            )
            per_method[method] = repeats[0]
            scores[method] = mean_final_rouge(repeats)
        table.results[bins] = per_method
        table.scores[bins] = scores
        table.buffer_sizes_kb[bins] = buffer_size_kb(bins)
    return table
