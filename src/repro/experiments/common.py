"""Shared experiment machinery.

An experiment run consists of: generating a synthetic corpus for the chosen
dataset analogue, splitting it into the streamed 10% (scaled by the preset)
and the held-out evaluation split, pre-training one generic base model that
all methods share, and then running the personalization framework once per
selection method on *clones* of that base model so every method starts from
identical weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.framework import FrameworkConfig, PersonalizationFramework, PersonalizationResult
from repro.core.synthesis import SynthesisConfig
from repro.data.dialogue import DialogueCorpus
from repro.data.lexicons import LexiconCollection, builtin_lexicons
from repro.data.stream import DialogueStream, StreamConfig
from repro.data.synthetic import make_generator, stream_noise_preset
from repro.eval.rouge_eval import EvaluationConfig, ResponseEvaluator
from repro.experiments.presets import ExperimentScale, get_scale
from repro.llm.finetune import FineTuneConfig
from repro.llm.model import OnDeviceLLM
from repro.llm.pretrain import PretrainConfig, build_pretrained_llm
from repro.nn.lora import LoRAConfig
from repro.utils.config import require_positive
from repro.utils.logging import get_logger

_LOGGER = get_logger("experiments")

DEFAULT_METHODS = ("random", "fifo", "kcenter", "ours")
ABLATION_METHODS = ("eoe", "dss", "idd", "ours")


@dataclass
class ExperimentEnvironment:
    """Everything shared by the methods compared within one experiment."""

    dataset: str
    scale: ExperimentScale
    corpus: DialogueCorpus
    stream_corpus: DialogueCorpus
    eval_corpus: DialogueCorpus
    base_llm: OnDeviceLLM
    lexicons: LexiconCollection
    evaluator: ResponseEvaluator

    def make_stream(self) -> DialogueStream:
        """A fresh stream over the streamed split (order preserved)."""
        return DialogueStream(
            self.stream_corpus,
            StreamConfig(finetune_interval=self.scale.finetune_interval),
        )


def prepare_environment(
    dataset: str,
    scale: Optional[ExperimentScale] = None,
    lexicons: Optional[LexiconCollection] = None,
    seed: Optional[int] = None,
) -> ExperimentEnvironment:
    """Generate data, split it, and pre-train the shared base model.

    The corpus holds substantive dialogue sets (the evaluation target); the
    streamed split is additionally interleaved with interaction noise (filler
    small talk and vague turns) at the dataset analogue's preset rates — that
    noisy, temporally correlated stream is what the selection policies see.
    """
    scale = scale or get_scale()
    seed = scale.seed if seed is None else seed
    lexicons = lexicons or builtin_lexicons()

    generator = make_generator(dataset, size=scale.corpus_size, seed=seed, lexicons=lexicons)
    corpus = generator.generate()
    stream_split, eval_corpus = corpus.split(scale.stream_fraction, rng=seed + 1)
    noise = stream_noise_preset(dataset)
    noisy_stream = generator.make_interaction_stream(
        stream_split.dialogues(),
        filler_rate=noise["filler_rate"],
        thin_rate=noise["thin_rate"],
        rng=seed + 2,
    )
    stream_corpus = DialogueCorpus(noisy_stream, name=f"{dataset}[stream+noise]")
    _LOGGER.info(
        "prepared %s: %d stream (%d substantive) / %d eval dialogue sets",
        dataset,
        len(stream_corpus),
        len(stream_split),
        len(eval_corpus),
    )

    base_llm = build_pretrained_llm(
        corpus,
        llm_config=scale.llm,
        pretrain_config=PretrainConfig(epochs=scale.pretrain_epochs, seed=seed),
    )
    evaluator = ResponseEvaluator.from_corpus(
        eval_corpus,
        EvaluationConfig(
            subset_size=scale.eval_subset,
            max_new_tokens=scale.eval_max_new_tokens,
            greedy=scale.eval_greedy,
            seed=seed,
        ),
    )
    return ExperimentEnvironment(
        dataset=dataset,
        scale=scale,
        corpus=corpus,
        stream_corpus=stream_corpus,
        eval_corpus=eval_corpus,
        base_llm=base_llm,
        lexicons=lexicons,
        evaluator=evaluator,
    )


def framework_config_for(
    scale: ExperimentScale,
    method: str,
    buffer_bins: Optional[int] = None,
    learning_rate: Optional[float] = None,
    synthesis_per_item: Optional[int] = None,
    seed: Optional[int] = None,
) -> FrameworkConfig:
    """Build the framework configuration for one method run."""
    return FrameworkConfig(
        buffer_bins=buffer_bins if buffer_bins is not None else scale.buffer_bins,
        finetune_interval=scale.finetune_interval,
        selector=method,
        synthesis=SynthesisConfig(
            num_per_item=(
                synthesis_per_item
                if synthesis_per_item is not None
                else scale.synthesis_per_item
            ),
            seed=scale.seed,
        ),
        finetune=FineTuneConfig(
            epochs=scale.finetune_epochs,
            batch_size=scale.finetune_batch_size,
            learning_rate=learning_rate if learning_rate is not None else scale.learning_rate,
            lora=LoRAConfig(rank=8, alpha=16.0, dropout_rate=0.05),
            seed=scale.seed,
        ),
        seed=seed if seed is not None else scale.seed,
    )


def run_method(
    env: ExperimentEnvironment,
    method: str,
    buffer_bins: Optional[int] = None,
    learning_rate: Optional[float] = None,
    synthesis_per_item: Optional[int] = None,
    evaluate: bool = True,
    seed: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
) -> PersonalizationResult:
    """Run one selection method on a clone of the shared base model.

    With ``checkpoint_dir`` set, the full framework state is checkpointed
    there after every fine-tuning round (see :mod:`repro.core.checkpoint`),
    so an interrupted sweep can be resumed.
    """
    llm = env.base_llm.clone()
    config = framework_config_for(
        env.scale,
        method,
        buffer_bins=buffer_bins,
        learning_rate=learning_rate,
        synthesis_per_item=synthesis_per_item,
        seed=seed,
    )
    framework = PersonalizationFramework(llm, config=config, lexicons=env.lexicons)
    evaluator = env.evaluator if evaluate else None
    result = framework.run(
        env.make_stream(), evaluator=evaluator, checkpoint_dir=checkpoint_dir
    )
    _LOGGER.info(
        "%s on %s: final ROUGE-1 %.4f (acceptance %.2f)",
        method,
        env.dataset,
        result.final_rouge,
        result.acceptance_rate,
    )
    return result


def run_method_mean(
    env: ExperimentEnvironment,
    method: str,
    num_seeds: int = 1,
    checkpoint_root: Optional[Union[str, Path]] = None,
    **overrides,
) -> List[PersonalizationResult]:
    """Run one method ``num_seeds`` times with different framework seeds.

    All repetitions share the pre-trained base model and the stream; the
    framework seed (selection tie-breaks, synthesis perturbations, fine-tuning
    shuffling) varies, which is the dominant source of run-to-run variance at
    reproduction scale.  Returns the list of results (average what you need).
    With ``checkpoint_root`` set, each repetition checkpoints its run under
    ``checkpoint_root/seed<framework seed>``.
    """
    require_positive("num_seeds", num_seeds)
    results: List[PersonalizationResult] = []
    base_seed = overrides.pop("seed", None)
    if base_seed is None:
        base_seed = env.scale.seed
    for repetition in range(num_seeds):
        seed = base_seed + 101 * repetition
        checkpoint_dir = (
            Path(checkpoint_root) / f"seed{seed}" if checkpoint_root is not None else None
        )
        results.append(
            run_method(env, method, seed=seed, checkpoint_dir=checkpoint_dir, **overrides)
        )
    return results


def mean_final_rouge(results: Sequence[PersonalizationResult]) -> float:
    """Mean final ROUGE-1 over repeated runs."""
    if not results:
        return 0.0
    return float(sum(result.final_rouge for result in results) / len(results))


def run_method_comparison(
    env: ExperimentEnvironment,
    methods: Sequence[str] = DEFAULT_METHODS,
    num_seeds: int = 1,
    checkpoint_root: Optional[Union[str, Path]] = None,
    **overrides,
) -> Dict[str, PersonalizationResult]:
    """Run several methods on the same environment; returns ``{method: result}``.

    With ``num_seeds > 1`` each method is run repeatedly and the *first*
    result is returned with its ``final_rouge``-bearing learning curve left
    intact, but the result's ``extra_seed_rouges`` metadata records every
    repetition so callers (and the table runners) can average.
    ``checkpoint_root`` checkpoints each run under
    ``checkpoint_root/<method>/seed<seed>``.
    """
    comparison: Dict[str, PersonalizationResult] = {}
    for method in methods:
        method_root = (
            Path(checkpoint_root) / method if checkpoint_root is not None else None
        )
        repeats = run_method_mean(
            env, method, num_seeds=num_seeds, checkpoint_root=method_root, **overrides
        )
        primary = repeats[0]
        primary.timings["mean_final_rouge"] = mean_final_rouge(repeats)
        primary.timings["seed_rouges"] = [r.final_rouge for r in repeats]
        comparison[method] = primary
    return comparison


def comparison_scores(comparison: Dict[str, PersonalizationResult]) -> Dict[str, float]:
    """Final ROUGE-1 per method, using the multi-seed mean when available."""
    scores: Dict[str, float] = {}
    for method, result in comparison.items():
        mean = result.timings.get("mean_final_rouge")
        scores[method] = float(mean) if mean is not None else result.final_rouge
    return scores


@dataclass
class MethodScore:
    """One cell of a results table."""

    dataset: str
    method: str
    rouge_1: float
    extra: Dict[str, float] = field(default_factory=dict)


def format_table(
    rows: Sequence[str],
    columns: Sequence[str],
    values: Dict[str, Dict[str, float]],
    row_label: str = "dataset",
) -> str:
    """Render a ``{row: {column: value}}`` mapping as a fixed-width table."""
    header = [row_label.ljust(14)] + [column.rjust(10) for column in columns]
    lines: List[str] = ["".join(header)]
    for row in rows:
        cells = [row.ljust(14)]
        for column in columns:
            value = values.get(row, {}).get(column)
            cells.append(("-" if value is None else f"{value:.4f}").rjust(10))
        lines.append("".join(cells))
    return "\n".join(lines)
