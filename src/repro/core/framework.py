"""The on-device LLM personalization framework (Section 3.1 of the paper).

The framework drives the three stages end to end over a streaming corpus:

1. **Selection** — every incoming dialogue set is offered to the selection
   policy (the paper's quality-score policy or any baseline); accepted sets
   are annotated by the (simulated) user and stored in the bin buffer.
2. **Synthesis** — right before each fine-tuning round, semantically similar
   dialogue sets are synthesized from the buffered originals and pass a
   ROUGE-1 sanity check.
3. **Fine-tuning** — the buffered + synthesized sets fine-tune the on-device
   LLM with LoRA and AdamW (at weight decay 0: Adam).  Fine-tuning
   triggers every ``finetune_interval`` dialogue sets received; the buffer
   is *not* cleared afterwards.

Structurally, :class:`PersonalizationFramework` is a facade: it wires the
components (buffer, scorer, selector, annotator, synthesizer, fine-tuner)
and hands them to the staged :class:`~repro.core.engine.PipelineEngine`,
which owns the loop, the observer list, and full-state checkpoint /
resume (see :mod:`repro.core.checkpoint`).  The run records a learning curve
(ROUGE-1 against a held-out evaluator as a function of the number of
dialogue sets seen), which is the profiling tool used for Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from repro.core.annotation import AnnotationOracle
from repro.core.baselines import make_selector
from repro.core.buffer import DataBuffer
from repro.core.engine import PipelineEngine, PipelineObserver
from repro.core.metrics import QualityScorer
from repro.core.selector import SelectionDecision, SelectionPolicy
from repro.core.synthesis import DataSynthesizer, SynthesisConfig
from repro.data.dialogue import DialogueSet
from repro.data.lexicons import LexiconCollection, builtin_lexicons
from repro.data.stream import DialogueStream
from repro.llm.finetune import FineTuneConfig, FineTuneReport, LoRAFineTuner
from repro.llm.model import OnDeviceLLM
from repro.utils.config import require_positive
from repro.utils.rng import as_generator

Evaluator = Callable[[OnDeviceLLM], float]


@dataclass
class FrameworkConfig:
    """End-to-end configuration of the personalization framework."""

    buffer_bins: int = 32
    finetune_interval: int = 800
    selector: str = "ours"
    regenerate_responses: bool = False
    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)
    finetune: FineTuneConfig = field(default_factory=FineTuneConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        require_positive("buffer_bins", self.buffer_bins)
        require_positive("finetune_interval", self.finetune_interval)


@dataclass
class LearningCurvePoint:
    """ROUGE-1 measured after having seen ``seen`` dialogue sets."""

    seen: int
    rouge_1: float
    finetune_round: int
    # Wall-clock seconds the evaluator spent producing this point (0.0 when
    # unrecorded); the profiling signal the fast inference path optimizes.
    eval_seconds: float = 0.0


@dataclass
class PersonalizationResult:
    """Everything a personalization run produced."""

    selector_name: str
    learning_curve: List[LearningCurvePoint] = field(default_factory=list)
    finetune_reports: List[FineTuneReport] = field(default_factory=list)
    total_seen: int = 0
    annotation_requests: int = 0
    synthesized_total: int = 0
    buffer_domain_histogram: dict = field(default_factory=dict)
    buffer_occupancy: float = 0.0
    acceptance_rate: float = 0.0
    timings: dict = field(default_factory=dict)

    @property
    def final_rouge(self) -> float:
        """ROUGE-1 at the end of the run (0.0 when never evaluated)."""
        if not self.learning_curve:
            return 0.0
        return self.learning_curve[-1].rouge_1

    @property
    def initial_rouge(self) -> float:
        """ROUGE-1 before any fine-tuning (0.0 when never evaluated)."""
        if not self.learning_curve:
            return 0.0
        return self.learning_curve[0].rouge_1

    def improvement(self) -> float:
        """Final minus initial ROUGE-1."""
        return self.final_rouge - self.initial_rouge


class PersonalizationFramework:
    """Drives selection, annotation, synthesis and fine-tuning over a stream."""

    def __init__(
        self,
        llm: OnDeviceLLM,
        config: Optional[FrameworkConfig] = None,
        lexicons: Optional[LexiconCollection] = None,
        annotator: Optional[AnnotationOracle] = None,
        selector: Optional[SelectionPolicy] = None,
        observers: Sequence[PipelineObserver] = (),
    ) -> None:
        self.llm = llm
        self.config = config or FrameworkConfig()
        self.lexicons = lexicons or builtin_lexicons()
        rng = as_generator(self.config.seed)

        self.buffer = DataBuffer(self.config.buffer_bins)
        self.scorer = QualityScorer(llm, self.lexicons)
        if selector is not None:
            self.selector = selector
        else:
            self.selector = make_selector(self.config.selector, self.buffer, self.scorer, rng=rng)
        self.annotator = annotator or AnnotationOracle(rng=rng)
        self.synthesizer = DataSynthesizer(llm, self.config.synthesis, rng=rng)
        self.finetuner = LoRAFineTuner(llm, self.config.finetune)
        self.engine = PipelineEngine(
            llm=llm,
            config=self.config,
            buffer=self.buffer,
            scorer=self.scorer,
            selector=self.selector,
            annotator=self.annotator,
            synthesizer=self.synthesizer,
            finetuner=self.finetuner,
            observers=observers,
        )

    # -- engine passthroughs ------------------------------------------------ #
    @property
    def seen_count(self) -> int:
        """Number of dialogue sets processed so far."""
        return self.engine.seen_count

    @property
    def finetune_round_count(self) -> int:
        """Number of completed fine-tuning rounds."""
        return self.engine.finetune_round_count

    # ------------------------------------------------------------------ #
    # single-dialogue processing (ingest → select → annotate)
    # ------------------------------------------------------------------ #
    def process_dialogue(self, dialogue: DialogueSet) -> SelectionDecision:
        """Run the selection (and, if accepted, annotation) stage for one set."""
        return self.engine.process_dialogue(dialogue)

    # ------------------------------------------------------------------ #
    # synthesis + fine-tuning
    # ------------------------------------------------------------------ #
    def finetune_round(self) -> FineTuneReport:
        """Synthesize from the buffer and run one LoRA fine-tuning round."""
        return self.engine.finetune_round()

    # ------------------------------------------------------------------ #
    # full streaming run
    # ------------------------------------------------------------------ #
    def run(
        self,
        stream: DialogueStream,
        evaluator: Optional[Evaluator] = None,
        evaluate_initial: bool = True,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 1,
        resume_from: Optional[Union[str, Path]] = None,
    ) -> PersonalizationResult:
        """Process a whole stream, fine-tuning every ``finetune_interval`` sets.

        ``evaluator`` is called with the LLM after every fine-tuning round (and
        optionally once before any data is seen) to build the learning curve.
        ``checkpoint_dir`` / ``checkpoint_every`` / ``resume_from`` enable the
        engine's full-state checkpointing (see :mod:`repro.core.checkpoint`).
        """
        return self.engine.run(
            stream,
            evaluator=evaluator,
            evaluate_initial=evaluate_initial,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
        )

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def save_checkpoint(self, directory: Union[str, Path]) -> Path:
        """Write the full run state to ``directory``; returns the directory."""
        from repro.core.checkpoint import CheckpointManager

        return CheckpointManager(directory).save(self.engine)

    def load_checkpoint(self, directory: Union[str, Path]) -> dict:
        """Restore run state saved by :meth:`save_checkpoint`.

        The framework must have been constructed with the same configuration
        as the one that saved the checkpoint.  Returns the manifest.
        """
        from repro.core.checkpoint import CheckpointManager

        return CheckpointManager(directory).restore(self.engine)


def run_personalization(
    llm: OnDeviceLLM,
    dialogues: Sequence[DialogueSet],
    config: Optional[FrameworkConfig] = None,
    lexicons: Optional[LexiconCollection] = None,
    evaluator: Optional[Evaluator] = None,
) -> PersonalizationResult:
    """Convenience wrapper: run the framework over a plain list of dialogues."""
    from repro.data.dialogue import DialogueCorpus
    from repro.data.stream import StreamConfig

    config = config or FrameworkConfig()
    corpus = DialogueCorpus(list(dialogues), name="adhoc")
    stream = DialogueStream(corpus, StreamConfig(finetune_interval=config.finetune_interval))
    framework = PersonalizationFramework(llm, config=config, lexicons=lexicons)
    return framework.run(stream, evaluator=evaluator)
