"""The staged pipeline engine driving the personalization loop.

The paper's framework (Section 3.1) is a long-running on-device loop; this
module makes that loop an explicit, composable pipeline instead of one
monolithic ``run`` method.  The loop is decomposed into six named stages —

``ingest``      optionally regenerate the model response for an arrival
``select``      offer the dialogue set to the selection policy
``annotate``    ask the (simulated) user for the preferred response
``synthesize``  generate semantically similar sets from the buffer
``finetune``    one LoRA fine-tuning round over buffer + synthesized data
``evaluate``    score the current model on the held-out evaluator

— coordinated by :class:`PipelineEngine`.  Typed events go to one plain list
of :class:`PipelineObserver` instances (``engine.observers``), and every
stage adds its wall-clock seconds to one per-stage running total
(``engine.stage_seconds``), mirrored into a :mod:`repro.obs` registry's
``stage_seconds`` histograms once :meth:`PipelineEngine.observe_stages` ran.

The engine owns the run-progress state (dialogues seen, rounds completed,
learning curve so far) and can capture / restore it in full through
:meth:`PipelineEngine.capture_state` / :meth:`PipelineEngine.restore_state`,
which is what :mod:`repro.core.checkpoint` serializes to disk.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, TYPE_CHECKING, Union

from repro.core.annotation import AnnotationOracle
from repro.core.buffer import BufferEntry, DataBuffer
from repro.core.metrics import QualityScorer
from repro.core.selector import SelectionDecision, SelectionPolicy
from repro.core.synthesis import DataSynthesizer
from repro.data.dialogue import DialogueSet
from repro.data.stream import DialogueStream
from repro.llm.finetune import FineTuneReport, LoRAFineTuner
from repro.llm.model import OnDeviceLLM

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.framework import (
        Evaluator,
        FrameworkConfig,
        LearningCurvePoint,
        PersonalizationResult,
    )

#: The named stages of the pipeline, in execution order.
STAGES = ("ingest", "select", "annotate", "synthesize", "finetune", "evaluate")

#: The section names the stages measure themselves under (the keys of
#: ``engine.stage_seconds`` and the labels of the ``stage_seconds`` histograms).
STAGE_SECTIONS = (
    "generation",
    "selection",
    "annotation",
    "synthesis",
    "finetune",
    "evaluation",
)


# --------------------------------------------------------------------------- #
# typed events
# --------------------------------------------------------------------------- #
@dataclass
class DialogueEvent:
    """Fired after one dialogue set went through ingest/select/annotate."""

    seen: int
    dialogue: DialogueSet
    decision: SelectionDecision


@dataclass
class RoundStartEvent:
    """Fired right before a synthesis + fine-tuning round begins."""

    round_index: int
    seen: int
    buffer_size: int


@dataclass
class RoundEndEvent:
    """Fired after a fine-tuning round completed."""

    round_index: int
    seen: int
    report: FineTuneReport
    num_originals: int
    num_synthesized: int


@dataclass
class EvalEvent:
    """Fired after the evaluator scored the current model."""

    seen: int
    round_index: int
    score: float
    seconds: float
    initial: bool = False


class PipelineObserver:
    """Base observer: subclass and override the hooks you care about.

    Every hook is a no-op by default so observers only implement what they
    need.  ``on_run_start`` / ``on_run_end`` receive the engine itself; the
    other hooks receive the typed event dataclasses above.
    """

    def on_run_start(self, engine: "PipelineEngine") -> None:  # pragma: no cover - default no-op
        pass

    def on_dialogue(self, event: DialogueEvent) -> None:  # pragma: no cover - default no-op
        pass

    def on_round_start(self, event: RoundStartEvent) -> None:  # pragma: no cover - default no-op
        pass

    def on_round_end(self, event: RoundEndEvent) -> None:  # pragma: no cover - default no-op
        pass

    def on_eval(self, event: EvalEvent) -> None:  # pragma: no cover - default no-op
        pass

    def on_run_end(self, engine: "PipelineEngine") -> None:  # pragma: no cover - default no-op
        pass


# --------------------------------------------------------------------------- #
# the engine
# --------------------------------------------------------------------------- #
class PipelineEngine:
    """Coordinates the six pipeline stages over a dialogue stream.

    The engine does not construct its components — the framework (or a test)
    wires buffer, scorer, selector, annotator, synthesizer and fine-tuner and
    hands them over.  The engine contributes the loop structure, the
    observer dispatch, the per-stage timing, the run-progress state and
    checkpointability.
    """

    def __init__(
        self,
        llm: OnDeviceLLM,
        config: "FrameworkConfig",
        buffer: DataBuffer,
        scorer: QualityScorer,
        selector: SelectionPolicy,
        annotator: AnnotationOracle,
        synthesizer: DataSynthesizer,
        finetuner: LoRAFineTuner,
        observers: Sequence[PipelineObserver] = (),
    ) -> None:
        self.llm = llm
        self.config = config
        self.buffer = buffer
        self.scorer = scorer
        self.selector = selector
        self.annotator = annotator
        self.synthesizer = synthesizer
        self.finetuner = finetuner
        #: Receive every pipeline event, in list order; append freely.
        self.observers: List[PipelineObserver] = list(observers)
        #: Running wall-clock seconds per stage section that has run
        #: (O(stages), however many dialogues are processed).
        self.stage_seconds: Dict[str, float] = {}
        self._stage_histograms: Optional[dict] = None
        self._curve: List["LearningCurvePoint"] = []
        self._seen = 0
        self._finetune_rounds = 0
        self._reports: List[FineTuneReport] = []
        # Stream cursor: dialogue sets consumed *from the stream by run()*.
        # Deliberately distinct from ``_seen`` — standalone process_dialogue
        # calls count towards seen but consume nothing from a stream, and a
        # completed run resets the cursor so a subsequent run() over another
        # stream starts from its beginning.  Non-zero only mid-run or right
        # after a checkpoint restore.
        self._stream_cursor = 0

    def observe_stages(self, metrics) -> None:
        """Mirror per-stage seconds into a metrics registry's histograms.

        ``metrics`` is a :class:`repro.obs.MetricsRegistry`; every timed
        section lands in ``stage_seconds{stage=<name>}``.  The canonical
        stages are pre-registered so a snapshot's key set does not depend
        on which stages a particular workload happened to exercise.
        """
        self._stage_histograms = {
            stage: metrics.histogram("stage_seconds", stage=stage)
            for stage in STAGE_SECTIONS
        }

    def _record_stage(self, section: str, start: float) -> float:
        """Add the seconds since ``start`` to ``section``; returns them."""
        seconds = time.perf_counter() - start
        self.stage_seconds[section] = self.stage_seconds.get(section, 0.0) + seconds
        if self._stage_histograms is not None:
            self._stage_histograms[section].observe(seconds)
        return seconds

    @contextmanager
    def _timed(self, section: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self._record_stage(section, start)

    def _emit(self, hook: str, payload) -> None:
        for observer in self.observers:
            getattr(observer, hook)(payload)

    # -- run-progress state ------------------------------------------------- #
    @property
    def seen_count(self) -> int:
        """Number of dialogue sets processed so far."""
        return self._seen

    @property
    def finetune_round_count(self) -> int:
        """Number of completed fine-tuning rounds."""
        return self._finetune_rounds

    @property
    def learning_curve(self) -> List["LearningCurvePoint"]:
        """The learning-curve points recorded so far (live list)."""
        return self._curve

    @property
    def finetune_reports(self) -> List[FineTuneReport]:
        """Reports of the completed fine-tuning rounds (live list)."""
        return self._reports

    # ------------------------------------------------------------------ #
    # stages
    # ------------------------------------------------------------------ #
    def ingest(self, dialogue: DialogueSet) -> DialogueSet:
        """Stage 1 — optionally regenerate the model response for an arrival."""
        if not self.config.regenerate_responses:
            return dialogue
        with self._timed("generation"):
            return dialogue.with_response(self.llm.respond(dialogue.question))

    def select(self, dialogue: DialogueSet) -> SelectionDecision:
        """Stage 2 — offer the dialogue set to the selection policy."""
        with self._timed("selection"):
            return self.selector.offer(dialogue)

    def annotate(self, entry: BufferEntry) -> BufferEntry:
        """Stage 3 — user annotation of a dialogue set accepted into the buffer."""
        with self._timed("annotation"):
            annotated = self.annotator.annotate(entry.dialogue)
        entry.dialogue = annotated
        entry.annotated = True
        return entry

    def synthesize(self, originals: Sequence[DialogueSet]) -> List[DialogueSet]:
        """Stage 4 — generate semantically similar sets from the buffer."""
        with self._timed("synthesis"):
            return self.synthesizer.synthesize(list(originals))

    def finetune(self, training_data: Sequence[DialogueSet]) -> FineTuneReport:
        """Stage 5 — one LoRA fine-tuning round over ``training_data``."""
        with self._timed("finetune"):
            report = self.finetuner.finetune(list(training_data))
        # Fine-tuning changed the embedding function; cached per-text
        # embeddings no longer reflect the model.
        self.invalidate_embedding_caches()
        return report

    def invalidate_embedding_caches(self) -> None:
        """Drop every embedding memo cache after the model weights changed.

        An injected selector may carry its own scorer, so that one is
        invalidated too.  Called internally after a fine-tuning round and by
        the multi-tenant serving layer after an adapter hot-swap — from the
        engine's perspective both are "the weights under my scorer changed".
        """
        self.scorer.invalidate_embeddings()
        selector_scorer = getattr(self.selector, "scorer", None)
        if selector_scorer is not None and selector_scorer is not self.scorer:
            selector_scorer.invalidate_embeddings()

    def evaluate(self, evaluator: "Evaluator", initial: bool = False) -> float:
        """Stage 6 — score the current model; extends the learning curve.

        The new :class:`LearningCurvePoint` is appended before ``on_eval``
        fires, so observers already see it as ``learning_curve[-1]``.
        """
        from repro.core.framework import LearningCurvePoint

        start = time.perf_counter()
        try:
            score = evaluator(self.llm)
        finally:
            seconds = self._record_stage("evaluation", start)
        self._curve.append(
            LearningCurvePoint(
                seen=self._seen,
                rouge_1=score,
                finetune_round=self._finetune_rounds,
                eval_seconds=seconds,
            )
        )
        self._emit(
            "on_eval",
            EvalEvent(
                seen=self._seen,
                round_index=self._finetune_rounds,
                score=score,
                seconds=seconds,
                initial=initial,
            ),
        )
        return score

    # ------------------------------------------------------------------ #
    # composite steps
    # ------------------------------------------------------------------ #
    def process_dialogue(self, dialogue: DialogueSet) -> SelectionDecision:
        """Run ingest → select → annotate for one arrival; fires ``on_dialogue``."""
        self._seen += 1
        dialogue = self.ingest(dialogue)
        decision = self.select(dialogue)
        if decision.accepted and decision.entry is not None:
            self.annotate(decision.entry)
        self._emit(
            "on_dialogue",
            DialogueEvent(seen=self._seen, dialogue=dialogue, decision=decision),
        )
        return decision

    def finetune_round(self) -> FineTuneReport:
        """Run synthesize → finetune; fires ``on_round_start``/``on_round_end``."""
        self._emit(
            "on_round_start",
            RoundStartEvent(
                round_index=self._finetune_rounds + 1,
                seen=self._seen,
                buffer_size=len(self.buffer),
            ),
        )
        originals = self.buffer.dialogues()
        synthesized = self.synthesize(originals)
        report = self.finetune(originals + synthesized)
        self._finetune_rounds += 1
        self._reports.append(report)
        self._emit(
            "on_round_end",
            RoundEndEvent(
                round_index=self._finetune_rounds,
                seen=self._seen,
                report=report,
                num_originals=len(originals),
                num_synthesized=len(synthesized),
            ),
        )
        return report

    # ------------------------------------------------------------------ #
    # full streaming run
    # ------------------------------------------------------------------ #
    def run(
        self,
        stream: DialogueStream,
        evaluator: Optional["Evaluator"] = None,
        evaluate_initial: bool = True,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 1,
        resume_from: Optional[Union[str, Path]] = None,
    ) -> "PersonalizationResult":
        """Process a whole stream, fine-tuning every ``finetune_interval`` sets.

        ``evaluator`` is called with the LLM after every fine-tuning round
        (and optionally once before any data is seen) to build the learning
        curve.  With ``checkpoint_dir`` set, the full engine state is written
        there after every ``checkpoint_every``-th fine-tuning round (and once
        more at the end of the stream).  With ``resume_from`` set, the engine
        first restores the checkpoint found there and continues the stream
        from the saved cursor — producing the same learning curve an
        uninterrupted run would have.
        """
        from repro.core.checkpoint import CheckpointManager

        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        manager = CheckpointManager(checkpoint_dir) if checkpoint_dir is not None else None
        if resume_from is not None:
            CheckpointManager(resume_from).restore(self)

        # A non-zero cursor means this run continues a checkpointed one: its
        # result must contain the *whole* accumulated curve, and the initial
        # evaluation already happened.  A fresh run on a reused engine starts
        # a new curve (and stream coverage) of its own, like the seed did.
        resuming = self._stream_cursor > 0
        curve_start = 0 if resuming else len(self._curve)
        reports_start = 0 if resuming else len(self._reports)

        self._emit("on_run_start", self)
        if evaluator is not None and evaluate_initial and not resuming:
            self.evaluate(evaluator, initial=True)

        last_saved = None
        try:
            for chunk in stream.chunks(skip=self._stream_cursor):
                for dialogue in chunk:
                    # Advance the cursor first so a checkpoint taken from an
                    # on_dialogue hook counts the dialogue it just processed
                    # as consumed.
                    self._stream_cursor += 1
                    self.process_dialogue(dialogue)
                # Every chunk ends in a round, a short trailing one included.
                if self.buffer.is_empty():
                    continue
                self.finetune_round()
                if evaluator is not None:
                    self.evaluate(evaluator)
                if manager is not None and self._finetune_rounds % checkpoint_every == 0:
                    manager.save(self)
                    last_saved = (self._stream_cursor, self._finetune_rounds)

            if manager is not None and last_saved != (
                self._stream_cursor,
                self._finetune_rounds,
            ):
                manager.save(self)
        finally:
            # Whether the run completed or died, the engine must not carry a
            # cursor into an unrelated later run() call; resuming an aborted
            # run goes through resume_from / load_checkpoint, which restore
            # the cursor from the snapshot.
            self._stream_cursor = 0
        result = self.build_result(curve_start=curve_start, reports_start=reports_start)
        self._emit("on_run_end", self)
        return result

    def build_result(
        self, curve_start: int = 0, reports_start: int = 0
    ) -> "PersonalizationResult":
        """Assemble a :class:`PersonalizationResult` from the current state.

        ``curve_start`` / ``reports_start`` bound the slice belonging to the
        current run (a reused engine keeps earlier runs' history for
        checkpointing, but each run reports only its own curve).
        """
        from repro.core.framework import PersonalizationResult

        return PersonalizationResult(
            selector_name=self.selector.name,
            learning_curve=list(self._curve[curve_start:]),
            finetune_reports=list(self._reports[reports_start:]),
            total_seen=self._seen,
            annotation_requests=self.annotator.request_count,
            synthesized_total=self.synthesizer.stats.generated,
            buffer_domain_histogram=self.buffer.domain_histogram(),
            buffer_occupancy=self.buffer.occupancy(),
            acceptance_rate=self.selector.acceptance_rate(),
            timings=dict(self.stage_seconds),
        )

    # ------------------------------------------------------------------ #
    # checkpointable state
    # ------------------------------------------------------------------ #
    def capture_state(self) -> dict:
        """Everything needed to continue this run bit-for-bit identically.

        Sections (all picklable): run progress (stream cursor, rounds, the
        learning curve, fine-tune reports), the model runtime state (weights
        incl. LoRA, mode, generation + dropout RNGs), the fine-tuner state
        (its epoch-shuffling RNG; each round builds its own optimizer), the
        buffer contents, and the remaining components' ``state_dict``
        snapshots — so a custom selector that overrides
        :meth:`SelectionPolicy.state_dict` is checkpointed faithfully too.

        Buffer entries are aliased, not copied: an entry is only mutated
        (annotated) inside the same process_dialogue call that inserted it,
        and capture runs between pipeline steps — afterwards entries are
        only ever evicted wholesale, never written through.
        """
        return {
            "progress": {
                "seen": self._seen,
                "finetune_rounds": self._finetune_rounds,
                "stream_cursor": self._stream_cursor,
                "learning_curve": list(self._curve),
                "finetune_reports": list(self._reports),
            },
            "model": self.llm.export_runtime_state(),
            "finetuner": self.finetuner.state_dict(),
            "buffer": self.buffer.state_dict(),
            "components": {
                "selector": self.selector.state_dict(),
                "annotator": self.annotator.state_dict(),
                "synthesizer": self.synthesizer.state_dict(),
            },
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`capture_state`.

        The engine must have been constructed with the same configuration
        (model architecture, LoRA config, selector type, buffer capacity) as
        the engine the snapshot was captured from.
        """
        self.llm.load_runtime_state(state["model"])
        self.finetuner.load_state_dict(state["finetuner"])
        self.buffer.load_state_dict(state["buffer"])

        components = state["components"]
        self.selector.load_state_dict(components["selector"])
        self.annotator.load_state_dict(components["annotator"])
        self.synthesizer.load_state_dict(components["synthesizer"])

        progress = state["progress"]
        self._seen = int(progress["seen"])
        self._finetune_rounds = int(progress["finetune_rounds"])
        self._stream_cursor = int(progress["stream_cursor"])
        self._curve[:] = list(progress["learning_curve"])
        self._reports[:] = list(progress["finetune_reports"])
        # The restored weights differ from whatever the scorer(s) cached
        # embeddings under; stale vectors must not survive the restore (this
        # covers an injected selector's own scorer too).
        self.invalidate_embedding_caches()
