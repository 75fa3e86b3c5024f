"""The paper's core contribution: metrics, buffer, selection, synthesis, framework."""

from repro.core.annotation import AnnotationOracle, AnnotationStats
from repro.core.baselines import (
    ABLATION_NAMES,
    ALL_POLICY_NAMES,
    BASELINE_NAMES,
    FIFOReplaceSelector,
    KCenterSelector,
    RandomReplaceSelector,
    SingleMetricSelector,
    make_selector,
)
from repro.core.buffer import BufferEntry, DataBuffer, buffer_size_kb
from repro.core.checkpoint import CheckpointError, CheckpointManager
from repro.core.engine import (
    STAGES,
    DialogueEvent,
    EvalEvent,
    PipelineEngine,
    PipelineObserver,
    RoundEndEvent,
    RoundStartEvent,
)
from repro.core.framework import (
    FrameworkConfig,
    LearningCurvePoint,
    PersonalizationFramework,
    PersonalizationResult,
    run_personalization,
)
from repro.core.metrics import (
    QualityScorer,
    QualityScores,
    domain_specific_score,
    dominant_domain,
    entropy_of_embedding_score,
    in_domain_dissimilarity,
)
from repro.core.selector import QualityScoreSelector, SelectionDecision, SelectionPolicy
from repro.core.synthesis import (
    SYNTHESIS_PROMPT,
    DataSynthesizer,
    SynthesisConfig,
    SynthesisStats,
)

__all__ = [
    "ABLATION_NAMES",
    "ALL_POLICY_NAMES",
    "AnnotationOracle",
    "AnnotationStats",
    "BASELINE_NAMES",
    "BufferEntry",
    "CheckpointError",
    "CheckpointManager",
    "DataBuffer",
    "DataSynthesizer",
    "DialogueEvent",
    "EvalEvent",
    "FIFOReplaceSelector",
    "FrameworkConfig",
    "KCenterSelector",
    "LearningCurvePoint",
    "PersonalizationFramework",
    "PersonalizationResult",
    "PipelineEngine",
    "PipelineObserver",
    "RoundEndEvent",
    "RoundStartEvent",
    "STAGES",
    "QualityScoreSelector",
    "QualityScorer",
    "QualityScores",
    "RandomReplaceSelector",
    "SYNTHESIS_PROMPT",
    "SelectionDecision",
    "SelectionPolicy",
    "SingleMetricSelector",
    "SynthesisConfig",
    "SynthesisStats",
    "buffer_size_kb",
    "domain_specific_score",
    "dominant_domain",
    "entropy_of_embedding_score",
    "in_domain_dissimilarity",
    "make_selector",
    "run_personalization",
]
