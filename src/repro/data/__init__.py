"""Data substrate: lexicons, dialogue structures, synthetic corpora, streams."""

from repro.data.dialogue import DialogueCorpus, DialogueSet
from repro.data.lexicons import (
    DomainLexicon,
    LexiconCollection,
    builtin_domain_names,
    builtin_lexicons,
)
from repro.data.persona import UserPersona, generic_model_response
from repro.data.stream import (
    DialogueStream,
    StreamConfig,
    temporal_correlation_index,
)
from repro.data.synthetic import (
    DATASET_NAMES,
    QUALITY_FILLER,
    QUALITY_RICH,
    QUALITY_THIN,
    STRONGLY_CORRELATED,
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
    dataset_preset,
    make_corpus,
    make_corpus_config,
    make_generator,
    stream_noise_preset,
)

__all__ = [
    "DATASET_NAMES",
    "DialogueCorpus",
    "DialogueSet",
    "DialogueStream",
    "DomainLexicon",
    "LexiconCollection",
    "QUALITY_FILLER",
    "QUALITY_RICH",
    "QUALITY_THIN",
    "STRONGLY_CORRELATED",
    "StreamConfig",
    "SyntheticCorpusConfig",
    "SyntheticCorpusGenerator",
    "UserPersona",
    "builtin_domain_names",
    "builtin_lexicons",
    "dataset_preset",
    "generic_model_response",
    "make_corpus",
    "make_corpus_config",
    "make_generator",
    "stream_noise_preset",
    "temporal_correlation_index",
]
