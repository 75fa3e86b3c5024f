"""repro — reproduction of "Enabling On-Device Large Language Model
Personalization with Self-Supervised Data Selection and Synthesis" (DAC 2024).

The package is organised bottom-up:

* :mod:`repro.nn` — numpy autograd, transformer, LoRA, optimizers;
* :mod:`repro.tokenizer` — word tokenizer and vocabulary;
* :mod:`repro.llm` — the on-device LLM wrapper (embedding, generation,
  LoRA fine-tuning, pre-training);
* :mod:`repro.textmetrics` — ROUGE, similarity and entropy measures;
* :mod:`repro.data` — domain lexicons, dialogue sets, synthetic corpora and
  the temporally-correlated stream simulator;
* :mod:`repro.core` — the paper's contribution: EOE/DSS/IDD quality metrics,
  the bin buffer, the selection policies (proposed + baselines), sparse
  annotation, data synthesis and the end-to-end personalization framework;
* :mod:`repro.eval` — ROUGE-1 evaluation and learning curves;
* :mod:`repro.experiments` — runners regenerating every table and figure.

Quickstart::

    from repro.data import make_corpus
    from repro.experiments import prepare_environment, run_method, smoke_scale

    env = prepare_environment("meddialog", scale=smoke_scale())
    result = run_method(env, "ours")
    print(result.final_rouge, result.learning_curve)
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Callable, Dict, List, MutableMapping, Tuple

if TYPE_CHECKING:  # pragma: no cover - the static view of the lazy re-exports below
    from repro.core import (
        AnnotationOracle,
        DataBuffer,
        DataSynthesizer,
        FrameworkConfig,
        PersonalizationFramework,
        PersonalizationResult,
        QualityScoreSelector,
        QualityScorer,
        QualityScores,
        SynthesisConfig,
        make_selector,
        run_personalization,
    )
    from repro.data import (
        DialogueCorpus,
        DialogueSet,
        DialogueStream,
        LexiconCollection,
        builtin_lexicons,
        make_corpus,
    )
    from repro.eval import ResponseEvaluator
    from repro.llm import FineTuneConfig, LoRAFineTuner, OnDeviceLLM, OnDeviceLLMConfig

__version__ = "1.0.0"

__all__ = [
    "AnnotationOracle",
    "DataBuffer",
    "DataSynthesizer",
    "DialogueCorpus",
    "DialogueSet",
    "DialogueStream",
    "FineTuneConfig",
    "FrameworkConfig",
    "LexiconCollection",
    "LoRAFineTuner",
    "OnDeviceLLM",
    "OnDeviceLLMConfig",
    "PersonalizationFramework",
    "PersonalizationResult",
    "QualityScoreSelector",
    "QualityScorer",
    "QualityScores",
    "ResponseEvaluator",
    "SynthesisConfig",
    "builtin_lexicons",
    "make_corpus",
    "make_selector",
    "run_personalization",
    "__version__",
]


def _lazy_exports(
    namespace: MutableMapping[str, object], exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package facade.

    ``exports`` maps each defining module to the space-separated names the
    package re-exports from it.  A name is imported from its module on first
    access and then stored in ``namespace`` (the package's ``globals()``), so
    later lookups are plain attribute reads.  Importing a package therefore
    loads none of the modules it re-exports from.
    """
    sources = {name: module for module, names in exports.items() for name in names.split()}

    def __getattr__(name: str) -> object:
        if name not in sources:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(sources[name]), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(sources))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.core": (
            "AnnotationOracle DataBuffer DataSynthesizer FrameworkConfig "
            "PersonalizationFramework PersonalizationResult QualityScoreSelector "
            "QualityScorer QualityScores SynthesisConfig make_selector run_personalization"
        ),
        "repro.data": (
            "DialogueCorpus DialogueSet DialogueStream LexiconCollection "
            "builtin_lexicons make_corpus"
        ),
        "repro.eval": "ResponseEvaluator",
        "repro.llm": "FineTuneConfig LoRAFineTuner OnDeviceLLM OnDeviceLLMConfig",
    },
)
