"""On-device LLM: model wrapper, generation, LoRA fine-tuning, pre-training."""

from repro.llm.finetune import (
    IGNORE_INDEX,
    FineTuneConfig,
    FineTuneReport,
    LoRAFineTuner,
    build_training_example,
    collate_batch,
)
from repro.llm.generation import (
    GenerationConfig,
    apply_repetition_penalty,
    generate_tokens,
    generate_tokens_batch,
    sample_next_token,
)
from repro.llm.model import OnDeviceLLM, OnDeviceLLMConfig
from repro.llm.pretrain import (
    PretrainConfig,
    PretrainReport,
    build_pretrained_llm,
    pretrain,
)

__all__ = [
    "FineTuneConfig",
    "FineTuneReport",
    "GenerationConfig",
    "IGNORE_INDEX",
    "LoRAFineTuner",
    "OnDeviceLLM",
    "OnDeviceLLMConfig",
    "PretrainConfig",
    "PretrainReport",
    "apply_repetition_penalty",
    "build_pretrained_llm",
    "build_training_example",
    "collate_batch",
    "generate_tokens",
    "generate_tokens_batch",
    "pretrain",
    "sample_next_token",
]
