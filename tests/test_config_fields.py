"""The configs hold only what some caller varies.

Each config's field names are pinned here, so adding a knob (or bringing
back one that became a module constant) is a visible edit of this test.
"""

from dataclasses import fields

from repro.core.framework import FrameworkConfig
from repro.core.synthesis import SynthesisConfig
from repro.eval.rouge_eval import EvaluationConfig
from repro.llm.finetune import FineTuneConfig
from repro.llm.model import OnDeviceLLMConfig
from repro.llm.pretrain import PretrainConfig
from repro.nn.lora import LoRAConfig
from repro.nn.transformer import TransformerConfig
from repro.serve.config import ServeConfig
from repro.serve.errors import RetryPolicy


def test_config_field_names_are_pinned():
    pinned = {
        FrameworkConfig: (
            "buffer_bins finetune_interval selector regenerate_responses synthesis finetune seed"
        ),
        EvaluationConfig: "max_new_tokens greedy subset_size seed batch_size",
        FineTuneConfig: "epochs batch_size learning_rate lora seed",
        LoRAConfig: "rank alpha dropout_rate",
        OnDeviceLLMConfig: (
            "dim num_layers num_heads max_seq_len ffn_multiplier max_vocab_size seed"
        ),
        TransformerConfig: "vocab_size max_seq_len dim num_layers num_heads ffn_multiplier",
        PretrainConfig: "epochs batch_size seed",
        SynthesisConfig: "num_per_item similarity_threshold strategy generation seed",
        RetryPolicy: "max_attempts",
        ServeConfig: (
            "load scale adapter_dir cache_capacity max_batch_size pretrain_epochs workers "
            "state_dir resume fault_plan retry deadline_seconds fsync max_restarts "
            "install_signal_handlers listen port_file trace_out max_queue_depth "
            "max_inflight_per_user out_dir no_artifacts metrics_enabled metrics_out "
            "metrics_interval_seconds"
        ),
    }
    for config, names in pinned.items():
        assert [field.name for field in fields(config)] == names.split(), config.__name__
