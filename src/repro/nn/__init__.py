"""From-scratch numpy neural-network substrate (layers, LoRA, optim, autograd).

Every production path runs array-level code over the :mod:`repro.nn.backend`
kernels: :meth:`TransformerLM.prefill` and the decode steps for generation,
:meth:`TransformerLM.hidden_states` for embeddings, and
:meth:`TransformerLM.train_step` for training.  The autograd :class:`Tensor`
graph behind :meth:`TransformerLM.forward` is the one full-window forward,
and the reference the tests hold those paths to.
"""

from repro.nn import backend, functional
from repro.nn.attention import LayerKVCache, MultiHeadSelfAttention
from repro.nn.layers import (
    Dropout,
    Embedding,
    FeedForward,
    LayerNorm,
    Linear,
    Module,
)
from repro.nn.lora import (
    DEFAULT_TARGET_LAYERS,
    LoRAConfig,
    LoRALinear,
    freeze_non_lora_parameters,
    inject_lora,
    load_lora_state_dict,
    lora_layers,
    lora_parameters,
    lora_state_dict,
    row_adapters,
)
from repro.nn.optim import (
    Adam,
    AdamW,
    Optimizer,
    clip_grad_norm,
    sqrt_batch_scaled_lr,
)
from repro.nn.tensor import Tensor
from repro.nn.transformer import KVCache, TransformerBlock, TransformerConfig, TransformerLM

__all__ = [
    "Adam",
    "AdamW",
    "DEFAULT_TARGET_LAYERS",
    "Dropout",
    "KVCache",
    "LayerKVCache",
    "Embedding",
    "FeedForward",
    "LayerNorm",
    "Linear",
    "LoRAConfig",
    "LoRALinear",
    "Module",
    "MultiHeadSelfAttention",
    "Optimizer",
    "Tensor",
    "TransformerBlock",
    "TransformerConfig",
    "TransformerLM",
    "backend",
    "clip_grad_norm",
    "freeze_non_lora_parameters",
    "functional",
    "inject_lora",
    "load_lora_state_dict",
    "lora_layers",
    "lora_parameters",
    "lora_state_dict",
    "row_adapters",
    "sqrt_batch_scaled_lr",
]
