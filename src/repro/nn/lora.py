"""Low-Rank Adaptation (LoRA) for the transformer attention projections.

Implements the fine-tuning setup the paper uses: frozen base weights plus
trainable low-rank deltas on ``q_proj``, ``k_proj``, ``v_proj`` and ``o_proj``
with rank ``r``, scaling factor ``alpha`` and LoRA dropout.  The adapted
forward pass is

    ``y = x W_base^T + b + (alpha / r) * dropout(x) A^T B^T``

where ``A`` (``r x in``) is Gaussian-initialised and ``B`` (``out x r``) is
zero-initialised so the adapter starts as an exact no-op.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.attention import MultiHeadSelfAttention, stacked_slabs
from repro.nn.backend import numpy_backend as K
from repro.nn.layers import Dropout, Linear, Module, apply_vjp
from repro.nn.tensor import Tensor
from repro.utils.config import require_positive
from repro.utils.rng import as_generator

DEFAULT_TARGET_LAYERS: Tuple[str, ...] = ("q_proj", "k_proj", "v_proj", "o_proj")


@dataclass
class LoRAConfig:
    """LoRA hyper-parameters (defaults follow the paper's setup)."""

    rank: int = 8
    alpha: float = 16.0
    dropout_rate: float = 0.05

    def __post_init__(self) -> None:
        require_positive("rank", self.rank)
        require_positive("alpha", self.alpha)
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")

    @property
    def scaling(self) -> float:
        """The effective adapter scaling ``alpha / rank``."""
        return self.alpha / self.rank


class LoRALinear(Module):
    """A frozen :class:`Linear` augmented with a trainable low-rank delta."""

    def __init__(
        self,
        base: Linear,
        config: LoRAConfig,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = as_generator(rng)
        self.base = base
        self.config = config
        # Freeze the base projection: only the adapter trains.
        self.base.weight.requires_grad = False
        self.base.bias.requires_grad = False
        in_features = base.in_features
        out_features = base.out_features
        self.lora_a = Tensor(
            (rng.standard_normal((config.rank, in_features)) * 0.01).astype(np.float32),
            requires_grad=True,
            name="lora_a",
        )
        self.lora_b = Tensor(
            np.zeros((out_features, config.rank), dtype=np.float32),
            requires_grad=True,
            name="lora_b",
        )
        self.lora_dropout = Dropout(config.dropout_rate, rng=rng)
        #: Set only inside :func:`row_adapters`: either one ``(A, B)`` pair
        #: every row uses instead of the attached adapter, or the stacked
        #: ``(B, in, rank)`` / ``(B, rank, out)`` slabs of a per-row choice,
        #: the second already times ``config.scaling``.
        self.row_adapters: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def in_features(self) -> int:
        return self.base.in_features

    @property
    def out_features(self) -> int:
        return self.base.out_features

    def forward(self, x: Tensor) -> Tensor:
        base_out = self.base(x)
        dropout_mask = self.lora_dropout.draw_mask(x.shape)
        delta = F.lora_matmul(
            x, self.lora_a, self.lora_b, self.config.scaling, dropout_mask
        )
        return base_out + delta

    def raw_forward(self, x: np.ndarray, tape: Optional[list] = None, rows=None) -> np.ndarray:
        """Array-level forward (same kernels); records both on ``tape``.

        ``rows`` packs ``x`` as in :meth:`~repro.nn.layers.Dropout.draw_mask`.
        """
        out = self.base.raw_forward(x, tape)
        adapters = self.row_adapters
        if adapters is not None and adapters[0].ndim == 3:
            # Grouped delta, row i through its own slab: x[i] @ A_i^T @ (s B_i)^T.
            delta = np.matmul(
                np.matmul(x.reshape(len(x), -1, x.shape[-1]), adapters[0]), adapters[1]
            )
            out += delta.reshape(out.shape)
            return out
        a, b = (self.lora_a.data, self.lora_b.data) if adapters is None else adapters
        dropout_mask = self.lora_dropout.draw_mask(x.shape, rows)
        delta, residuals = K.lora_matmul(x, a, b, self.config.scaling, dropout_mask)
        if tape is not None:
            tape.append(residuals)
        out += delta
        return out

    def raw_backward(self, tape: list, grad: np.ndarray, need_x: bool) -> List[np.ndarray]:
        """Pop the adapter's and the base layer's records (LIFO).

        Returns the input-gradient contributions base first, then adapter —
        the order autograd accumulates them in.
        """
        grad_x = apply_vjp("lora_matmul", tape.pop(), grad, need_x, self.lora_a, self.lora_b)
        parts = self.base.raw_backward(tape, grad, need_x)
        if grad_x is not None:
            parts.append(grad_x)
        return parts


def inject_lora(
    model: Module,
    config: Optional[LoRAConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[LoRALinear]:
    """Replace targeted attention projections in ``model`` with LoRA layers.

    Walks every :class:`MultiHeadSelfAttention` submodule and wraps the
    projections named in :data:`DEFAULT_TARGET_LAYERS`.  All other model
    parameters are frozen, reproducing the paper's parameter-efficient
    fine-tuning regime.  Returns the list of injected adapters.

    ``model``'s cached :meth:`~repro.nn.layers.Module.module_list` is
    refreshed, so :func:`lora_layers` (every adapter load and export) and
    the mode switches see the adapters without walking the module tree.
    """
    config = config or LoRAConfig()
    rng = as_generator(rng)
    adapters: List[LoRALinear] = []
    attention_modules = [
        module for module in model.modules() if isinstance(module, MultiHeadSelfAttention)
    ]
    if not attention_modules:
        raise ValueError("model contains no MultiHeadSelfAttention modules to adapt")
    for attention in attention_modules:
        for layer_name in DEFAULT_TARGET_LAYERS:
            projection = getattr(attention, layer_name)
            if isinstance(projection, LoRALinear):
                continue
            adapter = LoRALinear(projection, config, rng=rng)
            if not projection.training:
                adapter.eval()  # join the model's mode (decode skips eval())
            setattr(attention, layer_name, adapter)
            adapters.append(adapter)
    model.refresh_tree()
    freeze_non_lora_parameters(model)
    return adapters


def freeze_non_lora_parameters(model: Module) -> int:
    """Freeze every parameter that is not a LoRA adapter weight.

    Returns the number of tensors frozen.
    """
    lora_tensors = {id(t) for t in lora_parameters(model)}
    frozen = 0
    for _, tensor in model.named_parameters():
        if id(tensor) not in lora_tensors and tensor.requires_grad:
            tensor.requires_grad = False
            tensor.grad = None
            frozen += 1
    return frozen


def lora_layers(model: Module) -> List[LoRALinear]:
    """All :class:`LoRALinear` layers inside ``model``, in module-tree order.

    Filters ``model``'s cached module list, which :func:`inject_lora`
    refreshes when it runs on ``model`` itself.
    """
    return [module for module in model.module_list() if isinstance(module, LoRALinear)]


def lora_parameters(model: Module) -> List[Tensor]:
    """The trainable LoRA parameter tensors (A and B matrices)."""
    parameters: List[Tensor] = []
    for layer in lora_layers(model):
        parameters.extend([layer.lora_a, layer.lora_b])
    return parameters


def lora_state_dict(model: Module) -> Dict[str, np.ndarray]:
    """Adapter-only state dict (the artefact an edge device would persist)."""
    state: Dict[str, np.ndarray] = {}
    for index, layer in enumerate(lora_layers(model)):
        state[f"adapter.{index}.lora_a"] = layer.lora_a.data.copy()
        state[f"adapter.{index}.lora_b"] = layer.lora_b.data.copy()
    return state


def clone_lora_state(state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """A deep copy of an adapter state dict (arrays owned by the copy).

    The serving layer hands adapter states between the in-memory cache, the
    live model and the on-disk store; copying at the boundary keeps each
    owner's arrays isolated so a later fine-tuning round cannot silently
    mutate a cached snapshot.
    """
    return {key: np.array(value, dtype=np.float32, copy=True) for key, value in state.items()}


def load_lora_state_dict(model: Module, state: Dict[str, np.ndarray]) -> None:
    """Load an adapter-only state dict produced by :func:`lora_state_dict`."""
    layers = lora_layers(model)
    for layer, (a, b) in zip(layers, _adapter_arrays(layers, state)):
        layer.lora_a.data = a.copy()
        layer.lora_b.data = b.copy()


def _adapter_arrays(
    layers: List[LoRALinear], state: Dict[str, np.ndarray]
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Each layer's ``(A, B)`` from ``state``, every key and shape checked.

    Everything is validated before a caller assigns anything, so an
    incompatible state (saved under a different LoRA rank or model size)
    fails cleanly instead of half-loading.
    """
    expected_keys = {
        key for index in range(len(layers)) for key in (f"adapter.{index}.lora_a", f"adapter.{index}.lora_b")
    }
    if set(state) != expected_keys:
        raise ValueError(
            f"LoRA state dict keys {sorted(state)} do not match expected {sorted(expected_keys)}"
        )
    pairs = []
    for index, layer in enumerate(layers):
        pair = []
        for name, target in (("lora_a", layer.lora_a), ("lora_b", layer.lora_b)):
            value = np.asarray(state[f"adapter.{index}.{name}"], dtype=np.float32)
            if value.shape != target.data.shape:
                raise ValueError(
                    f"adapter.{index}.{name} has shape {value.shape} but the "
                    f"model's adapter expects {target.data.shape} — the state "
                    "was saved under a different LoRA rank or model size"
                )
            pair.append(value)
        pairs.append((pair[0], pair[1]))
    return pairs


class RowAdapter(Mapping):
    """An adapter state checked against a model's LoRA layers, in the forms a decode reads.

    It reads as the state itself (a read-only mapping of its keys to its
    arrays).  ``pairs`` holds each layer's ``(A, B)``: the state's own
    arrays, which a one-adapter round's prefill reads exactly as if they
    were attached.  :attr:`slabs` holds what its decode steps read, and
    what one row of a mixed-adapter round reads.  Building one checks
    every key and shape of the state (a ``ValueError`` names the first
    mismatch), so a caller that keeps it checks a state once, not once per
    round.
    """

    __slots__ = ("_model", "_state", "pairs", "_slabs")

    def __init__(self, model: Module, state: Dict[str, np.ndarray]) -> None:
        self._model = model
        self._state = state
        self.pairs = _adapter_arrays(lora_layers(model), state)
        self._slabs: Optional[List[Tuple[np.ndarray, ...]]] = None

    @property
    def slabs(self) -> List[Tuple[np.ndarray, ...]]:
        """Per attention module, the adapter's
        :func:`~repro.nn.attention.stacked_slabs` (every ``B^T`` already
        times ``config.scaling``).  Built on first use."""
        if self._slabs is None:
            position = {id(layer): index for index, layer in enumerate(lora_layers(self._model))}
            self._slabs = [
                stacked_slabs(
                    [
                        self.pairs[position[id(getattr(attention, name))]]
                        for name in DEFAULT_TARGET_LAYERS
                    ],
                    attention.o_proj.config.scaling,
                )
                for attention in _adapted_attentions(self._model)
            ]
        return self._slabs

    def __getitem__(self, key: str) -> np.ndarray:
        return self._state[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._state)

    def __len__(self) -> int:
        return len(self._state)


def _adapted_attentions(model: Module) -> List[MultiHeadSelfAttention]:
    """The attention modules of ``model`` that carry adapters, in module-tree order."""
    return [
        module
        for module in model.module_list()
        if isinstance(module, MultiHeadSelfAttention) and isinstance(module.o_proj, LoRALinear)
    ]


@contextmanager
def row_adapters(
    model: Module, segments: Sequence[Tuple[int, Mapping[str, np.ndarray]]]
) -> Iterator[None]:
    """Run ``model`` with a per-row choice of adapter instead of the attached one.

    ``segments`` lists ``(rows, adapter)`` in batch-row order: the next
    ``rows`` batch rows use ``adapter``, a :class:`RowAdapter` or the
    :func:`lora_state_dict` dict to build one from.  With a single segment
    the layers make exactly the attached path's ``lora_matmul`` calls, on
    that state's arrays, and each attention's decode slabs are the
    adapter's :attr:`RowAdapter.slabs` as one group: the slabs a prime
    stacks from an attached adapter, so a one-adapter round has the bits
    of decoding with it attached.  With several, every :class:`LoRALinear`
    applies per-row slabs of the factors in :meth:`LoRALinear.raw_forward`
    (the S-LoRA / Punica idiom), each slab one ``take`` of the segments'
    stacked :attr:`RowAdapter.slabs` by the row-to-segment index, and the
    decode slabs are those per-row slabs (one group per row).  The decode
    step (:meth:`~repro.nn.attention.MultiHeadSelfAttention.raw_append_rows`)
    makes the q, k and v deltas of a block in one product over them.  The
    attached adapter is never touched, and the slabs are cleared on exit,
    error or not.  Inference only: the model must be in eval mode (no
    adapter dropout is drawn for slabs).
    """
    layers = lora_layers(model)
    attentions = _adapted_attentions(model)
    adapters = [
        state if isinstance(state, RowAdapter) else RowAdapter(model, state)
        for _, state in segments
    ]
    try:
        if len(adapters) == 1:
            for layer, pair in zip(layers, adapters[0].pairs):
                layer.row_adapters = pair
            for attention, slabs in zip(attentions, adapters[0].slabs):
                attention.row_slabs = tuple(slab[None] for slab in slabs)
        else:
            segment_of_row = np.repeat(np.arange(len(adapters)), [rows for rows, _ in segments])
            for index, attention in enumerate(attentions):
                # Contiguous per-row slabs: strided views of one shared
                # take made every decode step slower.
                slabs = tuple(
                    np.stack([adapter.slabs[index][part] for adapter in adapters]).take(
                        segment_of_row, axis=0
                    )
                    for part in range(4)
                )
                attention.row_slabs = slabs
                a_qkv, b_qkv, a_o, b_o = slabs
                rank = a_o.shape[-1]
                for part, name in enumerate(DEFAULT_TARGET_LAYERS[:3]):
                    getattr(attention, name).row_adapters = (
                        a_qkv[:, :, part * rank : (part + 1) * rank],
                        b_qkv[:, part],
                    )
                attention.o_proj.row_adapters = (a_o, b_o)
        yield
    finally:
        for layer in layers:
            layer.row_adapters = None
        for attention in attentions:
            attention.row_slabs = None
