"""Neural-network modules with autograd :class:`Tensor` parameters.

The :class:`Module` base class provides recursive parameter discovery,
train/eval mode switching, and state-dict export/import; the concrete layers
are the minimum set needed by a decoder-only transformer: ``Linear``
(always with a bias; the model's output head is the tied embedding, not a
``Linear``), ``Embedding``, ``LayerNorm``, ``FeedForward`` and the LoRA
adapters' ``Dropout``.  Their autograd ``forward`` is the reference path; the
inference and training paths run the array-level methods next to it
(``raw_forward``, ``raw_backward``, ``draw_mask``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.backend import numpy_backend as K
from repro.nn.tensor import Tensor
from repro.utils.rng import as_generator


def apply_vjp(
    primitive: str,
    residuals,
    grad: np.ndarray,
    need_x: bool,
    *params: Tensor,
) -> Optional[np.ndarray]:
    """Apply a backend VJP whose inputs are ``(x, *params)``.

    Accumulates ``.grad`` on each parameter that requires it and returns the
    input gradient, or None when ``need_x`` is False.
    """
    needs = (need_x,) + tuple(param.requires_grad for param in params)
    if not any(needs):
        return None
    grads = K.VJPS[primitive](residuals, grad, needs)
    for param, param_grad in zip(params, grads[1:]):
        if param_grad is not None:
            param._accumulate_owned(param_grad)
    return grads[0]


class Module:
    """Base class for all layers and models.

    Parameters and submodules are discovered from public attributes only; an
    attribute whose name starts with an underscore is private state (an RNG,
    a workspace, an index of submodules kept elsewhere in the tree) and is
    never walked.
    """

    #: Every module below this one, in :meth:`modules` order, and
    #: :meth:`parameters`: each cached on first use by :meth:`module_list` /
    #: :meth:`parameter_list`.  ``self`` is left out of the list, so the
    #: cache forms no reference cycle and a dropped model is freed at once.
    _submodules: Optional[List["Module"]] = None
    _parameters: Optional[List[Tensor]] = None

    def __init__(self) -> None:
        self.training = True

    # -- parameter / submodule discovery -------------------------------- #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Yield ``(qualified_name, tensor)`` for every parameter, recursively."""
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            qualified = f"{prefix}{name}" if not prefix else f"{prefix}.{name}"
            if isinstance(value, Tensor):
                yield qualified, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=qualified)
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{qualified}.{index}")
                    elif isinstance(item, Tensor):
                        yield f"{qualified}.{index}", item

    def parameters(self) -> List[Tensor]:
        """All parameter tensors, recursively."""
        return [tensor for _, tensor in self.named_parameters()]

    def trainable_parameters(self) -> List[Tensor]:
        """Only parameters with ``requires_grad=True``."""
        return [tensor for tensor in self.parameters() if tensor.requires_grad]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every submodule, depth-first."""
        yield self
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def module_list(self) -> List["Module"]:
        """``list(self.modules())``, from a cached list of the submodules.

        The list is built on first use and reused, so the hot paths (mode
        switches, adapter lookups) do not walk the tree.  Whoever replaces
        a submodule must call :meth:`refresh_tree`, as
        :func:`~repro.nn.lora.inject_lora` does.
        """
        submodules = self._submodules
        if submodules is None:
            submodules = self._submodules = list(self.modules())[1:]
        return [self, *submodules]

    def parameter_list(self) -> List[Tensor]:
        """Cached :meth:`parameters`, refreshed as :meth:`module_list` is."""
        parameters = self._parameters
        if parameters is None:
            parameters = self._parameters = self.parameters()
        return parameters

    def refresh_tree(self) -> None:
        """Drop the cached lists of this module and every submodule."""
        for module in self.modules():
            module._submodules = module._parameters = None

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for tensor in self.parameters():
            tensor.grad = None

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters."""
        tensors = self.trainable_parameters() if trainable_only else self.parameters()
        return int(sum(tensor.size for tensor in tensors))

    # -- training / evaluation mode -------------------------------------- #
    def train(self) -> "Module":
        """Switch this module (and submodules) to training mode."""
        for module in self.module_list():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Switch this module (and submodules) to evaluation mode."""
        for module in self.module_list():
            module.training = False
        return self

    # -- state dict -------------------------------------------------------- #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter array keyed by its qualified name."""
        return {name: tensor.data.copy() for name, tensor in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter arrays produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise ValueError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, tensor in own.items():
            array = np.asarray(state[name], dtype=tensor.data.dtype)
            if array.shape != tensor.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {tensor.data.shape}, got {array.shape}"
                )
            tensor.data = array.copy()

    # -- call protocol ----------------------------------------------------- #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine transform ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = as_generator(rng)
        self.in_features = in_features
        self.out_features = out_features
        scale = 1.0 / np.sqrt(in_features)
        self.weight = Tensor(
            rng.uniform(-scale, scale, size=(out_features, in_features)).astype(np.float32),
            requires_grad=True,
            name="weight",
        )
        self.bias = Tensor(
            np.zeros(out_features, dtype=np.float32), requires_grad=True, name="bias"
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def raw_forward(self, x: np.ndarray, tape: Optional[list] = None, rows=None) -> np.ndarray:
        """Array-level forward (same kernel as :meth:`forward`).

        With a ``tape`` (the training step) the kernel's residuals are
        appended to it for :meth:`raw_backward`.  ``rows`` (the packing of
        ``x``'s rows) is taken for the LoRA layer's signature: a plain
        projection draws no dropout mask.
        """
        out, residuals = K.linear(x, self.weight.data, self.bias.data)
        if tape is not None:
            tape.append(residuals)
        return out

    def raw_backward(self, tape: list, grad: np.ndarray, need_x: bool) -> List[np.ndarray]:
        """Pop this layer's tape record and apply the ``linear`` VJP.

        Accumulates ``.grad`` on the parameters that require it and returns
        the input-gradient contributions in the order autograd adds them
        (empty when ``need_x`` is False).
        """
        grad_x = apply_vjp("linear", tape.pop(), grad, need_x, self.weight, self.bias)
        return [grad_x] if need_x else []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Linear(in={self.in_features}, out={self.out_features})"


class Embedding(Module):
    """Lookup table mapping integer token ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = as_generator(rng)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Tensor(
            (rng.standard_normal((num_embeddings, embedding_dim)) * 0.02).astype(np.float32),
            requires_grad=True,
            name="embedding",
        )

    def _validated(self, token_ids: np.ndarray) -> np.ndarray:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= self.num_embeddings):
            raise IndexError(
                f"token id out of range [0, {self.num_embeddings}): "
                f"min={token_ids.min()}, max={token_ids.max()}"
            )
        return token_ids

    def forward(self, token_ids: np.ndarray) -> Tensor:
        return self.weight.take_rows(self._validated(token_ids))

    def rows(self, token_ids: np.ndarray) -> np.ndarray:
        """Array-level lookup (fresh copy)."""
        return self.weight.data[self._validated(token_ids)]

    def raw_backward(self, token_ids: np.ndarray, grad: np.ndarray) -> None:
        """Scatter-add ``grad`` into the looked-up rows (``take_rows``' VJP)."""
        if self.weight.requires_grad:
            full = np.zeros_like(self.weight.data)
            np.add.at(full, token_ids.reshape(-1), grad.reshape(-1, self.embedding_dim))
            self.weight._accumulate_owned(full)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Embedding(num={self.num_embeddings}, dim={self.embedding_dim})"


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True, name="ln_weight")
        self.bias = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True, name="ln_bias")

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)

    def raw_forward(self, x: np.ndarray, tape: Optional[list] = None) -> np.ndarray:
        """Array-level forward (same kernel); records residuals on ``tape``."""
        out, residuals = K.layernorm(x, self.weight.data, self.bias.data, self.eps)
        if tape is not None:
            tape.append(residuals)
        return out

    def raw_backward(
        self, tape: list, grad: Optional[np.ndarray], need_x: bool
    ) -> Optional[np.ndarray]:
        """Pop this layer's record; returns the input gradient (or None).

        ``grad`` may be None when nothing downstream needed a gradient; the
        record is still popped.
        """
        residuals = tape.pop()
        if grad is None:
            return None
        return apply_vjp("layernorm", residuals, grad, need_x, self.weight, self.bias)


class Dropout(Module):
    """Inverted dropout on a LoRA adapter's input; inert in eval mode.

    It has no ``forward``: the adapter folds the multiply into its
    ``lora_matmul`` kernel, so the layer only draws the masks.
    """

    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
        self.rate = rate
        self._rng = as_generator(rng)

    def draw_mask(self, shape, rows=None) -> Optional[np.ndarray]:
        """Pre-draw this layer's inverted-dropout multiplier for fused kernels.

        Returns ``None`` when dropout is inert (eval mode or rate 0); no RNG
        draw happens then, so the stream does not advance.  With ``rows``
        (a :class:`~repro.nn.attention.PackedRows`), ``shape`` is the packed
        ``(rows.count, *f)``: the mask is drawn at the padded window's
        ``(batch, seq, *f)``, the draw the unpacked forward makes, and
        packed.
        """
        if not self.training or self.rate == 0.0:
            return None
        if rows is None:
            return F.draw_dropout_mask(shape, self.rate, self._rng)
        window = (rows.batch, rows.seq) + tuple(shape[1:])
        return rows.pack(F.draw_dropout_mask(window, self.rate, self._rng))


class FeedForward(Module):
    """Position-wise feed-forward block: Linear → GELU → Linear."""

    def __init__(
        self, dim: int, hidden_dim: int, rng: Optional[np.random.Generator] = None
    ) -> None:
        super().__init__()
        rng = as_generator(rng)
        self.up = Linear(dim, hidden_dim, rng=rng)
        self.down = Linear(hidden_dim, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.down(self.up(x).gelu())

    def raw_forward(self, x: np.ndarray, tape: Optional[list] = None) -> np.ndarray:
        """Array-level forward (same kernels as :meth:`forward`).

        On a ``tape`` the GELU residuals are recorded between the two
        projections' own records.
        """
        act, residuals = K.gelu(self.up.raw_forward(x, tape))
        if tape is not None:
            tape.append(residuals)
        # Without a tape nothing reads them again: free the projection and
        # tanh buffers before the down projection allocates its output.
        del residuals
        return self.down.raw_forward(act, tape)

    def raw_backward(self, tape: list, grad: np.ndarray) -> np.ndarray:
        """Reverse of a taped :meth:`raw_forward`; returns the input gradient."""
        (grad,) = self.down.raw_backward(tape, grad, True)
        gelu_residuals = tape.pop()
        grad = K.VJPS["gelu"](gelu_residuals, grad)
        (grad,) = self.up.raw_backward(tape, grad, True)
        return grad
