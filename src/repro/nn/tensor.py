"""A small reverse-mode automatic-differentiation engine over numpy arrays.

Parameters of the on-device LLM are :class:`Tensor` objects.  The engine
follows the usual define-by-run design: every operation on a :class:`Tensor`
records a backward closure and its parent tensors; calling
:meth:`Tensor.backward` runs a topological sweep that accumulates gradients
into ``tensor.grad`` for every tensor created with ``requires_grad=True``.

Nothing in production runs this graph.  Training runs
:meth:`repro.nn.transformer.TransformerLM.train_step`, a taped array-level
forward with a handwritten reverse sweep over the same backend kernels, and
inference runs the array-level
:meth:`~repro.nn.transformer.TransformerLM.prefill` and decode steps.  The
graph is the reference that step is tested against (loss and every
gradient equal to float rounding) and the subject of the gradcheck suite,
so it keeps only the operations :meth:`~repro.nn.transformer.TransformerLM.forward`
and the benchmarks' frozen reference paths use.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.backend import numpy_backend as K

ArrayLike = Union[np.ndarray, float, int, list, tuple]

_DEFAULT_DTYPE = np.float32

# Sentinel marking a backward closure already consumed by a backward() sweep
# (the graph is freed as the sweep walks it unless retain_graph=True).
_CONSUMED = object()


def _as_array(value: ArrayLike, dtype=_DEFAULT_DTYPE) -> np.ndarray:
    """Coerce python scalars / lists / arrays into a float numpy array."""
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    When an operand was broadcast during the forward pass, the gradient
    flowing back has the broadcast shape; summing over the broadcast axes
    recovers the gradient w.r.t. the original operand.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were 1 in the original shape but expanded.
    axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.data: np.ndarray = _as_array(data)
        self.requires_grad: bool = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    # ------------------------------------------------------------------ #
    # graph plumbing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor wired into the graph if any parent needs grad.

        When none does, the result is a plain constant tensor and the
        backward closure is dropped.
        """
        requires = any(parent.requires_grad for parent in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Accumulate ``grad`` into ``self.grad`` (allocating on first use)."""
        grad = _unbroadcast(_as_array(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """Accumulate a gradient array this tensor may take ownership of.

        Backend VJPs return freshly allocated arrays shaped exactly like the
        input, so the first accumulation can steal the buffer instead of
        copying it (the copy in :meth:`_accumulate` guards against aliasing
        shared upstream grads, which cannot happen here).
        """
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None, retain_graph: bool = False) -> None:
        """Back-propagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (a scalar loss is the common case).  Unless
        ``retain_graph=True``, backward closures and parent links are released
        as the sweep consumes them, so intermediate activations and residuals
        become collectable immediately; a second ``backward()`` through the
        same graph raises :class:`RuntimeError`.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        grad = _as_array(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
            )

        # Iterative post-order topo sort.  A recursive closure would both hit
        # the recursion limit on deep graphs and form a self-referential cycle
        # (the helper captures itself), leaving each step's entire graph to
        # the cyclic collector — which shows up as multi-megabyte garbage and
        # visible slowdowns in training loops.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(topo):
            backward_fn = node._backward
            if backward_fn is _CONSUMED:
                raise RuntimeError(
                    "backward() through a graph that has already been freed; "
                    "pass retain_graph=True to the first backward() call to "
                    "back-propagate through it more than once"
                )
            if backward_fn is None or node.grad is None:
                continue
            backward_fn(node.grad)
        for node in topo:
            if node._backward is not None:
                # Interior grads were consumed by the sweep; clearing them
                # releases the buffers and keeps a later backward (with
                # retain_graph=True) from double-counting stale values.
                node.grad = None
                if not retain_graph:
                    node._backward = _CONSUMED
                    node._parents = ()

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(grad)

        return Tensor._make(data, (self, other_t), backward)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(grad * self.data)

        return Tensor._make(data, (self, other_t), backward)

    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product supporting batched left operands (``... x m x k``)."""
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                grad_self = grad @ np.swapaxes(other_t.data, -1, -2)
                self._accumulate(_unbroadcast(grad_self, self.data.shape))
            if other_t.requires_grad:
                grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other_t._accumulate(_unbroadcast(grad_other, other_t.data.shape))

        return Tensor._make(data, (self, other_t), backward)

    def gelu(self) -> "Tensor":
        """GELU with the tanh approximation used by GPT-style models."""
        data, residuals = K.gelu(self.data)
        vjp = K.VJPS["gelu"]

        def backward(grad: np.ndarray) -> None:
            self._accumulate_owned(vjp(residuals, grad))

        return Tensor._make(data, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.data.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original_shape))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        data = self.data.transpose(axes)
        # Inverse permutation, computed without numpy (hot path: one call per
        # transpose, and np.argsort on a tiny tuple costs more than the op).
        inverse = [0] * len(axes)
        for position, axis in enumerate(axes):
            inverse[axis % self.data.ndim] = position
        inverse = tuple(inverse)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(data, (self,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Row lookup (used by :class:`~repro.nn.layers.Embedding`).

        ``indices`` may have any shape; the result has shape
        ``indices.shape + (row_dim,)``.
        """
        indices = np.asarray(indices, dtype=np.int64)
        data = self.data[indices]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, indices.reshape(-1), grad.reshape(-1, self.data.shape[-1]))
                self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Replace entries where ``mask`` is True with ``value`` (no grad there)."""
        mask = np.asarray(mask, dtype=bool)
        data = np.where(mask, np.asarray(value, dtype=self.data.dtype), self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.where(mask, 0.0, grad))

        return Tensor._make(data, (self,), backward)
