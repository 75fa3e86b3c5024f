"""The optimizer and the learning-rate scaling rule.

The paper fine-tunes with AdamW; here it runs at weight decay 0, which is
Adam, and :class:`Adam` drives both fine-tuning and pre-training.  The
``sqrt_batch_scaled_lr`` helper reproduces the learning-rate ∝
√batch-size scaling rule the paper applies in the buffer-size experiment
(Table 3).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.backend import numpy_backend as K
from repro.nn.tensor import Tensor
from repro.utils.config import require_positive


def _aligned_zeros(size: int, dtype: np.dtype, alignment: int = 64) -> np.ndarray:
    """A zeroed 1-D array whose first element sits on an ``alignment``-byte boundary."""
    raw = np.zeros(size * dtype.itemsize + alignment, dtype=np.uint8)
    offset = -raw.ctypes.data % alignment
    return raw[offset : offset + size * dtype.itemsize].view(dtype)


class Adam:
    """Adam with bias correction (no weight decay), one packed update per step.

    The parameters live in one contiguous buffer: at the first step (or
    the first clipping) each ``.data`` is copied into its own segment, which starts on a 64-byte boundary, and
    replaced by a view of it.  The moments ``m``/``v``, the packed gradient
    and the kernel's two scratch buffers are flat arrays with the same
    layout, so a step copies each gradient into its segment and runs the
    backend's fused ``adamw_step`` once per run of consecutive parameters
    that have one — once, when all do.  The update is elementwise, so every
    bit equals the per-parameter update's.  A parameter whose ``.grad`` is
    None is left untouched, moments included.  An array assigned to
    ``.data`` later is copied into the buffer at the next step.  Nothing is
    allocated before first use.
    """

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        require_positive("lr", lr)
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = float(lr)
        self._step_count = 0
        self.beta1, self.beta2 = betas
        self.eps = eps
        dtypes = {parameter.data.dtype for parameter in self.parameters}
        if len(dtypes) != 1:
            raise ValueError(f"Adam packs one dtype, got {sorted(map(str, dtypes))}")
        if len({id(parameter) for parameter in self.parameters}) != len(self.parameters):
            raise ValueError("Adam received the same parameter more than once")
        self._flat: Optional[Dict[str, np.ndarray]] = None

    @property
    def step_count(self) -> int:
        """Number of optimization steps taken so far."""
        return self._step_count

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for parameter in self.parameters:
            parameter.grad = None

    def _build(self) -> None:
        """Allocate the packed buffers and bind every parameter to its segment."""
        dtype = self.parameters[0].data.dtype
        align = max(1, 64 // dtype.itemsize)
        self._bounds: List[Tuple[int, int]] = []
        total = 0
        for parameter in self.parameters:
            self._bounds.append((total, total + parameter.data.size))
            total += -(-parameter.data.size // align) * align
        # Padding between segments stays zero in every buffer, so a run
        # spanning it updates nothing there.
        self._flat = {
            name: _aligned_zeros(total, dtype) for name in ("data", "grad", "m", "v", "a", "b")
        }
        self._data, self._grads, self._m, self._v = (
            [
                self._flat[name][start:stop].reshape(parameter.data.shape)
                for parameter, (start, stop) in zip(self.parameters, self._bounds)
            ]
            for name in ("data", "grad", "m", "v")
        )
        for parameter, data in zip(self.parameters, self._data):
            data[...] = parameter.data
            parameter.data = data

    def _pack(self) -> List[Tuple[int, int]]:
        """Bind every parameter to its segment and copy its gradient into its own.

        Afterwards each ``.data`` and every non-None ``.grad`` is a view of
        the packed buffers.  Returns the ``[start, stop)`` spans of the runs
        of consecutive parameters that have a gradient.
        """
        if self._flat is None:
            self._build()
        runs: List[Tuple[int, int]] = []
        previous_live = False
        for parameter, data, grad, (start, stop) in zip(
            self.parameters, self._data, self._grads, self._bounds
        ):
            if parameter.data is not data:
                if parameter.data.shape != data.shape:
                    raise ValueError(
                        f"parameter shape changed from {data.shape} to {parameter.data.shape}"
                    )
                data[...] = parameter.data
                parameter.data = data
            if parameter.grad is None:
                previous_live = False
                continue
            if parameter.grad is not grad:
                grad[...] = parameter.grad
                parameter.grad = grad
            if previous_live:
                runs[-1] = (runs[-1][0], stop)
            else:
                runs.append((start, stop))
            previous_live = True
        return runs

    def clip_grad_norm(self, max_norm: float) -> float:
        """:func:`clip_grad_norm` over the packed gradient: one scale per run.

        The norm keeps the per-parameter float64 partials, in parameter
        order, so it and the clipped gradient are bit-identical to the
        free function's.
        """
        require_positive("max_norm", max_norm)
        runs = self._pack()
        grads = [parameter.grad for parameter in self.parameters if parameter.grad is not None]
        norm = math.sqrt(K.grad_norm_sq(grads))
        if norm > max_norm and norm > 0.0:
            scale = max_norm / norm
            flat_grad = self._flat["grad"]
            for start, stop in runs:
                flat_grad[start:stop] *= scale
        return norm

    def step(self) -> None:
        self._step_count += 1
        adamw_step = K.adamw_step
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        runs = self._pack()
        flat = self._flat
        for start, stop in runs:
            span = slice(start, stop)
            adamw_step(
                flat["data"][span], flat["grad"][span], flat["m"][span], flat["v"][span],
                flat["a"][span], flat["b"][span],
                self.lr, self.beta1, self.beta2, self.eps, bias1, bias2,
            )


def clip_grad_norm(parameters: Sequence[Tensor], max_norm: float) -> float:
    """Clip gradients in-place to a global L2 norm; returns the pre-clip norm.

    The squared norm is reduced in a single pass with float64 accumulation but
    without materialising a float64 copy of any gradient (the old
    ``grad.astype(np.float64) ** 2`` doubled peak gradient memory).
    """
    require_positive("max_norm", max_norm)
    grads = [p.grad for p in parameters if p.grad is not None]
    norm = math.sqrt(K.grad_norm_sq(grads))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for grad in grads:
            grad *= scale
    return norm


def sqrt_batch_scaled_lr(
    base_lr: float, base_batch_size: int, batch_size: int
) -> float:
    """Scale the learning rate with the square root of the batch size.

    Reproduces the rule the paper applies when sweeping buffer sizes in
    Table 3 ("learning rate ∝ √batch size"): the learning rate used for a
    buffer of ``batch_size`` items is ``base_lr * sqrt(batch/base_batch)``.
    """
    require_positive("base_lr", base_lr)
    require_positive("base_batch_size", base_batch_size)
    require_positive("batch_size", batch_size)
    return base_lr * math.sqrt(batch_size / base_batch_size)
