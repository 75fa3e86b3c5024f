"""Pluggable array backends for the ``repro.nn`` stack.

A *backend* is a module of fused primitive operations — ``matmul``,
``linear``, ``softmax``, ``layernorm``, ``gelu``,
``scaled_dot_product_attention``, ``cross_entropy``, ``lora_matmul``,
``adamw_step`` — each implemented as one or two vectorized array calls with a
handwritten vector-Jacobian product (VJP) registered in the backend's
``VJPS`` table.  The layers in :mod:`repro.nn` call these primitives for
their hot kernels instead of composing 5–15 chained :class:`~repro.nn.tensor.
Tensor` micro-ops.

Training runs without a graph: :meth:`repro.nn.transformer.TransformerLM.
train_step` tapes the residuals each forward kernel returns and replays them
LIFO through ``VJPS`` (the HIPS-autograd idea of recorded primitives with
gradients applied in reverse, written out once for the transformer).
Inference runs the same forward kernels through :meth:`~repro.nn.transformer.
TransformerLM.prefill`, the decode steps and ``hidden_states``.  The autograd
:class:`~repro.nn.tensor.Tensor` path wraps the same kernels, one backward
closure per kernel, and is the reference the tests hold both to: the
inference paths bit for bit, the training step (which runs on packed row
subsets) to float rounding.

Backend contract
----------------
A backend module must expose:

``name``
    The backend's registry name (string).
``PRIMITIVES``
    Mapping of primitive name → forward callable.  Every forward takes plain
    arrays (never Tensors) and returns ``(out, residuals)`` where
    ``residuals`` is whatever the VJP needs.
``VJPS``
    Mapping of primitive name → VJP callable.  Single-input primitives have
    signature ``vjp(residuals, grad) -> grad_in``; multi-input primitives
    take a ``needs`` tuple of booleans and return one gradient (or ``None``)
    per differentiable input.  Returned gradient arrays are freshly
    allocated, shaped exactly like the corresponding input, and owned by the
    caller (safe to accumulate into in place).
``Workspace``
    A preallocated scratch arena (see :class:`numpy_backend.Workspace`);
    steady-state loops reuse its buffers so hot paths run allocation-free.

Forward arithmetic must be identical between a backend's use on the autograd
path and on the raw array path — :mod:`repro.nn` relies on this to keep
``hidden_states`` (times the tied head) bit-equal to the autograd
``forward``'s logits, and the taped training step's loss and gradients
bit-equal to autograd's.

Selection
---------
The active backend defaults to ``numpy`` and can be chosen with the
``REPRO_BACKEND`` environment variable (read once, at first use) or
programmatically with :func:`set_backend`.  Additional backends (numba,
CuPy, ...) register a lazy loader via :func:`register_backend` and slot in
without touching the layers above.
"""

from __future__ import annotations

import importlib
import os
from typing import Callable, Dict, List

ENV_VAR = "REPRO_BACKEND"
DEFAULT_BACKEND = "numpy"

# name -> zero-arg loader returning the backend module.  Lazy so importing
# repro.nn does not pay for backends that are never selected (a CuPy backend
# must not import cupy unless asked for).
_LOADERS: Dict[str, Callable[[], object]] = {
    "numpy": lambda: importlib.import_module("repro.nn.backend.numpy_backend"),
}
_active = None


def register_backend(name: str, loader: Callable[[], object]) -> None:
    """Register ``loader`` (a zero-arg callable returning a backend module)."""
    if not name:
        raise ValueError("backend name must be non-empty")
    _LOADERS[name] = loader


def available_backends() -> List[str]:
    """Names of every registered backend."""
    return sorted(_LOADERS)


def get_backend(name: str):
    """Load and return the backend registered under ``name``."""
    try:
        loader = _LOADERS[name]
    except KeyError:
        raise RuntimeError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        ) from None
    return loader()


def set_backend(name: str):
    """Make ``name`` the active backend; returns the previous active module."""
    global _active
    previous = _active
    _active = get_backend(name)
    return previous


def active():
    """The active backend module (resolving ``REPRO_BACKEND`` on first use)."""
    global _active
    if _active is None:
        _active = get_backend(os.environ.get(ENV_VAR, DEFAULT_BACKEND))
    return _active
