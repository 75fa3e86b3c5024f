"""The fused array kernels of the ``repro.nn`` stack.

:mod:`repro.nn.backend.numpy_backend` is a module of fused primitive
operations — ``matmul``, ``linear``, ``layernorm``, ``gelu``,
``scaled_dot_product_attention``, ``cross_entropy``, ``lora_matmul``,
``adamw_step`` — each implemented as one or two vectorized array calls with a
handwritten vector-Jacobian product (VJP) registered in its ``VJPS`` table.
The layers in :mod:`repro.nn` call these primitives for their hot kernels
instead of composing 5–15 chained :class:`~repro.nn.tensor.Tensor` micro-ops.

Training runs without a graph: :meth:`repro.nn.transformer.TransformerLM.
train_step` tapes the residuals each forward kernel returns and replays them
LIFO through ``VJPS`` (the HIPS-autograd idea of recorded primitives with
gradients applied in reverse, written out once for the transformer).
Inference runs the same forward kernels through :meth:`~repro.nn.transformer.
TransformerLM.prefill` and ``hidden_states``; a decode step runs the
inference kernels ``normalize_into`` and ``gelu_into`` (no residuals, into
a round's buffers) on weights its prime folded.  The autograd
:class:`~repro.nn.tensor.Tensor` path wraps the same kernels, one backward
closure per kernel, and is the reference the tests hold them to:
``hidden_states`` bit for bit, the prime, the decode steps and the
training step (which runs on packed row subsets) to float rounding.

Kernel contract
---------------
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
    A preallocated scratch arena; a decode round takes its buffers from its
    KV cache's, so steady-state steps run allocation-free.

Forward arithmetic is identical on the autograd path and on the raw array
path — :mod:`repro.nn` relies on this to keep ``hidden_states`` (times the
tied head) bit-equal to the autograd ``forward``'s logits, and the taped
training step's loss and gradients equal to autograd's.

Callers import the module (``from repro.nn.backend import numpy_backend as
K``) and look each kernel up on it at call time (``K.linear(...)``,
``K.VJPS["linear"]``), so a timer or a test can rebind a kernel in place.
"""
