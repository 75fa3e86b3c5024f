"""Finite-difference gradient checks for every differentiable primitive.

Two layers are verified:

* **Tensor ops** — the autograd reference (`repro.nn.tensor.Tensor`): the
  arithmetic, activation, shape and indexing ops the reference forward uses.
  Tensors are float32, so the check uses central differences with a moderate
  step and float32-appropriate tolerances.
* **Fused backend VJPs** — the handwritten VJPs in
  ``repro.nn.backend.numpy_backend``.  These kernels are dtype-generic, so
  they are checked in float64 against tight tolerances, including broadcast
  and non-contiguous inputs.

``adamw_step`` is deliberately absent: it is an in-place optimizer update,
not a differentiable primitive, and has no VJP.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.backend import numpy_backend as backend
from repro.nn.tensor import Tensor

# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #


def gradcheck_tensor(fn, arrays, eps=1e-2, atol=5e-2, rtol=5e-2, seed=0):
    """Check ``fn``'s analytic grads against central differences.

    ``fn`` maps a tuple of Tensors to one output Tensor.  The output is
    reduced to a scalar with a fixed random weighting so every output element
    influences the loss; the analytic side seeds ``backward`` with those
    weights.  Inputs are float32 (the Tensor dtype), hence the loose-ish
    tolerances.
    """
    rng = np.random.default_rng(seed)
    tensors = [Tensor(a.astype(np.float32), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    weights = rng.standard_normal(out.shape).astype(np.float32)
    out.backward(weights)

    for position, base in enumerate(arrays):
        # C-order copy: reshape(-1) on a strided view would return a copy and
        # silently drop the writes below.
        base = np.array(base, dtype=np.float64, order="C")
        numeric = np.zeros_like(base)
        flat = base.reshape(-1)
        for index in range(flat.size):
            bumped = []
            for eval_sign in (+1.0, -1.0):
                shifted = flat.copy()
                shifted[index] += eval_sign * eps
                inputs = [
                    Tensor(
                        (shifted.reshape(base.shape) if k == position else np.asarray(arrays[k])).astype(
                            np.float32
                        )
                    )
                    for k in range(len(arrays))
                ]
                value = float((fn(*inputs).data * weights).sum())
                bumped.append(value)
            numeric.reshape(-1)[index] = (bumped[0] - bumped[1]) / (2.0 * eps)
        analytic = tensors[position].grad
        assert analytic is not None, f"input {position} received no gradient"
        np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


def gradcheck_backend(primitive, vjp_takes_needs, arrays, extra=(), eps=1e-6, atol=1e-5, seed=0):
    """Float64 finite-difference check of one fused backend kernel.

    ``arrays`` are the differentiable inputs (float64); ``extra`` the trailing
    non-differentiable arguments (scale, masks, ...).  The analytic gradients
    come straight from ``backend.VJPS[primitive]`` fed with the forward's
    residuals; numeric gradients from central differences of the weighted
    scalarized forward.
    """
    rng = np.random.default_rng(seed)
    forward = backend.PRIMITIVES[primitive]
    vjp = backend.VJPS[primitive]

    out, residuals = forward(*arrays, *extra)
    weights = rng.standard_normal(out.shape) if out.shape else np.asarray(1.0)

    if vjp_takes_needs:
        grads = vjp(residuals, weights.copy(), tuple(True for _ in arrays))
    else:
        grads = (vjp(residuals, weights.copy()),)

    def loss_at(position, flat_index, delta):
        # order="C" so the flat write below lands in the probed array even
        # when the original input is a strided (non-contiguous) view.
        probe = [np.array(a, dtype=np.float64, order="C") for a in arrays]
        probe[position].reshape(-1)[flat_index] += delta
        value, _ = forward(*probe, *extra)
        return float((value * weights).sum())

    for position, base in enumerate(arrays):
        analytic = grads[position]
        assert analytic is not None, f"{primitive}: input {position} got no gradient"
        assert analytic.shape == base.shape
        analytic = np.array(analytic, dtype=np.float64, order="C")
        numeric = np.zeros(base.shape, dtype=np.float64)
        for index in range(base.size):
            plus = loss_at(position, index, +eps)
            minus = loss_at(position, index, -eps)
            numeric.reshape(-1)[index] = (plus - minus) / (2.0 * eps)
        np.testing.assert_allclose(
            analytic, numeric, atol=atol, rtol=1e-4, err_msg=f"{primitive} input {position}"
        )


def _randn(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


# --------------------------------------------------------------------------- #
# Tensor ops
# --------------------------------------------------------------------------- #


class TestTensorArithmeticGrads:
    def test_add(self):
        gradcheck_tensor(lambda a, b: a + b, [_randn(3, 4), _randn(3, 4, seed=1)])

    def test_add_broadcast(self):
        gradcheck_tensor(lambda a, b: a + b, [_randn(3, 1), _randn(1, 4, seed=1)])

    def test_mul(self):
        gradcheck_tensor(lambda a, b: a * b, [_randn(3, 4), _randn(3, 4, seed=1)])

    def test_mul_broadcast(self):
        gradcheck_tensor(lambda a, b: a * b, [_randn(2, 3, 4), _randn(4, seed=1)])

    def test_matmul_2d(self):
        gradcheck_tensor(lambda a, b: a.matmul(b), [_randn(3, 4), _randn(4, 2, seed=1)])

    def test_matmul_batched(self):
        gradcheck_tensor(
            lambda a, b: a.matmul(b), [_randn(2, 3, 4), _randn(2, 4, 2, seed=1)]
        )

    def test_matmul_broadcast_3d_by_2d(self):
        gradcheck_tensor(lambda a, b: a.matmul(b), [_randn(2, 3, 4), _randn(4, 5, seed=1)])


class TestTensorActivationGrads:
    def test_gelu(self):
        gradcheck_tensor(lambda a: a.gelu(), [_randn(3, 4)])


class TestTensorReductionShapeGrads:
    def test_reshape(self):
        gradcheck_tensor(lambda a: a.reshape(4, 3), [_randn(3, 4)])

    def test_transpose(self):
        gradcheck_tensor(lambda a: a.transpose(1, 0), [_randn(3, 4)])

    def test_take_rows(self):
        indices = np.array([[0, 2], [2, 1]])
        gradcheck_tensor(lambda a: a.take_rows(indices), [_randn(4, 5)])

    def test_masked_fill(self):
        mask = np.eye(3, dtype=bool)
        gradcheck_tensor(lambda a: a.masked_fill(mask, -2.0), [_randn(3, 3)])

    def test_noncontiguous_input(self):
        # Tensor wraps a strided view without copying; grads must still match.
        base = np.asarray(_randn(4, 6), dtype=np.float32).T  # non-contiguous
        assert not base.flags["C_CONTIGUOUS"]
        gradcheck_tensor(lambda a: a.gelu(), [np.asarray(base, dtype=np.float64)])


# --------------------------------------------------------------------------- #
# fused backend VJPs (float64, tight tolerances)
# --------------------------------------------------------------------------- #


class TestFusedMatmulLinearGrads:
    def test_matmul_2d(self):
        gradcheck_backend("matmul", True, [_randn(3, 4), _randn(4, 2, seed=1)])

    def test_matmul_batched_broadcast(self):
        # (2, 3, 4) @ (4, 5): grad for the 2-D operand sums over the batch.
        gradcheck_backend("matmul", True, [_randn(2, 3, 4), _randn(4, 5, seed=1)])

    def test_linear_with_bias(self):
        gradcheck_backend(
            "linear", True, [_randn(3, 4), _randn(5, 4, seed=1), _randn(5, seed=2)]
        )

    def test_linear_3d_input(self):
        gradcheck_backend(
            "linear", True, [_randn(2, 3, 4), _randn(5, 4, seed=1), _randn(5, seed=2)]
        )

    def test_linear_noncontiguous_input(self):
        x = _randn(4, 3).T  # strided view
        assert not x.flags["C_CONTIGUOUS"]
        gradcheck_backend("linear", True, [x, _randn(5, 4, seed=1), _randn(5, seed=2)])

    def test_lora_matmul(self):
        gradcheck_backend(
            "lora_matmul",
            True,
            [_randn(2, 3, 6), _randn(2, 6, seed=1), _randn(5, 2, seed=2)],
            extra=(1.7, None),
        )

    def test_lora_matmul_with_dropout_mask(self):
        mask = (np.random.default_rng(3).random((2, 3, 6)) < 0.8) / 0.8
        gradcheck_backend(
            "lora_matmul",
            True,
            [_randn(2, 3, 6), _randn(2, 6, seed=1), _randn(5, 2, seed=2)],
            extra=(1.7, mask),
        )


class TestFusedNormalizationGrads:
    def test_layernorm(self):
        gradcheck_backend(
            "layernorm",
            True,
            [_randn(3, 6), np.abs(_randn(6, seed=1)) + 0.5, _randn(6, seed=2)],
        )

    def test_layernorm_3d_noncontiguous(self):
        x = np.swapaxes(_randn(6, 2, 3), 0, 2)  # (3, 2, 6) strided view
        assert not x.flags["C_CONTIGUOUS"]
        gradcheck_backend(
            "layernorm",
            True,
            [x, np.abs(_randn(6, seed=1)) + 0.5, _randn(6, seed=2)],
        )

    def test_gelu(self):
        gradcheck_backend("gelu", False, [_randn(3, 4)])


class TestFusedAttentionGrads:
    def test_sdpa_unmasked(self):
        q, k, v = _randn(2, 2, 3, 4), _randn(2, 2, 3, 4, seed=1), _randn(2, 2, 3, 4, seed=2)
        gradcheck_backend(
            "scaled_dot_product_attention", True, [q, k, v], extra=(0.5, None)
        )

    def test_sdpa_causal_mask(self):
        q, k, v = _randn(1, 2, 4, 3), _randn(1, 2, 4, 3, seed=1), _randn(1, 2, 4, 3, seed=2)
        # The kernel requires a full score-shaped boolean mask (boolean-index
        # assignment does not broadcast); the attention layer materializes it.
        mask = np.broadcast_to(
            np.triu(np.ones((4, 4), dtype=bool), k=1), (1, 2, 4, 4)
        ).copy()
        gradcheck_backend(
            "scaled_dot_product_attention", True, [q, k, v], extra=(0.7, mask)
        )


class TestFusedCrossEntropyGrads:
    def test_plain(self):
        targets = np.array([[1, 0, 3], [2, 2, 1]])
        gradcheck_backend("cross_entropy", False, [_randn(2, 3, 4)], extra=(targets, None))

    def test_ignore_index(self):
        targets = np.array([[1, -100, 3], [-100, 2, 1]])
        gradcheck_backend("cross_entropy", False, [_randn(2, 3, 4)], extra=(targets, -100))


# --------------------------------------------------------------------------- #
# functional wrappers route grads through the fused VJPs
# --------------------------------------------------------------------------- #


class TestFunctionalWrapperGrads:
    """End-to-end: Tensor-level wrappers must agree with finite differences."""

    def test_linear_wrapper(self):
        gradcheck_tensor(
            lambda x, w, b: F.linear(x, w, b),
            [_randn(3, 4), _randn(5, 4, seed=1) * 0.3, _randn(5, seed=2)],
        )

    def test_layer_norm_wrapper(self):
        gradcheck_tensor(
            lambda x, w, b: F.layer_norm(x, w, b),
            [_randn(3, 6), np.abs(_randn(6, seed=1)) + 0.5, _randn(6, seed=2)],
        )

    def test_sdpa_wrapper(self):
        gradcheck_tensor(
            lambda q, k, v: F.scaled_dot_product_attention(q, k, v, 0.5),
            [_randn(1, 2, 3, 4) * 0.5, _randn(1, 2, 3, 4, seed=1) * 0.5, _randn(1, 2, 3, 4, seed=2)],
        )

    def test_cross_entropy_wrapper(self):
        targets = np.array([[0, 2], [1, 3]])
        gradcheck_tensor(
            lambda x: F.cross_entropy(x, targets), [_randn(2, 2, 4)], atol=2e-2
        )

    def test_every_fused_primitive_has_a_vjp_or_is_optimizer(self):
        differentiable = set(backend.VJPS)
        primitives = set(backend.PRIMITIVES)
        assert differentiable <= primitives
        # adamw_step is the only primitive without a VJP (in-place update).
        assert primitives - differentiable == {"adamw_step"}


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
