"""Unit tests for the reverse-mode autograd engine (repro.nn.tensor)."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor


def numerical_gradient(func, array, eps=1e-3):
    """Central-difference numerical gradient of a scalar-valued function."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        upper = func(array)
        flat[index] = original - eps
        lower = func(array)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * eps)
    return grad


def backward_ones(out):
    """Back-propagate the gradient of ``out``'s sum (all-ones seed)."""
    out.backward(np.ones(out.shape))


class TestBasicOps:
    def test_addition_values_and_grads(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0, 6.0], requires_grad=True)
        backward_ones(a + b)
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.ones(3))

    def test_scalar_addition(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        backward_ones(a + 5.0)
        np.testing.assert_allclose(a.grad, np.ones(2))

    def test_multiplication_grads(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        backward_ones(a * b)
        np.testing.assert_allclose(a.grad, [5.0, 7.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])


class TestBroadcasting:
    def test_broadcast_add_reduces_grad(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4,)), requires_grad=True)
        backward_ones(a + b)
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3 * np.ones(4))

    def test_broadcast_mul_keepdims_axis(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.full((2, 1), 2.0), requires_grad=True)
        backward_ones(a * b)
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 1), 3.0))


class TestMatmul:
    def test_matmul_forward(self):
        a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        b = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4))
        out = a.matmul(b)
        np.testing.assert_allclose(out.data, a.data @ b.data)

    def test_matmul_gradients_match_numerical(self, rng):
        a_data = rng.standard_normal((2, 3)).astype(np.float64)
        b_data = rng.standard_normal((3, 2)).astype(np.float64)

        def loss_a(arr):
            return float((arr @ b_data).sum())

        def loss_b(arr):
            return float((a_data @ arr).sum())

        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        backward_ones(a.matmul(b))
        np.testing.assert_allclose(a.grad, numerical_gradient(loss_a, a_data.copy()), atol=1e-3)
        np.testing.assert_allclose(b.grad, numerical_gradient(loss_b, b_data.copy()), atol=1e-3)

    def test_batched_matmul_grad_shapes(self, rng):
        a = Tensor(rng.standard_normal((4, 2, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 3, 5)).astype(np.float32), requires_grad=True)
        backward_ones(a.matmul(b))
        assert a.grad.shape == (4, 2, 3)
        assert b.grad.shape == (4, 3, 5)

    def test_broadcast_matmul_against_2d(self, rng):
        a = Tensor(rng.standard_normal((4, 2, 3)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 5)).astype(np.float32), requires_grad=True)
        backward_ones(a.matmul(w))
        assert w.grad.shape == (3, 5)


class TestElementwise:
    @pytest.mark.parametrize("op", ["gelu"])
    def test_unary_grad_matches_numerical(self, op, rng):
        data = rng.uniform(0.2, 2.0, size=(3, 3))

        def scalar_loss(arr):
            tensor = Tensor(arr.astype(np.float64))
            return float(getattr(tensor, op)().data.sum())

        tensor = Tensor(data, requires_grad=True)
        backward_ones(getattr(tensor, op)())
        numerical = numerical_gradient(scalar_loss, data.copy())
        np.testing.assert_allclose(tensor.grad, numerical, atol=5e-2, rtol=5e-2)


class TestReductionsAndShape:
    def test_reshape_roundtrip_grad(self):
        a = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
        backward_ones(a.reshape(2, 3))
        np.testing.assert_allclose(a.grad, np.ones(6))

    def test_transpose_grad(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        backward_ones(a.transpose(1, 0))
        assert a.grad.shape == (2, 3)

    def test_take_rows_accumulates_repeated_indices(self):
        table = Tensor(np.ones((4, 2)), requires_grad=True)
        indices = np.array([0, 0, 2])
        backward_ones(table.take_rows(indices))
        np.testing.assert_allclose(table.grad[:, 0], [2.0, 0.0, 1.0, 0.0])

    def test_masked_fill_blocks_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        mask = np.array([[True, False], [False, False]])
        backward_ones(a.masked_fill(mask, -1e9))
        np.testing.assert_allclose(a.grad, [[0.0, 1.0], [1.0, 1.0]])


class TestGraphMechanics:
    def test_grad_accumulates_over_multiple_uses(self):
        a = Tensor([2.0], requires_grad=True)
        out = a * 3.0 + a * 4.0
        backward_ones(out)
        np.testing.assert_allclose(a.grad, [7.0])

    def test_backward_requires_grad(self):
        a = Tensor([1.0])
        with pytest.raises(RuntimeError):
            a.backward()

    def test_backward_shape_mismatch_raises(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            a.backward(np.ones(3))

    def test_second_backward_raises_freed_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        loss = a * a
        backward_ones(loss)
        with pytest.raises(RuntimeError, match="retain_graph"):
            backward_ones(loss)

    def test_backward_frees_graph_links(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = a * 3.0
        backward_ones(out)
        # Graph nodes drop their parent links so activations are freed.
        assert out._parents == ()

    def test_retain_graph_allows_second_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        loss = a * a
        loss.backward(np.ones(2), retain_graph=True)
        first = a.grad.copy()
        backward_ones(loss)
        np.testing.assert_allclose(a.grad, 2.0 * first)

    def test_backward_on_leaf_still_works_repeatedly(self):
        # Leaves have no closure to consume; calling backward on a parameter
        # directly (grad seeding) must not raise.
        a = Tensor([3.0], requires_grad=True)
        a.backward(np.array([1.0]))
        a.backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [2.0])

    def test_deep_graph_no_recursion_limit(self):
        # The topo sort is iterative; a graph deeper than the Python
        # recursion limit must still backpropagate.
        a = Tensor([1.0], requires_grad=True)
        out = a
        for _ in range(2000):
            out = out + 0.001
        backward_ones(out)
        np.testing.assert_allclose(a.grad, [1.0])

    def test_backward_leaves_no_reference_cycles(self):
        # A freed graph must be reclaimed by reference counting alone; cyclic
        # garbage from every training step previously piled up until gen-2
        # collections, visibly stalling training loops.
        import gc

        a = Tensor(np.ones((8, 8)), requires_grad=True)
        gc.disable()
        try:
            gc.collect()
            loss = (a * 2.0).gelu() * a
            backward_ones(loss)
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()
