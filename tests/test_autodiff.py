"""Tensor engine: forward kernels, gradients, tape semantics."""

import numpy as np
import pytest

from vmim.autodiff import (
    Graph,
    GraphError,
    ShapeMismatchError,
    Tensor,
    UnknownOpError,
    apply,
    backward,
    finite_diff_check,
    op_kinds,
)


def grad_of(f, x):
    """Analytic gradient of a scalar-valued tensor function at x."""
    with Graph() as g:
        xt = Tensor(x, requires_grad=True)
        g.watch(xt)
        y = f(xt)
    return backward(g, y)[xt.node_id].data


class TestForward:
    def test_matmul_hand_case(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal((a @ b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_matmul_identity(self):
        a = np.arange(9.0).reshape(3, 3)
        out = (Tensor(np.eye(3)) @ Tensor(a)).data
        assert np.array_equal(out, a)

    def test_softmax_symmetry(self):
        out = apply("softmax", (Tensor([1.0, 1.0, 1.0, 1.0]),), {"axis": -1})
        assert np.array_equal(out.data, [0.25, 0.25, 0.25, 0.25])

    def test_softmax_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 7)) * 10
        y = apply("softmax", (Tensor(x),), {"axis": -1}).data
        assert np.abs(y.sum(axis=-1) - 1.0).max() <= 1e-12
        shifted = apply("softmax", (Tensor(x + 123.456),), {"axis": -1}).data
        assert np.abs(y - shifted).max() <= 1e-12

    def test_reshape_round_trip_is_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        back = x.reshape((4, 6)).reshape((2, 3, 4))
        assert np.array_equal(back.data, x.data)

    def test_operands_never_mutated(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        before = (a.data.tobytes(), b.data.tobytes())
        with Graph() as g:
            g.watch(a)
            g.watch(b)
            loss = (apply("gelu", (a * b + a,)) - b).sum()
        backward(g, loss)
        assert (a.data.tobytes(), b.data.tobytes()) == before

    def test_tensor_data_is_read_only(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_unknown_kind(self):
        with pytest.raises(UnknownOpError, match="frobnicate"):
            apply("frobnicate", (Tensor([1.0]),))

    def test_shape_mismatch_names_op_and_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            apply("matmul", (Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))))
        with pytest.raises(ShapeMismatchError, match="add"):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((4,)))

    def test_gather_scatter_round_trip(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(7, 3))
        idx = np.array([4, 0, 6])
        rows = apply("gather_rows", (Tensor(x),), {"indices": idx})
        placed = apply("scatter_rows", (rows,), {"indices": idx, "total": 7}).data
        assert np.array_equal(placed[idx], x[idx])
        untouched = np.setdiff1d(np.arange(7), idx)
        assert np.array_equal(placed[untouched], np.zeros((4, 3)))


class TestBackward:
    def test_sum_gives_ones(self):
        g = grad_of(lambda x: x.sum(), np.random.default_rng(0).normal(size=(3, 5)))
        assert np.array_equal(g, np.ones((3, 5)))

    def test_square_sum_hand_case(self):
        g = grad_of(lambda x: (x * x).sum(), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(g, [2.0, 4.0, 6.0])

    def test_unused_leaf_gets_zeros(self):
        with Graph() as g:
            x = Tensor([1.0, 2.0], requires_grad=True)
            w = Tensor(np.ones((2, 2)), requires_grad=True)
            g.watch(x)
            g.watch(w)
            loss = x.sum()
        grads = backward(g, loss)
        assert np.array_equal(grads[w.node_id].data, np.zeros((2, 2)))
        assert np.array_equal(grads[x.node_id].data, [1.0, 1.0])

    def test_non_scalar_loss_rejected(self):
        with Graph() as g:
            x = Tensor([1.0, 2.0], requires_grad=True)
            g.watch(x)
            y = x * x
        with pytest.raises(GraphError, match="scalar"):
            backward(g, y)

    def test_foreign_loss_rejected(self):
        with Graph() as g:
            x = Tensor([1.0], requires_grad=True)
            g.watch(x)
            _ = x.sum()
        with Graph() as other:
            z = Tensor([1.0], requires_grad=True)
            other.watch(z)
            loss = z.sum()
        with pytest.raises(GraphError, match="belong"):
            backward(g, loss)
        backward(other, loss)

    def test_graph_cannot_be_reused(self):
        with Graph() as g:
            x = Tensor([1.0], requires_grad=True)
            g.watch(x)
            loss = x.sum()
        backward(g, loss)
        with pytest.raises(GraphError, match="consumed"):
            backward(g, loss)

    def test_gradient_against_independent_numeric_oracle(self):
        # Independent of finite_diff_check: plain one-sided loop here.
        rng = np.random.default_rng(11)
        x = rng.uniform(0.5, 1.5, size=(3, 3))
        w = rng.normal(size=(3, 3))

        def f(arr):
            shifted = arr - arr.max(axis=-1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            return float(np.sum(log_probs * w + arr @ arr))

        analytic = grad_of(
            lambda t: (apply("log_softmax", (t,)) * Tensor(w) + t @ t).sum(), x
        )
        h = 1e-7
        for i in range(3):
            for j in range(3):
                bumped = x.copy()
                bumped[i, j] += h
                numeric = (f(bumped) - f(x)) / h
                assert abs(numeric - analytic[i, j]) < 1e-5


from helpers import DIFFERENTIABLE_PROBES, INPUT_PROBES, input_probe_aux, probe_aux, probe_input


class TestFiniteDifference:
    @pytest.mark.parametrize("kind", sorted(DIFFERENTIABLE_PROBES))
    def test_each_op_passes_gradient_check(self, kind):
        probe = DIFFERENTIABLE_PROBES[kind]
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            aux = probe_aux(rng)
            x = probe_input(kind, rng)
            worst = max(worst, finite_diff_check(lambda t: probe(t, aux), x, h=1e-5))
        assert worst < 1e-4, f"{kind}: max relative error {worst}"

    @pytest.mark.parametrize("kind", sorted(INPUT_PROBES))
    def test_channel_last_input_passes_gradient_check(self, kind):
        probe, shape = INPUT_PROBES[kind]
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            aux = input_probe_aux(rng)
            x = rng.normal(size=shape)
            worst = max(worst, finite_diff_check(lambda t: probe(t, aux), x, h=1e-5))
        assert worst < 1e-4, f"{kind}: max relative error {worst}"

    def test_linear_function_is_nearly_exact(self):
        x = np.random.default_rng(2).normal(size=(3, 3))
        assert finite_diff_check(lambda t: t.sum(), x, h=1e-5) < 1e-9

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            finite_diff_check(lambda t: t.sum(), np.ones(3), h=0.5)


class TestDeterminism:
    def _run(self):
        rng = np.random.default_rng(42)
        x0 = rng.normal(size=(6, 8))
        w0 = rng.normal(size=(8, 8))
        with Graph() as g:
            x = Tensor(x0, requires_grad=True)
            w = Tensor(w0, requires_grad=True)
            g.watch(x)
            g.watch(w)
            h = apply("gelu", (x @ w,))
            h = apply("layernorm", (h,), {"eps": 1e-6})
            loss = (apply("softmax", (h,), {"axis": -1}) * Tensor(x0)).mean()
        grads = backward(g, loss)
        return loss.data.tobytes(), grads[x.node_id].data.tobytes(), grads[w.node_id].data.tobytes()

    def test_identical_graphs_bitwise_identical(self):
        assert self._run() == self._run()


def test_registry_covers_spec_kinds():
    # Every registered op has a gradient-check probe, and every probe an op.
    assert set(DIFFERENTIABLE_PROBES) == set(op_kinds())
