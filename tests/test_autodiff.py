"""Tensor engine: forward kernels, gradients, tape semantics."""

import numpy as np
import pytest
from scipy.special import erf

from helpers import (
    DIFFERENTIABLE_PROBES,
    INPUT_PROBES,
    attention_reference,
    input_probe_aux,
    linear_gelu_reference,
    probe_aux,
    probe_input,
)
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

    def test_attention_with_equal_scores_averages_values(self):
        rng = np.random.default_rng(3)
        k, v = rng.normal(size=(2, 5, 6))
        out = apply("attention", (Tensor(np.zeros((5, 6))), Tensor(k), Tensor(v)), {"num_heads": 2})
        assert np.abs(out.data - v.mean(axis=0)).max() <= 1e-12

    def test_attention_weights_sum_to_one_and_are_shift_invariant(self):
        # Adding one vector to every key shifts each query's scores by a
        # constant, which the softmax cancels.
        rng = np.random.default_rng(3)
        q, k, v = rng.normal(size=(3, 5, 8)) * 3
        heads = {"num_heads": 4}
        ones = apply("attention", (Tensor(q), Tensor(k), Tensor(np.ones((5, 8)))), heads).data
        assert np.abs(ones - 1.0).max() <= 1e-12
        y = apply("attention", (Tensor(q), Tensor(k), Tensor(v)), heads).data
        shifted = apply("attention", (Tensor(q), Tensor(k + rng.normal(size=8)), Tensor(v)), heads)
        assert np.abs(y - shifted.data).max() <= 1e-12

    @pytest.mark.parametrize("num_heads", [1, 4])
    def test_attention_matches_unfused_graph_bitwise(self, num_heads):
        rng = np.random.default_rng(num_heads)
        q, k, v = rng.normal(size=(3, 7, 12))
        g = rng.normal(size=(7, 12))
        out, grads = attention_reference(q, k, v, num_heads, g)
        with Graph() as graph:
            qkv = [Tensor(a, requires_grad=True) for a in (q, k, v)]
            graph.watch_all(qkv)
            y = apply("attention", tuple(qkv), {"num_heads": num_heads})
            loss = (y * Tensor(g)).sum()
        got = backward(graph, loss)
        assert y.data.tobytes() == out.tobytes()
        for t, expected in zip(qkv, grads):
            assert got[t.node_id].data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("fused", [True, False], ids=["linear_gelu", "linear-then-gelu"])
    @pytest.mark.parametrize("shape", [(3, 4, 5), (3000, 5)], ids=["channel-last", "two-blocks"])
    def test_linear_gelu_matches_unfused_graph_bitwise(self, shape, fused):
        rng = np.random.default_rng(len(shape))
        x = rng.normal(size=shape) * 2
        w, b = rng.normal(size=(5, 7)), rng.normal(size=7)
        g = rng.normal(size=shape[:-1] + (7,))
        out, grads = linear_gelu_reference(x, w, b, g)
        with Graph() as graph:
            xwb = [Tensor(a, requires_grad=True) for a in (x, w, b)]
            graph.watch_all(xwb)
            if fused:
                y = apply("linear_gelu", tuple(xwb))
            else:
                y = apply("gelu", (apply("linear", tuple(xwb)),))
            loss = (y * Tensor(g)).sum()
        got = backward(graph, loss)
        assert y.data.tobytes() == out.tobytes()
        for t, expected in zip(xwb, grads):
            assert got[t.node_id].data.tobytes() == expected.tobytes()

    def test_scipy_erf_is_odd_bitwise(self):
        # linear_gelu takes erf of |x| and copies the sign back, which equals
        # erf(x) only because scipy evaluates erf(-x) as -erf(x).
        spread = np.array([0.1, 1.0, 4.0, 40.0]).repeat(25_000)
        x = np.random.default_rng(5).normal(size=spread.size) * spread
        x = np.concatenate([x, [0.0, 1.0, np.nextafter(1.0, 2.0), np.inf]])
        assert erf(-x).tobytes() == (-erf(x)).tobytes()

    def test_linear_gelu_hand_values(self):
        # gelu(1) = Phi(1); gelu(0) = 0; gelu(a) = a for large a, 0 for very negative a.
        y = apply("linear_gelu", (Tensor(np.eye(3)), Tensor(np.eye(3)), Tensor([0.0, 40.0, -40.0])))
        assert abs(y.data[0, 0] - 0.8413447460685429) <= 1e-15
        assert np.array_equal(y.data[1:, 0], [0.0, 0.0])
        assert np.array_equal(y.data[:, 1], [40.0, 41.0, 40.0])
        assert np.array_equal(y.data[:, 2], [-0.0, -0.0, -0.0])

    def test_fused_ops_reject_bad_shapes(self):
        x = Tensor(np.zeros((4, 6)))
        with pytest.raises(ShapeMismatchError, match="attention.*heads"):
            apply("attention", (x, x, x), {"num_heads": 4})
        with pytest.raises(ShapeMismatchError, match=r"attention.*\(4, 6\).*\(3, 6\)"):
            apply("attention", (x, Tensor(np.zeros((3, 6))), x), {"num_heads": 2})
        with pytest.raises(ShapeMismatchError, match="attention"):
            apply("attention", (Tensor(np.zeros((2, 4, 6))),) * 3, {"num_heads": 2})
        with pytest.raises(ShapeMismatchError, match=r"linear_gelu.*\(4, 6\).*\(5, 2\)"):
            apply("linear_gelu", (x, Tensor(np.zeros((5, 2))), Tensor(np.zeros(2))))
        with pytest.raises(ShapeMismatchError, match="linear_gelu.*bias"):
            apply("linear_gelu", (x, Tensor(np.zeros((6, 2))), Tensor(np.zeros(3))))

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
            h = apply("linear_gelu", (a * b + a, b.permute((1, 0)), Tensor(np.ones(3))))
            loss = (apply("attention", (a, b, h @ b), {"num_heads": 2}) - b).sum()
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
            h = apply("linear_gelu", (x, w, Tensor(x0[0])))
            h = apply("layernorm", (h,), {"eps": 1e-6})
            loss = (apply("attention", (h, x, h), {"num_heads": 4}) * Tensor(x0)).mean()
        grads = backward(g, loss)
        return loss.data.tobytes(), grads[x.node_id].data.tobytes(), grads[w.node_id].data.tobytes()

    def test_identical_graphs_bitwise_identical(self):
        assert self._run() == self._run()


def test_registry_covers_spec_kinds():
    # Every registered op has a gradient-check probe, and every probe an op.
    assert set(DIFFERENTIABLE_PROBES) == set(op_kinds())
