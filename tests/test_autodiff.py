"""Tensor engine: forward kernels, gradients, tape semantics."""

import re
import warnings

import numpy as np
import pytest
from scipy.special import erf, erfc

import helpers
from helpers import (
    DIFFERENTIABLE_PROBES,
    INPUT_PROBES,
    _attention_shapes,
    attention_reference,
    finite_diff_check,
    input_probe_aux,
    layernorm_reference,
    linear_gelu_reference,
    mean_all,
    mlp_reference,
    probe_aux,
    probe_input,
    probe_op,
    traced_peak,
    weighted_total,
)
from vmim import autodiff
from vmim.autodiff import (
    _BLOCK,
    Graph,
    GraphError,
    ShapeMismatchError,
    Tensor,
    UnknownOpError,
    apply,
    backward,
)
from vmim.losses import dice_ce_loss
from vmim.models import SegConfig, ViTConfig, init_seg_params, unetr_segment
from vmim.volume import Volume


def _attention_case(n, num_heads, dim=64):
    """Seeded rows, the norm's affine (about 1 and 0), the q/k/v projection
    parameters and an upstream gradient for an attention over n rows of
    width dim."""
    rng = np.random.default_rng(n * 10 + num_heads)
    x = rng.normal(size=(n, dim))
    ln_g, ln_b, *proj = _attention_shapes(dim).values()
    norm = (1.0 + 0.1 * rng.normal(size=ln_g), 0.1 * rng.normal(size=ln_b))
    params = tuple(rng.normal(size=s) * (dim**-0.5 if len(s) == 2 else 1.0) for s in proj)
    return x, norm + params, rng.normal(size=(n, dim))


def _attention_through_tape(x, params, g, num_heads):
    """The output of a recorded ``attention`` and the gradients of sum(y * g)
    with respect to its eight operands."""
    with Graph() as graph:
        operands = [Tensor(a, requires_grad=True) for a in (x, *params)]
        graph.watch_all(operands)
        y = apply("attention", tuple(operands), {"num_heads": num_heads})
        loss = weighted_total(y, g)
    got = backward(graph, loss)
    return y.data, [got[t.node_id].data for t in operands]


def _rel_err(got, want):
    """Largest absolute difference relative to want's largest entry."""
    return np.abs(got - want).max() / np.abs(want).max()


def _gelu_rows(a):
    """The gelu op on the values of a 1-D array, as rows of width 1 times a
    weight of 1 plus a bias of 0: (its pre-activation, its output). The
    pre-activation is a, except that -0.0 becomes 0.0."""
    operands = (Tensor(a.reshape(-1, 1)), Tensor(np.ones((1, 1))), Tensor(np.zeros(1)))
    pre = apply("linear", operands).data[:, 0]
    assert np.array_equal(pre, a, equal_nan=True)
    return pre, apply("gelu", operands).data[:, 0]


def grad_of(f, x):
    """Analytic gradient of a scalar-valued tensor function at x."""
    with Graph() as g:
        xt = Tensor(x, requires_grad=True)
        g.watch(xt)
        y = f(xt)
    return backward(g, y)[xt.node_id].data


def _wrong_counts(counts):
    """Every operand count from none to one past the most a kind takes, or
    to its least for a kind with no limit, that the kind does not take."""
    top = counts.start if isinstance(counts, range) else max(counts)
    return [n for n in range(top + 2) if n not in counts]


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
        # Zero query projections give every score 0; an identity norm affine
        # and identity value weights make the values the layer-normed rows.
        rng = np.random.default_rng(3)
        x, wk = rng.normal(size=(5, 6)), rng.normal(size=(6, 6))
        norm = (np.ones(6), np.zeros(6))
        params = (*norm, np.zeros((6, 6)), np.zeros(6), wk, np.eye(6), np.zeros(6))
        out = apply("attention", tuple(Tensor(a) for a in (x, *params)), {"num_heads": 2})
        normed, _ = layernorm_reference(x, *norm)
        assert np.abs(out.data - normed.mean(axis=0)).max() <= 1e-12

    def test_attention_weights_sum_to_one_and_are_shift_invariant(self):
        # Values that are all 1 come out as 1. A key bias shifts each query's
        # scores by a constant, which the softmax cancels, so the op, which
        # has none, matches the unfused graph with a nonzero one.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 8))
        wq, wk, wv = rng.normal(size=(3, 8, 8))
        bq, bk, bv, ln_g, ln_b = rng.normal(size=(5, 8))

        def attend(*params):
            operands = tuple(Tensor(a) for a in (x, *params))
            return apply("attention", operands, {"num_heads": 4}).data

        ones = attend(ln_g, ln_b, wq, bq, wk, np.zeros((8, 8)), np.ones(8))
        assert np.abs(ones - 1.0).max() <= 1e-12
        params = (ln_g, ln_b, wq, bq, wk, wv, bv)
        out, _ = attention_reference(x, params, 4, np.zeros((5, 8)), bk=bk * 3)
        assert _rel_err(attend(*params), out) <= 1e-14

    @pytest.mark.parametrize("num_heads", [1, 4])
    def test_attention_matches_reference_within_tolerance(self, num_heads):
        # Through the tape, at 7 rows, the MAE encoder's 54 visible tokens,
        # 70 (4 heads run in groups of 3 and 1) and the full 216. The kernel
        # computes the softmax in another order than the unfused graph, so
        # the output, the leaf gradients and their column sums are compared
        # relative to each array's largest entry: 1.6e-15 and 6.9e-15 were
        # measured. The norm's g gradient is itself a column sum whose total
        # cancels (5.7 against entries up to 14.6 at 216 rows, 4 heads), so
        # its total is compared relative to the sum of its entries' sizes
        # (7.2e-16 measured).
        for n in (7, 54, 70, 216):
            x, params, g = _attention_case(n, num_heads)
            out, grads = attention_reference(x, params, num_heads, g)
            y, got = _attention_through_tape(x, params, g, num_heads)
            assert _rel_err(y, out) <= 1e-14, n
            for name, a, want in zip(helpers._ATTENTION_OPERANDS, got, grads):
                assert _rel_err(a, want) <= 1e-14, (n, name)
                total, want_total = a.sum(axis=0), want.sum(axis=0)
                if name == "g":
                    assert abs(total - want_total) <= 1e-14 * np.abs(want).sum(), n
                else:
                    assert _rel_err(total, want_total) <= 1e-14, (n, name)

    @pytest.mark.parametrize("n", [54, 216])
    def test_attention_with_scores_beyond_exp_range(self, n):
        # q and k scaled so that the scores reach about +-1.2e3, where exp
        # overflows. Each row's log-sum-exp L = m + log l is at least its
        # largest score m, as l >= 1, so the forward's S - m and the VJP's
        # S - L are <= 0 up to the rounding of the VJP's score GEMM. Rounding
        # a score of that size moves it by up to 2e-13 in either kernel, so
        # the gradients get a bound of 1e-13 (2.2e-14 measured); the outputs
        # keep 1e-14 (2e-16 measured). With fewer keys than these sizes
        # (7 rows, one head) the rows are one-hot, and the q and k gradients
        # are rounding noise in both kernels, so they are left out.
        x, params, g = _attention_case(n, 4)
        params = tuple(p * 12.5 if 2 <= i < 5 else p for i, p in enumerate(params))
        y, _ = autodiff._fwd_layernorm([x, *params[:2]], {})
        q, k, _ = autodiff._attention_heads(y, *params[2:], 4, spare=0)
        scores = np.matmul(q, k)
        assert 1e3 <= np.abs(scores).max() <= 2e3
        _, ctx = autodiff._REGISTRY["attention"].forward([x, *params], {"num_heads": 4})
        lse = ctx[-2]
        assert lse.shape == (4, n, 1) and (lse >= scores.max(axis=-1, keepdims=True)).all()
        out, grads = attention_reference(x, params, 4, g)
        y, got = _attention_through_tape(x, params, g, 4)
        assert np.isfinite(y).all() and all(np.isfinite(a).all() for a in got)
        assert _rel_err(y, out) <= 1e-14
        for name, a, want in zip(helpers._ATTENTION_OPERANDS, got, grads):
            assert _rel_err(a, want) <= 1e-13, name

    def test_recorded_attention_keeps_less_than_its_probabilities(self):
        # The full sequence of the default encoder: 216 tokens, 4 heads. The
        # VJP recomputes the (4, 216, 216) probabilities from per-row
        # statistics, so the node must hold less than that one array.
        x, params, _ = _attention_case(216, 4)
        operands = [Tensor(a, requires_grad=True) for a in (x, *params)]
        with Graph() as graph:
            graph.watch_all(operands)
            apply("attention", tuple(operands), {"num_heads": 4})
        probabilities = np.empty((4, 216, 216)).nbytes
        assert helpers.retained_bytes(graph) < probabilities

    @pytest.mark.parametrize("shape", [(3, 4, 5), (3000, 5)], ids=["channel-last", "two-blocks"])
    def test_linear_gelu_matches_unfused_graph_bitwise(self, shape):
        rng = np.random.default_rng(len(shape))
        x = rng.normal(size=shape) * 2
        w, b = rng.normal(size=(5, 7)), rng.normal(size=7)
        g = rng.normal(size=shape[:-1] + (7,))
        out, grads = linear_gelu_reference(x, w, b, g)
        with Graph() as graph:
            xwb = [Tensor(a, requires_grad=True) for a in (x, w, b)]
            graph.watch_all(xwb)
            y = apply("gelu", tuple(xwb))
            loss = weighted_total(y, g)
        got = backward(graph, loss)
        assert y.data.tobytes() == out.tobytes()
        for t, expected in zip(xwb, grads):
            assert got[t.node_id].data.tobytes() == expected.tobytes()

    def test_gelu_of_negative_x_takes_the_abs_x_path_bitwise(self):
        # Phi(-x) comes from |x|: beyond sqrt 2 the erfc form gives
        # Phi(-|x|), and Phi(|x|) is 1 minus those bits; within, the odd form
        # x N(x^2) / D(x^2) changes only its sign before 1/2 is added, so the
        # two sides sum to 1 up to that one rounding.
        spread = np.array([0.1, 1.0, 4.0, 40.0]).repeat(25_000)
        x = np.abs(np.random.default_rng(5).normal(size=spread.size) * spread)
        root2 = np.sqrt(2.0)
        x = np.concatenate([x, [0.0, 1.0, root2, np.nextafter(root2, 2.0), 1e300, np.inf]])
        (pre_pos, pos), (pre_neg, neg) = _gelu_rows(x), _gelu_rows(-x)
        cdf_pos, cdf_neg = helpers.normal_cdf(x), helpers.normal_cdf(-x)
        with np.errstate(over="ignore", invalid="ignore"):
            assert pos.tobytes() == (pre_pos * helpers.normal_cdf(pre_pos)).tobytes()
            assert neg.tobytes() == (pre_neg * helpers.normal_cdf(pre_neg)).tobytes()
            tail = x * x > 2.0
        assert tail.any() and (~tail).any()
        assert cdf_pos[tail].tobytes() == (1.0 - cdf_neg[tail]).tobytes()
        assert np.abs((cdf_pos[~tail] - 0.5) + (cdf_neg[~tail] - 0.5)).max() <= 2.0**-53

    def test_normal_cdf_matches_scipy(self):
        # Phi(a) = erfc(-a / sqrt 2) / 2 from scipy, whose erf the GELU kernel
        # used before. Within 5e-16 everywhere; relative to scipy in the lower
        # tail down to -8 sqrt 2, the end of the erfc form's range, where an
        # ulp of a moves exp(-a^2 / 2) by about a^2 ulps. Below, Phi < 1e-29.
        root2 = np.sqrt(2.0)
        branch = [root2, np.nextafter(root2, 0.0), np.nextafter(root2, 2.0)]
        u = np.concatenate([
            np.linspace(0.0, 6.0, 600_001),
            np.abs(np.random.default_rng(8).normal(size=200_000)) * 2.0,
            [1e-300, 1.0, np.nextafter(1.0, 2.0), 5.9, 6.0],
        ])
        a = np.concatenate([u * root2, branch])
        a = np.concatenate([a, -a])
        cdf, expected = helpers.normal_cdf(a), 0.5 * erfc(-a / root2)
        assert np.abs(cdf - expected).max() <= 5e-16
        lower = (a < -root2) & (a >= -8.0 * root2)
        rel = np.abs(cdf - expected)[lower] / expected[lower]
        assert (rel <= 5e-16 * (1.0 + a[lower] ** 2)).all()
        deep = cdf[a < -8.0 * root2]
        assert deep.size and (deep >= 0.0).all() and (deep <= 1e-29).all()
        # For a >= sqrt 2, erf(a / sqrt 2) = 2 Phi(a) - 1 exactly: within
        # 2e-15 of scipy's erf on [1, 6] and exactly 1.0 from 6 on.
        upper = a >= root2
        implied = 2.0 * cdf[upper] - 1.0
        reference = erf(a[upper] / root2)
        assert (np.abs(implied - reference) <= 2e-15 * reference).all()
        assert (implied[a[upper] >= 6.0 * root2] == 1.0).all()

    def test_normal_cdf_special_values(self):
        root2 = np.sqrt(2.0)
        a = np.array([0.0, -0.0, 1e-300, -1e-300, 6.0 * root2, 8.0 * root2, 27.0 * root2,
                      1e300, np.inf, -8.0 * root2, -27.0 * root2, -1e300, -np.inf, np.nan])
        cdf = helpers.normal_cdf(a)
        assert np.array_equal(cdf[:4], [0.5] * 4)
        assert np.array_equal(cdf[4:9], [1.0] * 5)
        assert 0.0 < cdf[9] <= 1e-29
        assert np.array_equal(cdf[10:13], [0.0] * 3)
        assert np.isnan(cdf[13])
        # gelu(inf) = inf and gelu(-inf) = -inf * 0, as with scipy's erf.
        _, y = _gelu_rows(np.array([np.inf, -np.inf, np.nan]))
        assert y[0] == np.inf and np.isnan(y[1]) and np.isnan(y[2])

    def test_linear_gelu_hand_values(self):
        # gelu(1) = Phi(1); gelu(0) = 0; gelu(a) = a for large a, 0 for very negative a.
        xwb = (Tensor(np.eye(3)), Tensor(np.eye(3)), Tensor([0.0, 40.0, -40.0]))
        y = apply("gelu", xwb)
        assert abs(y.data[0, 0] - 0.8413447460685429) <= 1e-15
        assert np.array_equal(y.data[1:, 0], [0.0, 0.0])
        assert np.array_equal(y.data[:, 1], [40.0, 41.0, 40.0])
        assert np.array_equal(y.data[:, 2], [-0.0, -0.0, -0.0])

    def test_fused_ops_reject_bad_shapes(self):
        x = Tensor(np.zeros((4, 6)))
        w, b = Tensor(np.zeros((6, 6))), Tensor(np.zeros(6))
        params = (b, b, w, b, w, w, b)
        with pytest.raises(ShapeMismatchError, match=r"attention.*x must be \(N, C\)"):
            apply("attention", (Tensor(np.zeros((2, 4, 6))), *params), {"num_heads": 2})
        for kind in ("linear", "gelu"):
            with pytest.raises(ShapeMismatchError, match=rf"{kind}.*\(4, 6\).*\(5, 2\)"):
                apply(kind, (x, Tensor(np.zeros((5, 2))), Tensor(np.zeros(2))))
            with pytest.raises(ShapeMismatchError, match=f"{kind}.*bias"):
                apply(kind, (x, Tensor(np.zeros((6, 2))), Tensor(np.zeros(3))))
        b2 = Tensor(np.zeros(2))
        for operands in [(x,), (x, Tensor(np.zeros((6, 2))), b2, b2)]:
            pattern = r"linear: operand count \d, expected 2 or 3$"
            with pytest.raises(ShapeMismatchError, match=pattern):
                apply("linear", operands)
        # The layer norm takes its affine: x alone is the form it once had.
        with pytest.raises(ShapeMismatchError, match=r"^layernorm: operand count 1, expected 3$"):
            apply("layernorm", (x,))

    @pytest.mark.parametrize("kind", ["attention", "mlp", "layernorm"])
    @pytest.mark.parametrize("which", [1, 2], ids=["g", "b"])
    def test_pre_norm_rejects_a_bad_affine(self, kind, which):
        # The norm's g and b must each be one value per column of x.
        x = np.zeros((4, 6))
        if kind == "attention":
            shapes = [(4, 6), (6,), (6,), (6, 6), (6,), (6, 6), (6, 6), (6,)]
        elif kind == "mlp":
            shapes = [(4, 6), (6,), (6,), (6, 8), (8,), (4, 3), (3,)]
        else:
            shapes = [(4, 6), (6,), (6,)]
        shapes[which] = (5,)
        name = "gb"[which - 1]
        operands = tuple(Tensor(x if i == 0 else np.zeros(s)) for i, s in enumerate(shapes))
        pattern = rf"^{kind}: norm {name} \(5,\) incompatible with x \(4, 6\)$"
        with pytest.raises(ShapeMismatchError, match=pattern):
            apply(kind, operands, {"num_heads": 2})

    @pytest.mark.parametrize(
        "n, c, hidden, h, k", [(9, 16, 64, 64, 16), (27, 5, 16, 2, 3)], ids=["dense", "split-rows"]
    )
    def test_single_block_mlp_matches_linear_gelu_then_linear_bitwise(self, n, c, hidden, h, k):
        # Both forms: the pre-norm one rounds as a layernorm node before them.
        assert n * hidden <= autodiff._MLP_BLOCK
        rng = np.random.default_rng(n)
        arrays = [rng.normal(size=s) for s in ((n, c), (c, hidden), (hidden,), (h, k), (k,))]
        norm = [rng.normal(size=c) for _ in range(2)]
        g = rng.normal(size=(n * hidden // h, k))

        def value_and_grads(fused, normed):
            with Graph() as graph:
                ts = [Tensor(a, requires_grad=True) for a in arrays[:1] + norm + arrays[1:]]
                if not normed:
                    ts[1:3] = []
                graph.watch_all(ts)
                if fused:
                    y = apply("mlp", tuple(ts))
                else:
                    x, *dense = ts
                    if normed:
                        ln_g, ln_b, *dense = dense
                        x = apply("layernorm", (x, ln_g, ln_b))
                    act = apply("gelu", (x, *dense[:2]))
                    act = act.reshape((n * hidden // h, h))
                    y = apply("linear", (act, *dense[2:]))
                loss = weighted_total(y, g)
            grads = backward(graph, loss)
            return [y.data.tobytes()] + [grads[t.node_id].data.tobytes() for t in ts]

        for normed in (False, True):
            assert value_and_grads(True, normed) == value_and_grads(False, normed), normed

    def test_ragged_multi_block_mlp_matches_reference(self):
        # Three full row blocks and 7 rows; each row's 128 hidden units are
        # read as 8 rows of h = 16, as in the segmenter's last stage.
        hidden, h, k = 128, 16, 3
        n = 3 * (autodiff._MLP_BLOCK // hidden) + 7
        rng = np.random.default_rng(10)
        arrays = [rng.normal(size=s) for s in ((n, 6), (6, hidden), (hidden,), (h, k), (k,))]
        norm = (1.0 + 0.1 * rng.normal(size=6), 0.1 * rng.normal(size=6))
        g = rng.normal(size=(8 * n, k))
        for pre in (None, norm):
            out, expected = mlp_reference(*arrays, g, norm=pre)
            with Graph() as graph:
                ts = [Tensor(a, requires_grad=True) for a in [arrays[0], *(pre or ()), *arrays[1:]]]
                graph.watch_all(ts)
                y = apply("mlp", tuple(ts))
                loss = weighted_total(y, g)
            grads = backward(graph, loss)
            assert y.shape == out.shape
            for got, ref in zip([y.data] + [grads[t.node_id].data for t in ts], (out, *expected)):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_two_block_pre_norm_mlp_recomputes_its_cdf_bitwise(self):
        # A full row block and a ragged one of 7 rows, with most
        # pre-activations past the normal CDF's |a| = sqrt(2) branch, in
        # both blocks. The node keeps no CDF: its VJP recomputes each
        # block's. It matches, bitwise in value and in all seven gradients,
        # the unfused graph of a layernorm node, then per row block
        # gather_rows, gelu, reshape and linear nodes and one concat: the
        # per-block weight gradients of two blocks sum in either order to
        # the same bits. It is also bitwise equal in all three modes.
        hidden, h, k, c = 128, 16, 3, 6
        per = autodiff._MLP_BLOCK // hidden
        n = per + 7
        rng = np.random.default_rng(11)
        shapes = ((n, c), (c,), (c,), (c, hidden), (hidden,), (h, k), (k,))
        arrays = [rng.normal(size=s) for s in shapes]
        arrays[1] = 1.0 + 0.1 * arrays[1]
        y = layernorm_reference(*arrays[:3])[0]
        past = np.abs(y @ arrays[3] + arrays[4]) > np.sqrt(2.0)
        assert past[:per].mean() > 0.4 and past[per:].mean() > 0.4
        g = rng.normal(size=(n * hidden // h, k))

        def value_and_grads(fused):
            with Graph() as graph:
                ts = [Tensor(a, requires_grad=True) for a in arrays]
                graph.watch_all(ts)
                if fused:
                    out = apply("mlp", tuple(ts))
                else:
                    x, ln_g, ln_b, w1, b1, w2, b2 = ts
                    y = apply("layernorm", (x, ln_g, ln_b))
                    outs = []
                    for rows in (np.arange(per), np.arange(per, n)):
                        block = apply("gather_rows", (y,), {"indices": rows})
                        act = apply("gelu", (block, w1, b1))
                        act = act.reshape((rows.size * hidden // h, h))
                        outs.append(apply("linear", (act, w2, b2)))
                    out = apply("concat", tuple(outs), {"axis": 0})
                loss = weighted_total(out, g)
            if fused:  # (d, inv, ln_g, ln_b, w1, b1, w2): no CDF
                assert [len(node.ctx) for node in graph.nodes if node.kind == "mlp"] == [7]
            grads = backward(graph, loss)
            return [out.data.tobytes()] + [grads[t.node_id].data.tobytes() for t in ts]

        assert value_and_grads(True) == value_and_grads(False)
        outs = _three_modes("mlp", arrays)
        assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()

    @pytest.mark.parametrize(
        "bad, heads, pattern",
        [
            ({"wq": (5, 6)}, 2, r"attention: x \(4, 6\) incompatible with wq \(5, 6\)"),
            ({"wk": (5, 6)}, 2, r"attention: x \(4, 6\) incompatible with wk \(5, 6\)"),
            ({"wv": (6, 4), "bv": (4,)}, 2, r"attention: wv \(6, 4\) differs from wq \(6, 6\)"),
            ({"bq": (5,)}, 2, r"attention: bq \(5,\) incompatible with wq \(6, 6\)"),
            # A key bias as a ninth operand, as the op once took.
            ({"bk": (6,)}, 2, r"attention: operand count 9, expected 8$"),
            ({"bv": (4,)}, 2, r"attention: bv \(4,\) incompatible with wv \(6, 6\)"),
            ({}, 4, r"attention: dim 6 does not split into 4 heads"),
        ],
        ids=["x-wq", "x-wk", "widths", "bq", "bk", "bv", "heads"],
    )
    def test_attention_rejects_bad_shapes(self, bad, heads, pattern):
        shapes = dict(zip(helpers._ATTENTION_OPERANDS, [(4, 6), *_attention_shapes(6).values()]))
        shapes.update(bad)
        operands = tuple(Tensor(np.zeros(s)) for s in shapes.values())
        with pytest.raises(ShapeMismatchError, match=pattern):
            apply("attention", operands, {"num_heads": heads})

    @pytest.mark.parametrize(
        "bad, pattern",
        [
            ({"w1": (5, 8)}, r"mlp.*\(4, 6\).*\(5, 8\)"),
            ({"b1": (7,)}, r"mlp.*bias \(7,\).*\(6, 8\)"),
            ({"w2": (3, 3)}, r"mlp.*\(6, 8\).*multiple.*\(3, 3\)"),
            ({"b2": (4,)}, r"mlp.*bias \(4,\).*\(4, 3\)"),
        ],
        ids=["x-w1", "b1", "hidden-not-a-multiple", "b2"],
    )
    def test_mlp_rejects_bad_shapes(self, bad, pattern):
        shapes = {"x": (4, 6), "w1": (6, 8), "b1": (8,), "w2": (4, 3), "b2": (3,), **bad}
        with pytest.raises(ShapeMismatchError, match=pattern):
            apply("mlp", tuple(Tensor(np.zeros(s)) for s in shapes.values()))

    @pytest.mark.parametrize("shape", [(4096, 64), (3, 5, 7), (2, 3 * _BLOCK + 1)])
    def test_layernorm_matches_two_pass_formula_bitwise(self, shape):
        rng = np.random.default_rng(len(shape))
        a = rng.normal(size=shape) * 3.0 + 1.0
        g, b = rng.normal(size=(2, shape[-1]))
        mu = a.mean(axis=-1, keepdims=True)
        var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
        expected = (a - mu) * (1.0 / np.sqrt(var + 1e-6)) * g + b
        out = apply("layernorm", (Tensor(a), Tensor(g), Tensor(b)))
        assert out.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(4096, 64), (3, 5, 7), (2, 3 * _BLOCK + 1)])
    def test_layernorm_node_matches_reference_bitwise(self, shape):
        # Value and all three gradients through the tape, against the numpy
        # reference. The node keeps (d, inv, g, b), not its output.
        rng = np.random.default_rng(10 + len(shape))
        x = rng.normal(size=shape) * 3.0 + 1.0
        ln_g, ln_b = rng.normal(size=(2, shape[-1]))
        gy = rng.normal(size=shape)
        y, vjp = layernorm_reference(x, ln_g, ln_b)
        with Graph() as graph:
            ts = [Tensor(a, requires_grad=True) for a in (x, ln_g, ln_b)]
            graph.watch_all(ts)
            out = apply("layernorm", tuple(ts))
            loss = weighted_total(out, gy)
        (node,) = [n for n in graph.nodes if n.kind == "layernorm"]
        assert [a.shape for a in node.ctx] == [shape, shape[:-1] + (1,), ln_g.shape, ln_b.shape]
        grads = backward(graph, loss)
        assert out.data.tobytes() == y.tobytes()
        for t, want in zip(ts, vjp(gy)):
            assert grads[t.node_id].data.tobytes() == want.tobytes()

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
            xwb = (a * b + a, b.permute((1, 0)), Tensor(np.ones(3)))
            h = apply("gelu", xwb)
            w, bias = b.permute((1, 0)) @ h @ b, apply("mean", (a,)).reshape((4,))
            params = (bias, bias, w, bias, w, w, bias)
            loss = mean_all(apply("attention", (a, *params), {"num_heads": 2}) * b)
            loss = loss + mean_all(apply("mlp", (a, bias, bias, w, bias, w, bias)))
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
        with pytest.raises(ShapeMismatchError, match=r"linear.*\(2, 3\).*\(2, 3\)"):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeMismatchError, match="add"):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((4,)))

    def test_mean_is_the_row_mean_keeping_its_axis(self):
        a = np.random.default_rng(5).normal(size=(7, 3, 2))
        out = apply("mean", (Tensor(a),))
        assert out.data.tobytes() == a.mean(axis=0, keepdims=True).tobytes()

    @pytest.mark.parametrize("shape", [(), (0, 3)], ids=["0-d", "0-row"])
    def test_mean_without_rows_names_the_op(self, shape):
        # Rejected before numpy runs: no RuntimeWarning, no ZeroDivisionError.
        pattern = rf"^mean: needs at least one row, got shape {re.escape(str(shape))}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeMismatchError, match=pattern):
                apply("mean", (Tensor(np.zeros(shape)),))

    @pytest.mark.parametrize("kind, count", [
        pytest.param(kind, n, id=f"{kind}-{n}")
        for kind, op in autodiff._REGISTRY.items()
        for n in _wrong_counts(op.counts)
    ])
    def test_wrong_operand_count_names_the_kind(self, kind, count, monkeypatch):
        # Every count from none to one past the most a kind takes (to one
        # past the least for concat, which has no limit), including the 6
        # between mlp's two forms, fails before a kernel runs, recorded or
        # not.
        op = autodiff._REGISTRY[kind]

        def kernel(arrays, attrs):
            raise AssertionError(f"{kind} ran a kernel on {len(arrays)} operands")

        monkeypatch.setattr(op, "forward", kernel)
        monkeypatch.setattr(op, "run", kernel)
        pattern = rf"^{kind}: operand count {count}, expected "
        for graph in (None, Graph()):
            operands = tuple(Tensor(np.zeros((2, 2)), requires_grad=True) for _ in range(count))
            with pytest.raises(ShapeMismatchError, match=pattern):
                if graph is None:
                    apply(kind, operands)
                else:
                    with graph:
                        apply(kind, operands)


class TestBackward:
    def test_sum_gives_ones(self):
        x = np.random.default_rng(0).normal(size=(3, 5))
        g = grad_of(lambda t: weighted_total(t, np.ones(15)), x)
        assert np.array_equal(g, np.ones((3, 5)))

    def test_square_sum_hand_case(self):
        g = grad_of(lambda x: weighted_total(x * x, np.ones(3)), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(g, [2.0, 4.0, 6.0])

    def test_unused_leaf_gets_zeros(self):
        with Graph() as g:
            x = Tensor([1.0, 2.0], requires_grad=True)
            w = Tensor(np.ones((2, 2)), requires_grad=True)
            g.watch(x)
            g.watch(w)
            loss = mean_all(x)
        grads = backward(g, loss)
        assert np.array_equal(grads[w.node_id].data, np.zeros((2, 2)))
        assert np.array_equal(grads[x.node_id].data, [0.5, 0.5])

    @pytest.mark.parametrize("rows, indices", [
        (270, np.random.default_rng(3).permutation(270)[:216]),
        (4, np.array([3, 1, 1, 0])),
    ], ids=["distinct", "repeated"])
    def test_gather_rows_vjp_writes_add_at_bytes(self, rows, indices):
        # Distinct indices take the fancy-index scatter, repeats np.add.at;
        # both give np.add.at's bytes, with -0.0 gradients landing as +0.0.
        op = autodiff._REGISTRY["gather_rows"]
        g = np.random.default_rng(4).normal(size=(indices.size, 64))
        g[::3, ::2] = -0.0
        _, ctx = op.forward([np.zeros((rows, 64))], {"indices": indices})
        assert ctx[-1] == (np.unique(indices).size == indices.size)
        expected = np.zeros((rows, 64))
        np.add.at(expected, indices, g)
        (got,) = op.vjp(ctx, g)
        assert got.tobytes() == expected.tobytes()

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
            _ = mean_all(x)
        with Graph() as other:
            z = Tensor([1.0], requires_grad=True)
            other.watch(z)
            loss = mean_all(z)
        with pytest.raises(GraphError, match="belong"):
            backward(g, loss)
        backward(other, loss)

    def test_graph_cannot_be_reused(self):
        with Graph() as g:
            x = Tensor([1.0], requires_grad=True)
            g.watch(x)
            loss = mean_all(x)
        backward(g, loss)
        with pytest.raises(GraphError, match="consumed"):
            backward(g, loss)

    def test_scale_is_one_mul_node(self):
        rng = np.random.default_rng(8)
        a, g = rng.normal(size=(2, 4, 5))

        def value_and_grad(f):
            with Graph() as graph:
                t = Tensor(a, requires_grad=True)
                graph.watch(t)
                y = f(t)
                loss = weighted_total(y, g)
            kinds = [node.kind for node in graph.nodes if not node.is_leaf]
            return kinds, y.data.tobytes(), backward(graph, loss)[t.node_id].data.tobytes()

        kinds, value, grad = value_and_grad(lambda t: t.scale(1.7))
        assert kinds == ["mul", "reshape", "linear"]
        assert (value, grad) == value_and_grad(lambda t: t * Tensor(1.7))[1:]
        assert (value, grad) == ((a * 1.7).tobytes(), (g * 1.7).tobytes())
        assert finite_diff_check(lambda t: mean_all(t.scale(1.7) * Tensor(g)), a) < 1e-8

    def test_each_context_is_released_after_its_vjp(self, monkeypatch):
        # A small segmenter and its loss: when each VJP starts, every node
        # whose VJP already ran has dropped its context, and no other has.
        seg = SegConfig(ViTConfig(32, 2, 4, 4), num_classes=3, width=8)
        params = init_seg_params(seg, seed=0)
        rng = np.random.default_rng(0)
        window = Volume(rng.normal(size=(1, 16, 16, 16)))
        held = []

        def counting(vjp):
            def wrapped(ctx, g):
                held.append(sum(node.ctx is not None for node in graph.nodes))
                return vjp(ctx, g)

            return wrapped

        for op in autodiff._REGISTRY.values():
            monkeypatch.setattr(op, "vjp", counting(op.vjp))
        with Graph() as graph:
            graph.watch_all(params.values())
            loss = dice_ce_loss(unetr_segment(seg, params, window), rng.integers(0, 3, (16,) * 3))
        recorded = sum(not node.is_leaf for node in graph.nodes)
        backward(graph, loss)
        assert held == list(range(recorded, 0, -1))

    def test_gradient_against_independent_numeric_oracle(self):
        # Independent of finite_diff_check: plain one-sided loop here.
        rng = np.random.default_rng(11)
        x = rng.uniform(0.5, 1.5, size=(3, 3))
        w = rng.normal(size=(3, 3))
        g, b = rng.normal(size=(2, 3))

        def f(arr):
            d = arr - arr.mean(axis=-1, keepdims=True)
            normed = d / np.sqrt((d * d).mean(axis=-1, keepdims=True) + 1e-6)
            return float(np.mean((normed * g + b) * w + arr @ arr))

        analytic = grad_of(
            lambda t: mean_all(apply("layernorm", (t, Tensor(g), Tensor(b))) * Tensor(w) + t @ t), x
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
        assert finite_diff_check(mean_all, x, h=1e-5) < 1e-9

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            finite_diff_check(mean_all, np.ones(3), h=0.5)

    @pytest.mark.parametrize("max_probes", [0, -3])
    def test_rejects_fewer_than_one_probe(self, max_probes):
        # Zero probes would pass without checking anything.
        with pytest.raises(ValueError, match="max_probes"):
            finite_diff_check(mean_all, np.ones(3), max_probes=max_probes)

    @pytest.mark.parametrize("max_probes, probes", [(None, 50), (1, 1), (32, 32), (64, 50)])
    def test_probe_count(self, max_probes, probes):
        # f runs once for the analytic gradient and twice per probe.
        calls = []

        def f(t):
            calls.append(1)
            return mean_all(t)

        finite_diff_check(f, np.zeros(50), max_probes=max_probes)
        assert len(calls) == 1 + 2 * probes


def _op_calls(kind, monkeypatch):
    """(operand arrays, attrs) of every call of the op that the
    gradient-check probe ``kind`` checks, run unrecorded on seeded operands."""
    calls = []
    real_apply = autodiff.apply

    def spy(k, operands, attrs=None):
        if k == probe_op(kind):
            calls.append(([t.data for t in operands], attrs))
        return real_apply(k, operands, attrs)

    monkeypatch.setattr(autodiff, "apply", spy)
    monkeypatch.setattr(helpers, "apply", spy)
    rng = np.random.default_rng(7)
    aux = probe_aux(rng)
    DIFFERENTIABLE_PROBES[kind](Tensor(probe_input(kind, rng)), aux)
    monkeypatch.undo()
    return calls


def _three_modes(kind, arrays, attrs=None):
    """Outputs of one op unrecorded (operands require grad, no graph),
    recorded, and under a graph with no grad-requiring operand. Checks
    which nodes each graph records and that no operand changed or became
    writable."""
    outs = []
    for mode in ("unrecorded", "recorded", "no-grad graph"):
        operands = [Tensor(a, requires_grad=mode != "no-grad graph") for a in arrays]
        if mode == "unrecorded":
            out = apply(kind, operands, attrs)
        else:
            with Graph() as graph:
                out = apply(kind, operands, attrs)
            recorded = [node.kind for node in graph.nodes if not node.is_leaf]
            assert recorded == ([kind] if mode == "recorded" else []), mode
        for t, a in zip(operands, arrays):
            assert t.data.tobytes() == np.asarray(a, dtype=np.float64).tobytes(), mode
            assert not t.data.flags.writeable, mode
        assert not out.data.flags.writeable, mode
        outs.append(out.data)
    return outs


class TestUnrecordedForward:
    @pytest.mark.parametrize("kind", sorted(DIFFERENTIABLE_PROBES))
    def test_every_op_is_bitwise_equal_in_all_modes(self, kind, monkeypatch):
        op = probe_op(kind)
        calls = _op_calls(kind, monkeypatch)
        assert calls, f"the {kind} probe never calls {op}"
        for arrays, attrs in calls:
            unrecorded, recorded, no_grad = _three_modes(op, arrays, attrs)
            assert unrecorded.shape == recorded.shape == no_grad.shape
            assert unrecorded.tobytes() == recorded.tobytes() == no_grad.tobytes()

    @pytest.mark.parametrize("size", [1, _BLOCK, 3 * _BLOCK + 7])
    @pytest.mark.parametrize("kind", ["gelu"])
    def test_gelu_ops_are_bitwise_equal_across_blocks(self, kind, size):
        rng = np.random.default_rng(size)
        a = rng.normal(size=size) * 3.0
        if size > 1:
            # Mixed signs on both sides of the normal CDF's |a| = sqrt(2) branch.
            assert (a > np.sqrt(2.0)).any() and (a < -np.sqrt(2.0)).any()
            assert (np.abs(a) < np.sqrt(2.0)).any()
        # Rows of width 1 times a weight of 1: the pre-activation is a.
        outs = _three_modes(kind, [a.reshape(-1, 1), np.ones((1, 1)), np.zeros(1)])
        assert outs[0].size == size
        assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()

    def test_unrecorded_gelu_ops_allocate_little_beyond_the_output(self):
        # 1M-element output: a recorded node also holds a full-size CDF; an
        # unrecorded one only a block, and GELU runs in place over the
        # dense layer's output. The pre-activations are of unit scale, as a
        # standard normal input's: the share of each block that takes the
        # CDF's erfc form sets the size of its temporaries.
        rng = np.random.default_rng(0)
        shapes_scales = (((8192, 16), 1.0), ((16, 128), 0.25), ((128,), 0.0))
        operands = tuple(Tensor(rng.normal(size=s) * c) for s, c in shapes_scales)
        out, peak = traced_peak(lambda: apply("gelu", operands))
        assert out.size == 1 << 20
        assert peak <= 1.1 * out.data.nbytes, f"peak {peak / out.data.nbytes:.2f}x the output"

    def test_mlp_is_bitwise_equal_across_blocks(self):
        # A ragged multi-block call of each form, unrecorded, recorded and
        # under a graph with no grad operand.
        hidden = 64
        n = 2 * (autodiff._MLP_BLOCK // hidden) + 5
        rng = np.random.default_rng(4)
        arrays = [rng.normal(size=s) for s in ((n, 3), (3, hidden), (hidden,), (8, 2), (2,))]
        norm = [rng.normal(size=3) for _ in range(2)]
        for operands in (arrays, arrays[:1] + norm + arrays[1:]):
            outs = _three_modes("mlp", operands)
            assert outs[0].shape == (8 * n, 2)
            assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()

    @pytest.mark.parametrize(
        "kind, shapes, bound",
        [
            # The segmenter's last fuse and head on a 48^3 crop: 13824 coarse
            # rows, 128 hidden units read as 8 voxels of 16 features, 3 classes.
            ("mlp", ((13824, 40), (40, 128), (128,), (16, 3), (3,)), 1.6),
            ("linear", ((110592, 16), (16, 3), (3,)), 1.1),
            ("layernorm", ((4096, 64), (64,), (64,)), 1.2),
        ],
    )
    def test_unrecorded_op_allocates_little_beyond_the_output(self, kind, shapes, bound):
        rng = np.random.default_rng(0)
        operands = tuple(Tensor(rng.normal(size=s)) for s in shapes)
        out, peak = traced_peak(lambda: apply(kind, operands))
        assert peak <= bound * out.data.nbytes, f"peak {peak / out.data.nbytes:.2f}x the output"


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
            h = apply("gelu", (x, w, Tensor(x0[0])))
            params = (Tensor(x0[4]), Tensor(x0[5]), w, Tensor(x0[1]), w.permute((1, 0)), w,
                      Tensor(x0[3]))
            h = apply("attention", (h, *params), {"num_heads": 4})
            h = apply("mlp", (h, *params[:4], w, Tensor(x0[2])))
            loss = mean_all(h * Tensor(x0))
        grads = backward(g, loss)
        return loss.data.tobytes(), grads[x.node_id].data.tobytes(), grads[w.node_id].data.tobytes()

    def test_identical_graphs_bitwise_identical(self):
        assert self._run() == self._run()


def test_registry_covers_spec_kinds():
    # Every registered op has a gradient-check probe, and every probe an op.
    assert {probe_op(k) for k in DIFFERENTIABLE_PROBES} == set(autodiff._REGISTRY)
