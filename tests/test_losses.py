"""Objectives and the Dice metric against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmim import autodiff
from vmim.autodiff import Graph, Tensor, apply, backward
from vmim.losses import ReconLossConfig, dice_ce_loss, masked_recon_loss, ntxent
from vmim.metrics import DiceReport, dice
from vmim.patches import Mask

from helpers import dice_ce_reference, finite_diff_check, ntxent_reference, recon_reference


def make_mask(ids, total):
    return Mask(np.array(sorted(ids), dtype=np.int64), total)


class TestMaskedReconLoss:
    def test_zero_residual(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 8))
        mask = make_mask([1, 4], 6)
        loss = masked_recon_loss(Tensor(x), x, mask)
        assert loss.item() == 0.0

    def test_hand_case_l1(self):
        pred = Tensor(np.zeros((2, 2)))
        target = np.array([[9.0, 9.0], [1.0, 3.0]])
        mask = make_mask([1], 2)
        loss = masked_recon_loss(pred, target, mask, ReconLossConfig("l1"))
        assert loss.item() == pytest.approx(2.0, abs=0)

    def test_visible_perturbation_changes_nothing_bitwise(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(size=(10, 4))
        target = rng.normal(size=(10, 4))
        mask = make_mask([0, 3, 7], 10)
        visible = mask.visible_token_ids()
        baseline = None
        for norm in ("l1", "l2"):
            cfg = ReconLossConfig(norm)
            baseline = masked_recon_loss(Tensor(pred), target, mask, cfg).data.tobytes()
            for _ in range(100):
                pred2, target2 = pred.copy(), target.copy()
                pred2[visible] = rng.normal(size=(len(visible), 4)) * 100
                target2[visible] = rng.normal(size=(len(visible), 4)) * 100
                perturbed = masked_recon_loss(Tensor(pred2), target2, mask, cfg)
                assert perturbed.data.tobytes() == baseline

    def test_l2_matches_naive_double_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pred = rng.normal(size=(5, 3))
            target = rng.normal(size=(5, 3))
            masked = sorted(rng.choice(5, size=2, replace=False).tolist())
            mask = make_mask(masked, 5)
            total = 0.0
            count = 0
            for t in masked:
                for j in range(3):
                    total += (pred[t, j] - target[t, j]) ** 2
                    count += 1
            got = masked_recon_loss(Tensor(pred), target, mask, ReconLossConfig("l2"))
            assert got.item() == total / count

    def test_loss_is_nonnegative(self):
        rng = np.random.default_rng(3)
        for norm in ("l1", "l2"):
            for _ in range(20):
                pred = rng.normal(size=(4, 4))
                target = rng.normal(size=(4, 4))
                loss = masked_recon_loss(
                    Tensor(pred), target, make_mask([0, 2], 4), ReconLossConfig(norm)
                )
                assert loss.item() >= 0.0

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="no masked patches"):
            masked_recon_loss(Tensor(np.zeros((2, 2))), np.zeros((2, 2)), make_mask([], 2))

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_matches_the_composite_graph_bitwise(self, norm):
        # A float32 target, and rows of pred equal to it: residuals of
        # exactly 0, whose -0.0 gradient terms under the negative upstream
        # gradient must land as +0.0, are covered.
        rng = np.random.default_rng(15)
        target = rng.normal(size=(12, 7)).astype(np.float32)
        pred = rng.normal(size=(12, 7))
        pred[[2, 5]] = target[[2, 5]]
        pred[9, :3] = target[9, :3]
        mask = make_mask([0, 2, 5, 9, 11], 12)
        want, want_grad = recon_reference(pred, target, mask.masked_token_ids, norm, g=-1.7)
        with Graph() as g:
            t = Tensor(pred, requires_grad=True)
            g.watch(t)
            loss = masked_recon_loss(t, target, mask, ReconLossConfig(norm))
            scaled = loss.scale(-1.7)
        assert [node.kind for node in g.nodes if not node.is_leaf] == ["recon", "mul"]
        grad = backward(g, scaled)[t.node_id].data
        assert loss.data.tobytes() == np.asarray(want).tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        assert (grad[mask.visible_token_ids()] == 0.0).all()

    def test_bad_input_names_argument(self):
        pred, target = Tensor(np.zeros((4, 3))), np.zeros((4, 3))
        with pytest.raises(ValueError, match=r"pred shape \(4, 3\) != target shape \(4, 2\)"):
            masked_recon_loss(pred, np.zeros((4, 2)), make_mask([1], 4))
        with pytest.raises(ValueError, match="norm must be 'l1' or 'l2'"):
            apply("recon", (pred,), {"target": target, "ids": np.array([1]), "norm": "l3"})
        for ids in ([1, 1], [4], [-1]):
            with pytest.raises(ValueError, match=r"distinct and lie in \[0, 4\)"):
                apply("recon", (pred,), {"target": target, "ids": np.array(ids), "norm": "l1"})

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        target = rng.normal(size=(6, 3))
        mask = make_mask([1, 2, 5], 6)
        for norm in ("l1", "l2"):
            err = finite_diff_check(
                lambda t: masked_recon_loss(t, target, mask, ReconLossConfig(norm)),
                rng.normal(size=(6, 3)),
            )
            assert err < 1e-4


def dice_brute(g, p, class_id):
    """Naive voxel loop evaluation of the overlap formula."""
    inter = 0
    size_g = 0
    size_p = 0
    for gd, pd in zip(g.ravel().tolist(), p.ravel().tolist()):
        gi = 1 if gd == class_id else 0
        pi = 1 if pd == class_id else 0
        inter += gi * pi
        size_g += gi
        size_p += pi
    if size_g + size_p == 0:
        return 1.0
    return 2.0 * inter / (size_g + size_p)


class TestDice:
    def test_hand_case(self):
        g = np.array([1, 1, 0, 0]).reshape(1, 1, 4)
        p = np.array([1, 0, 1, 0]).reshape(1, 1, 4)
        assert dice(g, p, 1) == 0.5

    def test_identity_and_disjoint(self):
        g = np.zeros((2, 2, 2), dtype=int)
        g[0] = 1
        assert dice(g, g.copy(), 1) == 1.0
        p = np.zeros_like(g)
        p[1] = 1
        assert dice(g, p, 1) == 0.0

    def test_both_empty_convention(self):
        z = np.zeros((2, 2, 2), dtype=int)
        assert dice(z, z, 3) == 1.0

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            g = rng.integers(0, 4, size=(8, 8, 8))
            p = rng.integers(0, 4, size=(8, 8, 8))
            c = int(rng.integers(0, 4))
            assert dice(g, p, c) == dice_brute(g, p, c)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_symmetry_range_and_order_invariance(self, data):
        shape = (4, 4, 4)
        g = np.array(
            data.draw(st.lists(st.integers(0, 2), min_size=64, max_size=64))
        ).reshape(shape)
        p = np.array(
            data.draw(st.lists(st.integers(0, 2), min_size=64, max_size=64))
        ).reshape(shape)
        c = data.draw(st.integers(0, 2))
        d = dice(g, p, c)
        assert 0.0 <= d <= 1.0
        assert d == dice(p, g, c)
        perm = np.random.default_rng(0).permutation(64)
        assert d == dice(g.ravel()[perm].reshape(shape), p.ravel()[perm].reshape(shape), c)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            dice(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)), 0)

    def test_report_average_is_mean(self):
        report = DiceReport({1: 0.25, 2: 0.5, 3: 1.0})
        assert abs(report.average - (0.25 + 0.5 + 1.0) / 3) < 1e-12

    def test_report_round_trip_text(self, tmp_path):
        report = DiceReport({2: 0.5, 1: 1.0})
        assert report.to_text() == "class\tdice\nclass_1\t1.0\nclass_2\t0.5\naverage\t0.75\n"
        path = tmp_path / "report.txt"
        report.save(str(path))
        assert path.read_bytes() == report.to_text().encode("utf-8")


class TestDiceCE:
    def test_uniform_logits_two_classes_gives_ln2(self):
        logits = Tensor(np.zeros((2, 2, 2, 2)))
        labels = np.array([[[0, 1], [1, 0]], [[1, 0], [0, 1]]])
        ce = dice_ce_loss(logits, labels, weight_dice=0.0)
        assert ce.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_prediction_limit(self):
        labels = np.random.default_rng(6).integers(0, 3, size=(4, 4, 4))
        onehot = np.zeros((4, 4, 4, 3))
        for c in range(3):
            onehot[..., c][labels == c] = 1.0
        previous = None
        for margin in (2.0, 8.0, 32.0):
            loss = dice_ce_loss(Tensor(onehot * margin), labels).item()
            if previous is not None:
                assert loss < previous
            previous = loss
        assert previous < 1e-3

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 3, size=(2, 2, 2))
        err = finite_diff_check(
            lambda t: dice_ce_loss(t, labels), rng.normal(size=(2, 2, 2, 3))
        )
        assert err < 1e-4

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError, match="label ids"):
            dice_ce_loss(Tensor(np.zeros((2, 2, 2, 2))), np.full((2, 2, 2), 5))

    @pytest.mark.parametrize(
        "labels, weight_dice, smooth, match",
        [
            (np.full((2, 2, 2), 1.5), 0.5, 1e-5, "labels must have an integer dtype"),
            (np.full((2, 2, 2), np.nan), 0.5, 1e-5, "labels must have an integer dtype"),
            (np.zeros((2, 2, 2), dtype=int), 1.5, 1e-5, "weight_dice"),
            (np.zeros((2, 2, 2), dtype=int), -1.0, 1e-5, "weight_dice"),
            (np.zeros((2, 2, 2), dtype=int), 0.5, 0.0, "smooth"),
            (np.zeros((2, 2, 2), dtype=int), 0.5, -1.0, "smooth"),
            (np.zeros((0, 2, 2), dtype=int), 0.5, 1e-5, "at least one voxel"),
        ],
        ids=[
            "float-labels", "nan-labels", "weight-above-1", "weight-below-0",
            "zero-smooth", "negative-smooth", "no-voxels",
        ],
    )
    def test_bad_input_names_argument(self, labels, weight_dice, smooth, match):
        logits = Tensor(np.zeros(labels.shape + (2,)))
        with pytest.raises(ValueError, match=match):
            dice_ce_loss(logits, labels, weight_dice=weight_dice, smooth=smooth)

    @pytest.mark.parametrize(
        "shape, classes, weight_dice, absent",
        [
            ((4, 4, 4), 3, 0.5, None),
            ((4, 4, 4), 3, 0.0, 1),
            ((4, 4, 4), 3, 1.0, 1),
            ((3, 5, 6), 2, 0.5, None),
            ((6, 6, 6), 14, 0.5, 7),
        ],
        ids=["k3-w0.5", "k3-w0-absent", "k3-w1-absent", "k2-3x5x6", "k14-absent"],
    )
    def test_matches_composite_reference(self, shape, classes, weight_dice, absent):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=shape + (classes,)) * 4.0
        labels = rng.integers(0, classes, size=shape).astype(np.uint16)
        if absent is not None:
            labels[labels == absent] = 0
        want, want_grad = dice_ce_reference(logits, labels, weight_dice)
        with Graph() as g:
            t = Tensor(logits, requires_grad=True)
            g.watch(t)
            loss = dice_ce_loss(t, labels, weight_dice=weight_dice)
        grad = backward(g, loss)[t.node_id].data
        assert abs(loss.item() - want) <= 1e-12 * abs(want)
        assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()

    @pytest.mark.parametrize("weight_dice", [0.0, 1.0])
    def test_gradient_matches_finite_differences_at_either_end(self, weight_dice):
        rng = np.random.default_rng(13)
        labels = rng.integers(0, 4, size=(2, 3, 2))
        labels[labels == 2] = 0
        err = finite_diff_check(
            lambda t: dice_ce_loss(t, labels, weight_dice=weight_dice),
            rng.normal(size=(2, 3, 2, 4)),
            max_probes=None,
        )
        assert err < 1e-6

    def test_one_tape_node_per_call(self):
        rng = np.random.default_rng(14)
        with Graph() as g:
            t = Tensor(rng.normal(size=(3, 4, 5, 3)), requires_grad=True)
            g.watch(t)
            dice_ce_loss(t, rng.integers(0, 3, size=(3, 4, 5)))
        assert [node.kind for node in g.nodes if not node.is_leaf] == ["dice_ce"]
        assert not {"exp", "log"} & set(autodiff._REGISTRY)


def ntxent_brute(embeddings, tau):
    n = len(embeddings)
    b = n // 2
    total = 0.0
    for i in range(n):
        pos = i + b if i < b else i - b
        numerator = math.exp(float(embeddings[i] @ embeddings[pos]) / tau)
        denominator = sum(
            math.exp(float(embeddings[i] @ embeddings[j]) / tau)
            for j in range(n)
            if j != i
        )
        total += -math.log(numerator / denominator)
    return total / n


class TestNTXent:
    def orthogonal_pairs(self):
        # e1 == e1' orthogonal to e2 == e2'
        return np.array(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        )

    def test_orthogonal_pairs_closed_form(self):
        emb = self.orthogonal_pairs()
        expected = -math.log(math.e**2 / (math.e**2 + 2.0))
        assert expected == pytest.approx(0.2395, abs=5e-5)
        got = ntxent(Tensor(emb), 0.5).item()
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(ntxent_brute(emb, 0.5), abs=1e-12)

    def test_matches_brute_force_on_random_batches(self):
        rng = np.random.default_rng(8)
        for b in (2, 3, 5):
            raw = rng.normal(size=(2 * b, 6))
            emb = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            got = ntxent(Tensor(emb), 0.7).item()
            assert got == pytest.approx(ntxent_brute(emb, 0.7), abs=1e-10)

    def test_high_temperature_limit(self):
        emb = self.orthogonal_pairs()
        got = ntxent(Tensor(emb), 1e6).item()
        assert got == pytest.approx(math.log(3.0), abs=1e-3)

    def test_swapping_views_leaves_loss_unchanged(self):
        rng = np.random.default_rng(9)
        raw = rng.normal(size=(8, 5))
        emb = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        swapped = np.concatenate([emb[4:], emb[:4]], axis=0)
        assert ntxent(Tensor(emb), 0.5).item() == pytest.approx(
            ntxent(Tensor(swapped), 0.5).item(), abs=1e-12
        )

    def test_loss_decreases_as_positives_align(self):
        # Sweep the angle between the two views of each sample; negatives fixed.
        losses = []
        for angle in (1.2, 0.8, 0.4, 0.1, 0.0):
            emb = np.array(
                [
                    [1.0, 0.0],
                    [0.0, 1.0],
                    [math.cos(angle), math.sin(angle)],
                    [math.sin(angle), math.cos(angle)],
                ]
            )
            losses.append(ntxent(Tensor(emb), 0.5).item())
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert all(v >= 0.0 for v in losses)

    def test_unnormalised_rows_give_the_loss_of_their_normalised_rows(self):
        rng = np.random.default_rng(10)
        raw = rng.normal(size=(6, 4))
        emb = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        scaled = emb * rng.uniform(0.1, 10.0, size=(6, 1))
        got = ntxent(Tensor(scaled), 0.5).item()
        assert got == pytest.approx(ntxent(Tensor(emb), 0.5).item(), abs=1e-14)
        assert got == pytest.approx(ntxent_brute(emb, 0.5), abs=1e-12)

    @pytest.mark.parametrize(
        "b, tau, zero_row",
        [(2, 0.5, False), (3, 0.1, False), (3, 1e6, False), (3, 0.5, True)],
        ids=["b2", "b3", "tau1e6", "zero-row"],
    )
    def test_matches_composite_reference(self, b, tau, zero_row):
        # The op leaves self-similarity out exactly where the graph it
        # replaced added -1e9, and takes the softmax in another order, so the
        # two agree within a tolerance relative to each array's largest
        # entry. A zero row keeps its norm clamped at 1e-12.
        rng = np.random.default_rng(20 + b)
        z = rng.normal(size=(2 * b, 5)) * 3.0
        if zero_row:
            z[1] = 0.0
        want, want_grad = ntxent_reference(z, tau, g=1.7)
        with Graph() as g:
            t = Tensor(z, requires_grad=True)
            g.watch(t)
            loss = ntxent(t, tau)
            scaled = loss.scale(1.7)
        assert [node.kind for node in g.nodes if not node.is_leaf] == ["ntxent", "mul"]
        grad = backward(g, scaled)[t.node_id].data
        assert abs(loss.item() - want) <= 1e-14 * abs(want)
        assert np.abs(grad - want_grad).max() <= 1e-14 * np.abs(want_grad).max()
        assert np.isfinite(grad).all()

    def test_rejects_tiny_batch(self):
        with pytest.raises(ValueError, match=">= 4"):
            ntxent(Tensor(np.eye(2)), 0.5)

    def test_rejects_odd_batch_and_bad_temperature(self):
        with pytest.raises(ValueError, match=">= 4"):
            ntxent(Tensor(np.ones((5, 3))), 0.5)
        with pytest.raises(ValueError, match="temperature must be positive"):
            ntxent(Tensor(np.ones((4, 3))), 0.0)


def test_the_composite_loss_kinds_are_gone():
    assert not {"sub", "abs", "sum", "log_softmax", "rownorm"} & set(autodiff._REGISTRY)
    assert not hasattr(Tensor, "__sub__") and not hasattr(Tensor, "sum")
