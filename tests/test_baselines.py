import json
import logging

import numpy as np
import pytest

from conftest import fd_gradient, make_net, rel_err
from oracle import cross_entropy, forward_dual, forward_values
from polygrad.checkpoint import load_checkpoint, save_checkpoint
from polygrad.errors import ShapeError
from polygrad.harness import matched_capacity
from polygrad.linalg import Rng, derive_seed
from polygrad.metrics import input_grad_norms
from polygrad.polynet import Net, param_count
from polygrad.tape import Tape
from polygrad.train import TrainConfig, dropout_masks, loss_and_grads


def relu_net(seed="bl", d=4, widths=(6, 5), classes=3, dropout=0.0):
    rng = Rng(derive_seed(seed))
    return Net.build(rng, d, list(widths), classes, activation="relu", dropout_rate=dropout)


class TestConstruction:
    def test_param_registry(self):
        net = relu_net()
        assert set(net.parameters()) == {
            "layer0.W", "layer0.b", "layer1.W", "layer1.b", "head.W", "head.b"
        }
        assert net.widths == [6, 5]

    def test_count_matches_formula(self):
        net = relu_net()
        assert net.arena.size == param_count(4, [6, 5], 3, "relu")

    def test_fewer_params_than_poly_at_equal_widths(self):
        relu = param_count(8, [16, 16], 2, "relu")
        poly = param_count(8, [16, 16], 2, "poly")
        assert relu < poly
        # the gap is exactly the four coefficient vectors per layer
        assert poly - relu == 4 * 32

    def test_bad_dropout_rejected(self):
        with pytest.raises(ValueError):
            Net("relu", 2, [2], 2, dropout_rate=1.0)

    def test_width_chain_validated(self, tmp_path):
        # Built from its widths, every net chains; a checkpoint whose second
        # layer does not take the first one's output is refused.
        net = relu_net()
        assert [layer.weights.shape for layer in net.layers] == [(6, 4), (5, 6)]
        path = tmp_path / "chain.json"
        save_checkpoint(path, net)
        obj = json.loads(path.read_text())
        obj["params"]["layer1.W"] = {"shape": [5, 4], "data": ["0"] * 20}
        path.write_text(json.dumps(obj))
        with pytest.raises(ShapeError, match="layer1.W"):
            load_checkpoint(path)


class TestForward:
    def test_matches_manual_numpy(self):
        net = relu_net()
        x = Rng(derive_seed("bl-x")).standard_normal(5, 4)
        logits, preacts = forward_values(net, x)
        h = x
        for i, layer in enumerate(net.layers):
            z = h @ layer.weights.T + layer.bias
            h = np.maximum(z, 0.0)
            np.testing.assert_array_equal(preacts[i], z)
            np.testing.assert_array_equal(layer.activate(preacts[i]), h)
        np.testing.assert_array_equal(logits, h @ net.head_weights.T + net.head_bias)

    def test_all_positive_region_is_affine(self):
        rng = Rng(derive_seed("pos"))
        W = np.abs(rng.spawn("W").standard_normal(4, 3)) + 0.1
        net = make_net([(W, np.zeros(4), None)], rng.spawn("h").standard_normal(2, 4), np.zeros(2))
        x = np.abs(rng.spawn("x").standard_normal(5, 3)) + 0.1
        logits, _ = forward_values(net, x)
        np.testing.assert_allclose(logits, x @ W.T @ net.head_weights.T, atol=1e-12)

    def test_train_mode_dropout_needs_rng(self):
        net = relu_net(dropout=0.3)
        with pytest.raises(ValueError, match="rng"):
            loss_and_grads(net, np.zeros((2, 4)), np.zeros(2, int), TrainConfig())

    def test_eval_ignores_dropout(self):
        # The eval forward of a dropout net equals the unmasked tape forward.
        net = relu_net(dropout=0.5)
        x = Rng(0).standard_normal(3, 4)
        a, _ = forward_values(net, x)
        net.dropout_rate = 0.0
        tape = Tape(net, x, np.zeros(3, int))
        np.testing.assert_array_equal(a, tape.logits)


class TestDropout:
    def test_mask_values_and_scaling(self):
        net = relu_net(dropout=0.25)
        masks = dropout_masks(net, 200, Rng(derive_seed("masks")))
        for m, w in zip(masks, net.widths):
            assert m.shape == (200, w)
            assert set(np.unique(m)).issubset({0.0, 1.0 / 0.75})

    def test_zero_rate_masks_are_ones(self):
        net = relu_net(dropout=0.0)
        for m in dropout_masks(net, 10, Rng(0)):
            np.testing.assert_array_equal(m, np.ones_like(m))

    def test_train_average_approximates_eval_forward(self):
        # Single hidden layer: the head is linear in the masked
        # activations, so the inverted-dropout expectation equals the
        # eval forward; 10^4 draws put the sample mean within 2%.
        rng = Rng(derive_seed("dropout-expect"))
        net = Net.build(rng.spawn("net"), 3, [12], 2, activation="relu", dropout_rate=0.3)
        x = rng.spawn("x").standard_normal(4, 3) + 0.5
        eval_logits, _ = forward_values(net, x)
        draws = Rng(derive_seed("dropout-draws"))
        acc = np.zeros_like(eval_logits)
        labels = np.zeros(4, int)
        n = 10_000
        for _ in range(n):
            acc += Tape(net, x, labels, dropout_masks(net, 4, draws)).logits
        scale = float(np.abs(eval_logits).max())
        assert float(np.abs(acc / n - eval_logits).max()) < 0.02 * scale


class TestDualAndInputGrads:
    def test_dual_logits_match_eval_forward(self):
        net = relu_net("bl-dual")
        x = Rng(derive_seed("bl-dual-x")).standard_normal(4, 4)
        a, _ = forward_values(net, x)
        b, blocks = forward_dual(net, x)
        np.testing.assert_array_equal(a, b)
        assert blocks[-1].shape == (4, 3, 4)

    def test_head_jacobian_matches_finite_differences(self):
        x = Rng(derive_seed("bl-fd")).spawn("x").standard_normal(5, 4)
        net = Net.build(Rng(derive_seed("bl-fd")).spawn("net"), 4, [6, 5], 3, activation="relu")
        _, blocks = forward_dual(net, x)
        margin = min(float(np.abs(z).min()) for z in forward_values(net, x)[1])
        assert margin > 1e-3, "probe batch sits too close to a ReLU kink"
        step = 1e-6
        for b in range(5):
            for j in range(4):
                xp = x.copy()
                xp[b, j] += step
                xm = x.copy()
                xm[b, j] -= step
                lp, _ = forward_values(net, xp)
                lm, _ = forward_values(net, xm)
                assert rel_err(blocks[-1][b, :, j], (lp[b] - lm[b]) / (2 * step)) < 1e-6

    def test_slope_is_zero_exactly_at_kink(self):
        net = make_net([(np.ones((2, 2)), np.zeros(2), None)], np.ones((2, 2)), np.zeros(2))
        _, blocks = forward_dual(net, np.zeros((1, 2)))  # z = 0 everywhere
        np.testing.assert_array_equal(blocks[0], np.zeros((1, 2, 2)))

    def test_input_grads_closed_form_in_affine_region(self):
        rng = Rng(derive_seed("closed-form"))
        W1 = np.abs(rng.spawn("w1").standard_normal(4, 3)) + 0.1
        net = make_net([(W1, np.zeros(4), None)], rng.spawn("head").standard_normal(2, 4), np.zeros(2))
        x = np.abs(rng.spawn("x").standard_normal(5, 3)) + 0.1
        y = np.array([0, 1, 0, 1, 1])
        logits, _ = forward_values(net, x)
        coeff = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        coeff[np.arange(5), y] -= 1.0
        expected = np.sqrt(((coeff @ net.head_weights @ W1) ** 2).sum(axis=1))
        np.testing.assert_allclose(input_grad_norms(net, x, y), expected, atol=1e-12)

    def test_input_grads_match_finite_differences(self):
        net = relu_net("big")
        x = Rng(derive_seed("big-x")).standard_normal(4, 4)
        y = np.array([0, 1, 2, 1])
        norms = input_grad_norms(net, x, y)
        step = 1e-6
        for b in range(4):
            g = np.zeros(4)
            for j in range(4):
                xp = x.copy()
                xp[b, j] += step
                xm = x.copy()
                xm[b, j] -= step
                lp, _ = forward_values(net, xp)
                lm, _ = forward_values(net, xm)
                per_p = cross_entropy(lp[b:b + 1], y[b:b + 1])
                per_m = cross_entropy(lm[b:b + 1], y[b:b + 1])
                g[j] = (per_p - per_m) / (2 * step)
            assert abs(norms[b] - float(np.linalg.norm(g))) < 1e-6


class TestMatchedCapacity:
    def test_reference_widths_within_tolerance(self):
        m = matched_capacity(8, [16, 16], 2)
        assert m.widths == [19, 19]
        assert m.baseline_params == param_count(8, [19, 19], 2, "relu")
        assert abs(m.relative_gap) <= 0.05

    def test_canonical_sweep_widths(self):
        m = matched_capacity(8, [8, 8], 2)
        assert m.widths == [10, 10]
        assert abs(m.relative_gap) <= 0.05

    def test_baseline_needs_wider_layers(self):
        m = matched_capacity(8, [16, 16], 2)
        assert all(w > 16 for w in m.widths)

    def test_infeasible_match_logs_and_proceeds(self, caplog):
        with caplog.at_level(logging.WARNING):
            m = matched_capacity(2, [1], 2)
        assert m.widths == [2]
        assert abs(m.relative_gap) > 0.05
        assert any("infeasible" in r.message for r in caplog.records)

    def test_memoized_search_warns_and_returns_a_fresh_match_each_call(self, caplog):
        with caplog.at_level(logging.WARNING):
            first = matched_capacity(2, [1], 2)
            first.widths.append(7)
            second = matched_capacity(2, [1], 2)
        assert sum("infeasible" in r.message for r in caplog.records) == 2
        assert second is not first
        assert second.widths == [2]
