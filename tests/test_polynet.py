import numpy as np
import pytest

from conftest import fd_gradient, rel_err
from polygrad.errors import MemoryBudgetError, NumericOverflowError, ShapeError
from polygrad.linalg import Rng, derive_seed
from polygrad.polynet import (
    ActivationCoeffs,
    Layer,
    Net,
    dreg_penalty,
    forward_dual,
    forward_values,
    jacobian_stream,
    poly_deriv,
    poly_eval,
)
from polygrad.tape import Tape
from polygrad.train import dropout_masks


def small_net(seed="polynet", d=4, widths=(5, 4), classes=3):
    rng = Rng(derive_seed(seed))
    return Net.build(rng, d, list(widths), classes, coeff_noise=0.05)


def slope_backward(coeffs, z):
    """phi''(z), read off the tape's slope adjoint.

    One cubic layer with identity weights and a zero head: the
    pre-activation is z, and lambda = batch / 2 makes the loss
    sum_b ||diag(phi'(z_b))||_F^2, whose input gradient is phi'(z) phi''(z).
    """
    batch, width = z.shape
    net = Net([Layer(np.eye(width), np.zeros(width), coeffs)], np.zeros((2, width)), np.zeros(2))
    dx = Tape(net, z, np.zeros(batch, int), need_dual=True).backward(batch / 2)
    return dx / poly_deriv(coeffs, z)


class TestActivationCoeffs:
    def test_identity_is_exact(self):
        c = ActivationCoeffs.identity(3)
        z = Rng(0).standard_normal(6, 3)
        np.testing.assert_array_equal(poly_eval(c, z), z)

    def test_near_identity_structure(self):
        c = ActivationCoeffs.near_identity(Rng(1), 8, noise_std=0.01)
        np.testing.assert_array_equal(c.c0, np.zeros(8))
        np.testing.assert_array_equal(c.c1, np.ones(8))
        assert float(np.abs(c.c2).max()) < 0.1
        assert float(np.abs(c.c3).max()) < 0.1

    def test_near_identity_deterministic(self):
        a = ActivationCoeffs.near_identity(Rng(5), 4)
        b = ActivationCoeffs.near_identity(Rng(5), 4)
        np.testing.assert_array_equal(a.c2, b.c2)

    def test_mismatched_vectors_rejected(self):
        with pytest.raises(ShapeError):
            ActivationCoeffs(np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3))

    def test_width_property(self):
        assert ActivationCoeffs.identity(6).width == 6


class TestPolyEvalAndDeriv:
    def test_frozen_cubic_value(self):
        c = ActivationCoeffs([1.0], [2.0], [3.0], [4.0])
        # 1 + 2*2 + 3*4 + 4*8 = 49
        assert poly_eval(c, np.array([[2.0]]))[0, 0] == 49.0

    def test_frozen_first_derivative(self):
        c = ActivationCoeffs([0.0], [1.0], [0.0], [1.0])
        # d/dz (z + z^3) at z=2 is 1 + 3*4 = 13
        assert poly_deriv(c, np.array([[2.0]]))[0, 0] == 13.0

    def test_frozen_second_derivative(self):
        # d2/dz2 (5 z^2) = 10 everywhere
        assert slope_backward(ActivationCoeffs([0.0], [0.0], [5.0], [0.0]), np.array([[1.0]]))[0, 0] == 10.0

    def test_first_derivative_matches_finite_differences(self):
        rng = Rng(derive_seed("deriv-fd"))
        c = ActivationCoeffs(*(rng.standard_normal(5) for _ in range(4)))
        z = rng.standard_normal(3, 5)
        analytic = poly_deriv(c, z)
        step = 1e-6
        numeric = (poly_eval(c, z + step) - poly_eval(c, z - step)) / (2 * step)
        assert rel_err(analytic, numeric) < 1e-8

    def test_second_derivative_matches_finite_differences(self):
        rng = Rng(derive_seed("deriv2-fd"))
        c = ActivationCoeffs(*(rng.standard_normal(4) for _ in range(4)))
        z = rng.standard_normal(2, 4)
        analytic = slope_backward(c, z)
        step = 1e-5
        numeric = (poly_deriv(c, z + step) - poly_deriv(c, z - step)) / (2 * step)
        assert rel_err(analytic, numeric) < 1e-8

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            poly_eval(ActivationCoeffs.identity(3), np.zeros((2, 4)))


class TestNetworkConstruction:
    def test_build_shapes_and_param_registry(self):
        net = small_net()
        assert net.input_dim == 4
        assert net.widths == [5, 4]
        assert net.num_classes == 3
        keys = set(net.parameters())
        expected = {f"layer{i}.{s}" for i in range(2) for s in ("W", "b", "c0", "c1", "c2", "c3")}
        expected |= {"head.W", "head.b"}
        assert keys == expected

    def test_build_deterministic(self):
        a, b = small_net(), small_net()
        for k, arr in a.parameters().items():
            np.testing.assert_array_equal(arr, b.parameters()[k])

    def test_count_parameters(self):
        net = small_net()
        # per layer: W + b + four coefficient vectors; head: W + b
        expected = (5 * 4 + 5 + 4 * 5) + (4 * 5 + 4 + 4 * 4) + (3 * 4 + 3)
        assert net.arena.size == expected

    def test_layer_width_chain_validated(self):
        l0 = Layer(np.zeros((3, 2)), np.zeros(3), ActivationCoeffs.identity(3))
        l1 = Layer(np.zeros((2, 4)), np.zeros(2), ActivationCoeffs.identity(2))
        with pytest.raises(ShapeError):
            Net([l0, l1], np.zeros((2, 2)), np.zeros(2))

    def test_mixed_cubic_and_relu_layers_rejected(self):
        l0 = Layer(np.zeros((3, 2)), np.zeros(3), ActivationCoeffs.identity(3))
        l1 = Layer(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ShapeError, match="mix"):
            Net([l0, l1], np.zeros((2, 2)), np.zeros(2))
        relu_first = [Layer(np.zeros((3, 2)), np.zeros(3)),
                      Layer(np.zeros((2, 3)), np.zeros(2), ActivationCoeffs.identity(2))]
        with pytest.raises(ShapeError, match="mix"):
            Net(relu_first, np.zeros((2, 2)), np.zeros(2))

    def test_activation_kind_follows_layers(self):
        rng = Rng(derive_seed("kind"))
        assert Net.build(rng, 3, [4], 2).activation_kind == "poly"
        relu = Net.build(rng, 3, [4], 2, activation="relu")
        assert relu.activation_kind == "relu"
        assert set(relu.parameters()) == {"layer0.W", "layer0.b", "head.W", "head.b"}
        with pytest.raises(ValueError, match="activation"):
            Net.build(rng, 3, [4], 2, activation="tanh")

    def test_empty_network_rejected(self):
        with pytest.raises(ShapeError):
            Net([], np.zeros((2, 2)), np.zeros(2))

    def test_input_shape_validated(self):
        net = small_net()
        with pytest.raises(ShapeError):
            forward_values(net, np.zeros((2, 7)))
        with pytest.raises(ShapeError):
            forward_values(net, np.zeros(4))


class TestForwardValues:
    def test_matches_manual_layer_recomputation(self):
        net = small_net()
        x = Rng(derive_seed("fv-x")).standard_normal(6, 4)
        logits, preacts = forward_values(net, x)
        h = x
        for i, layer in enumerate(net.layers):
            z = h @ layer.weights.T + layer.bias
            h = poly_eval(layer.coeffs, z)
            np.testing.assert_array_equal(preacts[i], z)
        np.testing.assert_array_equal(logits, h @ net.head_weights.T + net.head_bias)

    def test_value_cache_has_no_jacobians(self):
        net = small_net()
        _, preacts = forward_values(net, np.zeros((2, 4)))
        assert [z.shape for z in preacts] == [(2, 5), (2, 4)]

    def test_overflow_names_layer(self):
        layer = Layer(np.array([[1e200]]), np.zeros(1), ActivationCoeffs.identity(1))
        net = Net([layer], np.ones((2, 1)), np.zeros(2))
        relu = Net([Layer(np.array([[1e200]]), np.zeros(1))], np.ones((2, 1)), np.zeros(2))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericOverflowError, match="layer 0"):
                forward_values(net, np.array([[1e200]]))
            with pytest.raises(NumericOverflowError, match="layer 0"):
                forward_values(relu, np.array([[1e200]]))


class TestForwardDual:
    def test_logits_agree_with_value_stream(self):
        net = small_net()
        x = Rng(derive_seed("fd-x")).standard_normal(5, 4)
        lv, _ = forward_values(net, x)
        ld, _ = forward_dual(net, x)
        np.testing.assert_array_equal(lv, ld)

    def test_jacobian_block_shapes(self):
        net = small_net()
        x = np.zeros((3, 4))
        _, blocks = forward_dual(net, x)
        assert [J.shape for J in blocks] == [(3, 5, 4), (3, 4, 4), (3, 3, 4)]

    def test_identity_network_jacobian_is_identity(self):
        layer = Layer(np.eye(3), np.zeros(3), ActivationCoeffs.identity(3))
        net = Net([layer], np.eye(3), np.zeros(3))
        x = Rng(0).standard_normal(4, 3)
        _, blocks = forward_dual(net, x)
        for b in range(4):
            np.testing.assert_array_equal(blocks[0][b], np.eye(3))
            np.testing.assert_array_equal(blocks[-1][b], np.eye(3))

    def test_single_neuron_closed_form(self):
        # phi(z) = z^3 on z = 2x gives h = 8x^3 and dh/dx = 24x^2.
        layer = Layer(np.array([[2.0]]), np.zeros(1), ActivationCoeffs([0.0], [0.0], [0.0], [1.0]))
        net = Net([layer], np.array([[1.0]]), np.zeros(1))
        x = np.array([[0.5]])
        logits, blocks = forward_dual(net, x)
        assert logits[0, 0] == 1.0
        assert blocks[0][0, 0, 0] == 24.0 * 0.25

    def test_layer_jacobians_match_finite_differences(self):
        net = small_net("dual-fd")
        x = Rng(derive_seed("dual-fd-x")).standard_normal(3, 4)
        _, blocks = forward_dual(net, x)
        step = 1e-5
        for li, layer in enumerate(net.layers):
            for b in range(3):
                for j in range(4):
                    xp = x.copy()
                    xp[b, j] += step
                    xm = x.copy()
                    xm[b, j] -= step
                    _, zp = forward_values(net, xp)
                    _, zm = forward_values(net, xm)
                    numeric = (layer.activate(zp[li])[b] - layer.activate(zm[li])[b]) / (2 * step)
                    assert rel_err(blocks[li][b, :, j], numeric) < 1e-6

    def test_head_jacobian_matches_finite_differences(self):
        net = small_net("head-fd")
        x = Rng(derive_seed("head-fd-x")).standard_normal(2, 4)
        _, blocks = forward_dual(net, x)
        step = 1e-5
        for b in range(2):
            for j in range(4):
                xp = x.copy()
                xp[b, j] += step
                xm = x.copy()
                xm[b, j] -= step
                lp, _ = forward_values(net, xp)
                lm, _ = forward_values(net, xm)
                assert rel_err(blocks[-1][b, :, j], (lp[b] - lm[b]) / (2 * step)) < 1e-6

    def test_memory_budget_enforced(self):
        # 2100 rows x 8 inputs x (4096 + 2) block rows of doubles are 551 MB,
        # over the 512 MiB cap, so the check fires before any block is built.
        rng = Rng(derive_seed("cap"))
        cubic = Net.build(rng.spawn("cubic"), 8, [4096], 2)
        relu = Net.build(rng.spawn("relu"), 8, [4096], 2, activation="relu")
        for net in (cubic, relu):
            with pytest.raises(MemoryBudgetError, match="bytes"):
                forward_dual(net, np.zeros((2100, 8)))

    def test_memory_budget_default_allows_small_batches(self):
        net = small_net()
        forward_dual(net, np.zeros((8, 4)))  # should not raise


class TestDregPenalty:
    def test_matches_manual_frobenius_mean(self):
        net = small_net("pen")
        x = Rng(derive_seed("pen-x")).standard_normal(6, 4)
        _, blocks = forward_dual(net, x)
        manual = np.mean([np.sum(J * J) / 6 for J in blocks[:-1]])
        assert abs(dreg_penalty(blocks[:-1]) - manual) < 1e-12

    def test_identity_network_penalty_equals_dim(self):
        layer = Layer(np.eye(3), np.zeros(3), ActivationCoeffs.identity(3))
        net = Net([layer], np.eye(3), np.zeros(3))
        _, blocks = forward_dual(net, np.zeros((5, 3)))
        # ||I_3||_F^2 = 3 for every sample and the single layer
        assert dreg_penalty(blocks[:-1]) == 3.0

    def test_layer_subset(self):
        net = small_net("pen-sub")
        _, blocks = forward_dual(net, Rng(0).standard_normal(4, 4))
        only_last = dreg_penalty(blocks[1:2])
        manual = float(np.sum(blocks[1] ** 2)) / 4
        assert abs(only_last - manual) < 1e-12

    def test_include_head_adds_block(self):
        net = small_net("pen-head")
        _, blocks = forward_dual(net, Rng(1).standard_normal(4, 4))
        assert len(blocks) == len(net.layers) + 1
        manual = np.mean([np.sum(J * J) / 4 for J in blocks])
        assert abs(dreg_penalty(blocks) - manual) < 1e-12


def record(net, x, masks=None):
    tape = Tape(net, x, np.zeros(x.shape[0], int), masks, need_dual=True)
    return tape.logits, [node[1] for node in tape.nodes], tape.blocks


class TestOneForwardPath:
    """The tape-free forward, the dual forward and the tape record agree bitwise."""

    @pytest.mark.parametrize("case", ["cubic", "relu", "relu-dropout"])
    def test_streams_bitwise_equal(self, case):
        rng = Rng(derive_seed("one-forward", case))
        activation = "poly" if case == "cubic" else "relu"
        rate = 0.3 if case == "relu-dropout" else 0.0
        net = Net.build(rng.spawn("net"), 4, [6, 5], 3, activation=activation, dropout_rate=rate,
                        coeff_noise=0.05)
        x = rng.spawn("x").standard_normal(7, 4)
        # Unit masks put the mask and Jacobian-mask nodes on the tape; they
        # must not change a bit of either stream.
        masks = [np.ones((7, w)) for w in net.widths] if rate else None
        logits, preacts, S_nodes = record(net, x, masks)
        values, value_preacts = forward_values(net, x)
        dual_logits, dual_blocks = forward_dual(net, x)
        blocks = jacobian_stream(net, [layer.slope(z) for layer, z in zip(net.layers, value_preacts)])
        assert values.tobytes() == dual_logits.tobytes() == logits.tobytes()
        assert len(preacts) == len(S_nodes) == len(net.layers)
        for i in range(len(net.layers)):
            assert value_preacts[i].tobytes() == preacts[i].tobytes()
            assert blocks[i].tobytes() == dual_blocks[i].tobytes() == S_nodes[i].tobytes()

    def test_masked_record_matches_masked_layer_recomputation(self):
        rng = Rng(derive_seed("one-forward-masked"))
        net = Net.build(rng.spawn("net"), 4, [6, 5], 3, activation="relu", dropout_rate=0.3)
        x = rng.spawn("x").standard_normal(7, 4)
        masks = dropout_masks(net, 7, rng.spawn("masks"))
        logits, preacts, S_nodes = record(net, x, masks)
        h, S = x, None
        for i, layer in enumerate(net.layers):
            z = h @ layer.weights.T + layer.bias
            assert z.tobytes() == preacts[i].tobytes()
            h = layer.activate(z) * masks[i]
            slope = layer.slope(z)[:, :, None]
            S = slope * layer.weights[None, :, :] if S is None else slope * (layer.weights @ S)
            S = S * masks[i][:, :, None]
            assert S.tobytes() == S_nodes[i].tobytes()
        assert (h @ net.head_weights.T + net.head_bias).tobytes() == logits.tobytes()
