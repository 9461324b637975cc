import json

import numpy as np
import pytest

from conftest import curved, fd_gradient, identity_coeffs, make_net, rel_err
from oracle import dreg_penalty, forward_dual, forward_values, jacobian_stream
from polygrad import polynet
from polygrad.checkpoint import load_checkpoint, save_checkpoint
from polygrad.errors import ConfigError, MemoryBudgetError, NumericOverflowError, ShapeError
from polygrad.linalg import Rng, derive_seed
from polygrad.polynet import Layer, Net
from polygrad.tape import Tape
from polygrad.train import dropout_masks, eval_tape, predict_logits


def small_net(seed="polynet", d=4, widths=(5, 4), classes=3):
    rng = Rng(derive_seed(seed))
    return curved(Net.build(rng, d, list(widths), classes))


def cubic(coeffs):
    """A cubic layer with the (4, width) coefficient block ``coeffs``; only
    ``activate`` and ``slope`` are exercised, so the affine part is identity."""
    width = coeffs.shape[1]
    return Layer(np.eye(width), np.zeros(width), coeffs)


def slope_backward(coeffs, z):
    """phi''(z), read off the tape's slope adjoint.

    One cubic layer with identity weights and a zero head: the
    pre-activation is z, and lambda = batch / 2 makes the loss
    sum_b ||diag(phi'(z_b))||_F^2, whose input gradient is phi'(z) phi''(z).
    """
    batch, width = z.shape
    net = make_net([(np.eye(width), np.zeros(width), coeffs)], np.zeros((2, width)), np.zeros(2))
    dx = Tape(net, z, np.zeros(batch, int), lam=batch / 2).backward()
    return dx / cubic(coeffs).slope(z)


def tampered_checkpoint(tmp_path, net, **params):
    """``net`` saved, with each named stored array replaced by a zero array of the given shape."""
    path = tmp_path / "tampered.json"
    save_checkpoint(path, net)
    obj = json.loads(path.read_text())
    for name, shape in params.items():
        obj["params"][name.replace("_", ".")] = {
            "shape": list(shape), "data": ["0"] * int(np.prod(shape, dtype=int))}
    path.write_text(json.dumps(obj))
    return path


class TestActivationCoeffs:
    """Each cubic layer's coefficients are one (4, width) block, rows c0..c3."""

    def test_identity_is_exact(self):
        c = identity_coeffs(3)
        z = Rng(0).standard_normal(6, 3)
        np.testing.assert_array_equal(cubic(c).activate(z), z)

    def test_near_identity_structure(self):
        c = Net.build(Rng(1), 3, [8], 2).layers[0].coeffs
        np.testing.assert_array_equal(c[0], np.zeros(8))
        np.testing.assert_array_equal(c[1], np.ones(8))
        assert float(np.abs(c[2]).max()) < 0.1
        assert float(np.abs(c[3]).max()) < 0.1
        assert np.count_nonzero(c[2]) == np.count_nonzero(c[3]) == 8

    def test_near_identity_deterministic(self):
        a = Net.build(Rng(5), 3, [4], 2).layers[0].coeffs
        b = Net.build(Rng(5), 3, [4], 2).layers[0].coeffs
        np.testing.assert_array_equal(a, b)

    def test_mismatched_vectors_rejected(self, tmp_path):
        # The only way in for outside coefficients is a checkpoint; a row of
        # the wrong width is refused there, naming the row.
        path = tampered_checkpoint(tmp_path, small_net(), layer0_c1=(2,))
        with pytest.raises(ShapeError, match="layer0.c1"):
            load_checkpoint(path)

    def test_width_property(self):
        net = Net.build(Rng(0), 3, [6, 2], 2)
        assert [layer.coeffs.shape for layer in net.layers] == [(4, 6), (4, 2)]
        assert Net.build(Rng(0), 3, [6], 2, activation="relu").layers[0].coeffs is None


class TestPolyEvalAndDeriv:
    def test_frozen_cubic_value(self):
        c = np.array([[1.0], [2.0], [3.0], [4.0]])
        # 1 + 2*2 + 3*4 + 4*8 = 49
        assert cubic(c).activate(np.array([[2.0]]))[0, 0] == 49.0

    def test_frozen_first_derivative(self):
        c = np.array([[0.0], [1.0], [0.0], [1.0]])
        # d/dz (z + z^3) at z=2 is 1 + 3*4 = 13
        assert cubic(c).slope(np.array([[2.0]]))[0, 0] == 13.0

    def test_frozen_second_derivative(self):
        # d2/dz2 (5 z^2) = 10 everywhere
        assert slope_backward(np.array([[0.0], [0.0], [5.0], [0.0]]), np.array([[1.0]]))[0, 0] == 10.0

    def test_first_derivative_matches_finite_differences(self):
        rng = Rng(derive_seed("deriv-fd"))
        c = rng.standard_normal(4, 5)
        z = rng.standard_normal(3, 5)
        analytic = cubic(c).slope(z)
        step = 1e-6
        numeric = (cubic(c).activate(z + step) - cubic(c).activate(z - step)) / (2 * step)
        assert rel_err(analytic, numeric) < 1e-8

    def test_second_derivative_matches_finite_differences(self):
        rng = Rng(derive_seed("deriv2-fd"))
        c = rng.standard_normal(4, 4)
        z = rng.standard_normal(2, 4)
        analytic = slope_backward(c, z)
        step = 1e-5
        numeric = (cubic(c).slope(z + step) - cubic(c).slope(z - step)) / (2 * step)
        assert rel_err(analytic, numeric) < 1e-8

    @pytest.mark.parametrize("activation", ["poly", "relu"])
    def test_stacked_preactivations_match_per_slice(self, activation):
        # A (K, batch, width) stack of pre-activations is one call whose
        # every slice is bit for bit the call on that slice alone.
        layer = curved(Net.build(Rng(derive_seed("stacked")), 3, [6], 2, activation=activation)).layers[0]
        z = Rng(derive_seed("stacked-z")).standard_normal(3, 5, 6)
        z[0, 0, :2] = 0.0  # the ReLU kink
        for fn in (layer.activate, layer.slope):
            stacked = fn(z)
            assert stacked.shape == z.shape
            for k in range(z.shape[0]):
                assert stacked[k].tobytes() == fn(z[k]).tobytes()


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

    def test_layer_width_chain_validated(self, tmp_path):
        # Built from its widths, every net chains; a checkpoint whose second
        # layer does not take the first one's output is refused.
        net = small_net()
        assert [layer.weights.shape for layer in net.layers] == [(5, 4), (4, 5)]
        path = tampered_checkpoint(tmp_path, net, layer1_W=(4, 6))
        with pytest.raises(ShapeError, match="layer1.W"):
            load_checkpoint(path)

    def test_mixed_cubic_and_relu_layers_rejected(self, tmp_path):
        # One activation serves every layer, so a checkpoint that drops the
        # second layer's coefficients (or adds some to a ReLU net) is refused.
        path = tmp_path / "mixed.json"
        save_checkpoint(path, small_net())
        obj = json.loads(path.read_text())
        for k in range(4):
            del obj["params"][f"layer1.c{k}"]
        path.write_text(json.dumps(obj))
        with pytest.raises(ConfigError, match="layer1.c0"):
            load_checkpoint(path)
        save_checkpoint(path, Net.build(Rng(0), 4, [5, 4], 3, activation="relu"))
        obj = json.loads(path.read_text())
        obj["params"]["layer1.c0"] = {"shape": [4], "data": ["0"] * 4}
        path.write_text(json.dumps(obj))
        with pytest.raises(ConfigError, match="layer1.c0"):
            load_checkpoint(path)

    def test_activation_kind_follows_layers(self):
        rng = Rng(derive_seed("kind"))
        assert Net.build(rng, 3, [4], 2).activation_kind == "poly"
        relu = Net.build(rng, 3, [4], 2, activation="relu")
        assert relu.activation_kind == "relu"
        assert set(relu.parameters()) == {"layer0.W", "layer0.b", "head.W", "head.b"}
        with pytest.raises(ValueError, match="activation"):
            Net.build(rng, 3, [4], 2, activation="tanh")
        with pytest.raises(ValueError, match="activation"):
            Net("tanh", 3, [4], 2)

    def test_empty_network_rejected(self):
        for activation in ("poly", "relu"):
            with pytest.raises(ShapeError, match="at least one layer"):
                Net(activation, 2, [], 2)
            with pytest.raises(ShapeError, match="at least one layer"):
                Net.build(Rng(0), 2, [], 2, activation=activation)

    def test_build_rejects_bad_dims(self):
        # Every non-positive dimension is refused where the net is made,
        # through the constructor and through ``build`` alike.
        bad = [(3, [0], 2), (3, [4, 0], 2), (3, [-2], 2), (3, [4, -1], 2), (0, [3], 2), (-1, [3], 2), (3, [4], 0)]
        for activation in ("poly", "relu"):
            for input_dim, widths, classes in bad:
                with pytest.raises(ShapeError, match="input_dim, widths and num_classes"):
                    Net(activation, input_dim, widths, classes)
                with pytest.raises(ShapeError, match="input_dim, widths and num_classes"):
                    Net.build(Rng(0), input_dim, widths, classes, activation=activation)

    def test_build_weight_std_is_inverse_sqrt_fan_in(self):
        net = Net.build(Rng(2), 400, [200], 200, activation="relu")
        for W in (net.layers[0].weights, net.head_weights):
            fan_in = W.shape[1]
            assert abs(float(W.std()) * np.sqrt(fan_in) - 1.0) < 0.05

    def test_input_shape_validated(self):
        net = small_net()
        with pytest.raises(ShapeError):
            predict_logits(net, np.zeros((2, 7)))
        with pytest.raises(ShapeError):
            predict_logits(net, np.zeros(4))
        with pytest.raises(ShapeError):
            eval_tape(net, np.zeros((2, 7)), np.zeros(2, dtype=int))


class TestForwardValues:
    """``polynet.forward_values``, the one value loop, and the checks
    ``predict_logits`` and ``eval_tape`` run around it."""

    def test_matches_manual_layer_recomputation(self):
        net = small_net()
        x = Rng(derive_seed("fv-x")).standard_normal(6, 4)
        logits, records, h_out = polynet.forward_values(net, x)
        h = x
        for i, layer in enumerate(net.layers):
            z = h @ layer.weights.T + layer.bias
            c0, c1, c2, c3 = layer.coeffs
            h_in, h = h, c0 + z * (c1 + z * (c2 + z * c3))
            rec_h, rec_z, rec_slope = records[i]
            np.testing.assert_array_equal(rec_h, h_in)
            np.testing.assert_array_equal(rec_z, z)
            np.testing.assert_array_equal(rec_slope, c1 + z * (2.0 * c2 + 3.0 * c3 * z))
        np.testing.assert_array_equal(h_out, h)
        np.testing.assert_array_equal(logits, h @ net.head_weights.T + net.head_bias)
        np.testing.assert_array_equal(predict_logits(net, x), logits)
        np.testing.assert_array_equal(eval_tape(net, x, np.zeros(6, dtype=int)).logits, logits)

    def test_value_cache_has_no_jacobians(self):
        net = small_net()
        _, records, h_out = polynet.forward_values(net, np.zeros((2, 4)))
        assert [[a.shape for a in record] for record in records] == [[(2, 4), (2, 5), (2, 5)], [(2, 5), (2, 4), (2, 4)]]
        assert h_out.shape == (2, 4)

    def test_overflow_names_layer(self):
        net = make_net([(np.array([[1e200]]), np.zeros(1), identity_coeffs(1))], np.ones((2, 1)), np.zeros(2))
        relu = make_net([(np.array([[1e200]]), np.zeros(1), None)], np.ones((2, 1)), np.zeros(2))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericOverflowError, match="layer 0"):
                predict_logits(net, np.array([[1e200]]))
            with pytest.raises(NumericOverflowError, match="layer 0"):
                predict_logits(relu, np.array([[1e200]]))
            with pytest.raises(NumericOverflowError, match="layer 0"):
                eval_tape(net, np.array([[1e200]]), np.zeros(1, dtype=int))

    @pytest.mark.parametrize("activation, scale, where", [
        ("poly", (1e200, 1.0), "layer 1"), ("relu", (1e200, 1.0), "layer 1"), ("poly", (1.0, 1e200), "head"),
    ])
    def test_overflow_past_a_finite_layer_names_its_place(self, activation, scale, where):
        # Layer 0 maps x = 1 to 1e200, finite; layer 1's weight, then the
        # head's, scales that by ``scale``.
        coeffs = identity_coeffs(1) if activation == "poly" else None
        layers = [(np.array([[1e200]]), np.zeros(1), coeffs), (np.array([[scale[0]]]), np.zeros(1), coeffs)]
        net = make_net(layers, np.full((2, 1), scale[1]), np.zeros(2))
        with np.errstate(over="ignore", invalid="ignore"):
            _, records, _ = polynet.forward_values(net, np.ones((2, 1)))
        assert np.all(np.isfinite(records[1][0]))  # layer 0's output
        with pytest.raises(NumericOverflowError, match=f"^non-finite values in {where}$"):
            predict_logits(net, np.ones((2, 1)))
        with pytest.raises(NumericOverflowError, match=f"^non-finite values in {where}$"):
            eval_tape(net, np.ones((2, 1)), np.zeros(2, dtype=int))


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
        net = make_net([(np.eye(3), np.zeros(3), identity_coeffs(3))], np.eye(3), np.zeros(3))
        x = Rng(0).standard_normal(4, 3)
        _, blocks = forward_dual(net, x)
        for b in range(4):
            np.testing.assert_array_equal(blocks[0][b], np.eye(3))
            np.testing.assert_array_equal(blocks[-1][b], np.eye(3))

    def test_single_neuron_closed_form(self):
        # phi(z) = z^3 on z = 2x gives h = 8x^3 and dh/dx = 24x^2.
        cube = np.array([[0.0], [0.0], [0.0], [1.0]])
        net = make_net([(np.array([[2.0]]), np.zeros(1), cube)], np.array([[1.0]]), np.zeros(1))
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
        net = make_net([(np.eye(3), np.zeros(3), identity_coeffs(3))], np.eye(3), np.zeros(3))
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
    tape = Tape(net, x, np.zeros(x.shape[0], int), masks, lam=1.0)
    return tape.logits, [node[1] for node in tape.nodes], [node[4] for node in tape.nodes]


class TestOneForwardPath:
    """The tape-free forward, the dual forward and the tape record agree bitwise."""

    @pytest.mark.parametrize("case", ["cubic", "relu", "relu-dropout"])
    def test_streams_bitwise_equal(self, case):
        rng = Rng(derive_seed("one-forward", case))
        activation = "poly" if case == "cubic" else "relu"
        rate = 0.3 if case == "relu-dropout" else 0.0
        net = curved(Net.build(rng.spawn("net"), 4, [6, 5], 3, activation=activation, dropout_rate=rate))
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
