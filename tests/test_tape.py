"""``Tape.backward`` against central differences.

``test_gradients_match_finite_differences`` covers every parameter class
and the input gradient for cubic and ReLU nets, with and without the
penalty and dropout masks. The oracle is the tape-free
``oracle.objective_value`` without masks, and ``Tape.loss`` under fixed masks
(the masks make the objective a different function of the parameters).
The tests in ``TestPrimitiveVjps`` each pin one piece of the adjoint in
the configuration that exercises it. ``TestBlockContraction`` holds the
backward's row-major W-contraction to the plain einsum it replaces, bit
for bit.
"""

import itertools

import numpy as np
import pytest

import polygrad.tape

from conftest import curved, fd_gradient, rel_err
from oracle import cross_entropy, dreg_penalty, forward_values, measure_penalty, objective_value
from polygrad.linalg import Rng, derive_seed
from polygrad.polynet import Net
from polygrad.tape import Tape, _contract_w
from polygrad.train import TrainConfig, dropout_masks, loss_and_grads

TOL = 1e-6
STEP = 1e-6  # the cubic's third-order terms put a 1e-5 step's truncation error near TOL


def probe(activation="poly", masked=False, widths=(5, 4), batch=5, seed="probe", input_dim=4):
    """A small net, a batch, labels and (when ``masked``) fixed dropout masks."""
    rng = Rng(derive_seed("tape", activation, seed))
    net = curved(Net.build(rng.spawn("net"), input_dim, list(widths), 3, activation=activation,
                           dropout_rate=0.3 if masked else 0.0))
    for i, layer in enumerate(net.layers):  # nonzero biases keep ReLU rows off the kink
        layer.bias[:] = 0.1 * rng.spawn("b", i).standard_normal(layer.bias.size)
    x = rng.spawn("x").standard_normal(batch, input_dim)
    y = np.arange(batch) % 3
    masks = dropout_masks(net, batch, rng.spawn("masks")) if masked else None
    if activation == "relu":
        margin = min(float(np.abs(z).min()) for z in forward_values(net, x)[1])
        assert margin > 1e-3, "probe batch sits too close to a ReLU kink"
    return net, x, y, masks


def tape_grads(net, x, y, masks=None, lam=0.0, reduction="mean"):
    """Parameter gradients (views into one flat vector) and the input gradient."""
    flat = np.zeros(net.arena.size)
    dx = Tape(net, x, y, masks, lam, reduction).backward(net.layer_views(flat))
    return net.arena.views(flat), dx


def fd_check(net, x, y, masks=None, lam=0.0, names=None, reduction="mean", check_x=True):
    """Tape gradients of ``names`` (default: every parameter) and, with
    ``check_x``, of the input, against central differences."""
    cfg = TrainConfig(lambda_dreg=lam)
    if reduction == "sum":
        oracle = lambda: x.shape[0] * cross_entropy(forward_values(net, x)[0], y)
    elif masks is None:
        oracle = lambda: objective_value(net, x, y, cfg)
    else:
        oracle = lambda: float(Tape(net, x, y, masks, lam).loss)
    grads, dx = tape_grads(net, x, y, masks, lam, reduction)
    params = net.parameters()
    for name in names if names is not None else params:
        assert rel_err(grads[name], fd_gradient(oracle, params[name], STEP)) < TOL, name
    if check_x:
        assert rel_err(dx, fd_gradient(oracle, x, STEP)) < TOL, "input"


@pytest.mark.parametrize("masked", [False, True], ids=["nomask", "mask"])
@pytest.mark.parametrize("lam", [0.0, 0.5], ids=["lam0", "lam0.5"])
@pytest.mark.parametrize("activation", ["poly", "relu"])
def test_gradients_match_finite_differences(activation, lam, masked):
    net, x, y, masks = probe(activation, masked)
    fd_check(net, x, y, masks, lam)


class TestPrimitiveVjps:
    def test_linear(self):
        net, x, y, _ = probe()
        fd_check(net, x, y, names=["layer0.W", "layer0.b", "layer1.W", "layer1.b", "head.W", "head.b"])

    def test_poly_val(self):
        net, x, y, _ = probe()
        fd_check(net, x, y, names=[f"layer{i}.c{k}" for i in range(2) for k in range(4)], check_x=False)

    def test_poly_slope_carries_second_derivative(self):
        # The penalty reaches biases and inputs only through phi''(z).
        net, x, y, _ = probe()
        fd_check(net, x, y, lam=0.5, names=["layer0.b", "layer1.b", "layer0.c1", "layer1.c3"])

    def test_relu(self):
        net, x, y, _ = probe("relu")
        fd_check(net, x, y)

    def test_relu_slope_blocks_gradient_to_preactivation(self):
        # 1[z > 0] is piecewise constant: the penalty moves the weights
        # but no bias and no input gradient, bit for bit.
        net, x, y, _ = probe("relu")
        plain, plain_dx = tape_grads(net, x, y)
        pen, pen_dx = tape_grads(net, x, y, lam=0.5)
        for name in ("layer0.b", "layer1.b", "head.W", "head.b"):
            np.testing.assert_array_equal(pen[name], plain[name])
        np.testing.assert_array_equal(pen_dx, plain_dx)
        assert float(np.abs(pen["layer0.W"] - plain["layer0.W"]).max()) > 0

    def test_mask(self):
        net, x, y, masks = probe("relu", masked=True)
        fd_check(net, x, y, masks)

    def test_jac_seed(self):
        net, x, y, _ = probe(widths=(6,))
        fd_check(net, x, y, lam=0.5)

    def test_jac_chain(self):
        net, x, y, _ = probe(widths=(5, 6, 4))
        fd_check(net, x, y, lam=0.5, names=["layer0.W", "layer1.W", "layer2.W", "layer1.c2"])

    def test_jac_head(self):
        # The penalty covers the hidden layers only: the head's gradients
        # are the task loss's, bit for bit.
        net, x, y, _ = probe()
        with_pen, _ = tape_grads(net, x, y, lam=0.5)
        plain, _ = tape_grads(net, x, y)
        for name in ("head.W", "head.b"):
            assert with_pen[name].tobytes() == plain[name].tobytes(), name
        fd_check(net, x, y, lam=0.5, names=["head.W", "layer1.W", "layer1.b", "layer0.c3"])

    def test_jac_mask(self):
        net, x, y, masks = probe(masked=True)
        fd_check(net, x, y, masks, lam=0.5)

    def test_frob_mean(self):
        # The penalty alone: its value and its gradient, the difference
        # of the lambda = 1 and lambda = 0 gradients.
        net, x, y, _ = probe()
        tape = Tape(net, x, y, lam=1.0)
        assert abs(float(tape.penalty) - measure_penalty(net, x)) < 1e-12
        with_pen, with_dx = tape_grads(net, x, y, lam=1.0)
        plain, plain_dx = tape_grads(net, x, y)
        penalty = lambda: measure_penalty(net, x)
        for name in ("layer0.W", "layer1.b", "layer1.c2"):
            numeric = fd_gradient(penalty, net.parameters()[name], STEP)
            assert rel_err(with_pen[name] - plain[name], numeric) < TOL, name
        assert rel_err(with_dx - plain_dx, fd_gradient(penalty, x, STEP)) < TOL

    def test_softmax_cross_entropy_mean(self):
        net, x, y, _ = probe()
        fd_check(net, x, y, names=["head.W", "head.b"])

    def test_softmax_cross_entropy_sum(self):
        net, x, y, _ = probe("relu")
        fd_check(net, x, y, reduction="sum")

    def test_mean_scalars_and_add_scaled(self):
        # loss = task + lambda * mean over the L hidden-layer blocks.
        net, x, y, _ = probe()
        cfg = TrainConfig(lambda_dreg=0.7)
        tape = Tape(net, x, y, lam=0.7)
        blocks = tape.blocks
        assert len(blocks) == len(net.layers)
        assert abs(float(tape.penalty) - dreg_penalty(blocks)) < 1e-12
        assert abs(float(tape.loss) - objective_value(net, x, y, cfg)) < 1e-12
        fd_check(net, x, y, lam=0.7, names=["layer0.W", "layer0.c2", "head.W"])

    def test_gradient_accumulation_over_shared_leaf(self):
        # Weights, pre-activations, cubic coefficients and blocks each get
        # two contributions when the penalty is on.
        net, x, y, _ = probe(widths=(4, 4))
        names = [f"layer{i}.{p}" for i in range(2) for p in ("W", "b", "c1", "c2", "c3")]
        fd_check(net, x, y, lam=0.5, names=names)


class TestTapeMechanics:
    def test_softmax_ce_value_matches_plain_cross_entropy(self):
        net, x, y, _ = probe()
        tape = Tape(net, x, y)
        logits, _ = forward_values(net, x)
        assert abs(float(tape.task) - cross_entropy(logits, y)) < 1e-12
        np.testing.assert_array_equal(tape.logits, logits)

    @pytest.mark.parametrize("masked", [False, True], ids=["nomask", "mask"])
    @pytest.mark.parametrize("activation", ["poly", "relu"])
    def test_zero_lam_records_no_stream(self, activation, masked):
        net, x, y, masks = probe(activation, masked)
        tape = Tape(net, x, y, masks)
        assert [len(node) for node in tape.nodes] == [2] * len(net.layers)  # (h_in, z) only
        assert not hasattr(tape, "blocks") and not hasattr(tape, "products")
        assert tape.penalty is None
        assert tape.loss.tobytes() == tape.task.tobytes()

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    @pytest.mark.parametrize("masked", [False, True], ids=["nomask", "mask"])
    @pytest.mark.parametrize("activation", ["poly", "relu"])
    def test_loss_weighs_penalty_by_lam(self, activation, masked, lam):
        net, x, y, masks = probe(activation, masked)
        tape = Tape(net, x, y, masks, lam)
        assert tape.penalty is not None
        assert tape.loss.tobytes() == np.float64(tape.task + lam * tape.penalty).tobytes()

    def test_unknown_reduction_rejected(self):
        net, x, y, _ = probe()
        with pytest.raises(ValueError, match="reduction"):
            Tape(net, x, y, reduction="max")

    def test_grad_out_receives_gradients_in_place(self):
        cfg = TrainConfig(lambda_dreg=0.5)
        for activation, masked in (("poly", False), ("relu", False), ("relu", True)):
            net, x, y, _ = probe(activation, masked)
            # loss_and_grads draws the same masks from an equal generator.
            masks = dropout_masks(net, x.shape[0], Rng(5).spawn("d")) if masked else None
            flat = np.full(net.arena.size, 7.0)  # stale contents must not leak into the result
            Tape(net, x, y, masks, lam=0.5).backward(net.layer_views(flat))
            want = loss_and_grads(net, x, y, cfg, Rng(5).spawn("d") if masked else None).grad
            np.testing.assert_array_equal(flat, want, err_msg=f"{activation} masked={masked}")

    def test_backward_clears_stale_gradients(self):
        net, x, y, masks = probe(masked=True)
        tape = Tape(net, x, y, masks, lam=0.5)
        flat = np.zeros(net.arena.size)
        first_dx = tape.backward(net.layer_views(flat))
        first = flat.copy()
        second_dx = tape.backward(net.layer_views(flat))  # overwrites, never accumulates
        np.testing.assert_array_equal(flat, first)
        np.testing.assert_array_equal(second_dx, first_dx)


def awkward_entries(rng, shape):
    """Normal draws with about half replaced by +0, -0, subnormals, or
    magnitudes near 1e300 and 1e-300."""
    x = rng.standard_normal(shape)
    pick = rng.integers(0, 10, shape)
    for code, value in enumerate((0.0, -0.0, x * 1e-310, x * 1e300, x * 1e-300)):
        x = np.where(pick == code, value, x)
    return x


def einsum_contraction(W, dt):
    """The backward's block contraction as it was first written."""
    return np.einsum("wk,bwd->bkd", W, dt)


class TestBlockContraction:
    def test_matches_einsum_bit_for_bit(self):
        # Every shape, k * d == 1 included, where the einsum takes its dot kernel.
        rng = np.random.default_rng(24)
        differ = []
        for batch, w, k, d in itertools.product((1, 2, 5, 31, 32, 154), (1, 2, 3, 8, 19), (1, 2, 3, 8, 19),
                                                (1, 2, 3, 8, 13)):
            for make in (rng.standard_normal, lambda shape: awkward_entries(rng, shape)):
                W, dt = make((w, k)), make((batch, w, d))
                if _contract_w(W, dt).tobytes() != einsum_contraction(W, dt).tobytes():
                    differ.append((batch, w, k, d))
        assert differ == []

    @pytest.mark.parametrize("batch", [1, 5, 31])
    @pytest.mark.parametrize("input_dim", [1, 8])
    @pytest.mark.parametrize("activation", ["poly", "relu"])
    def test_backward_matches_einsum_backward(self, activation, input_dim, batch, monkeypatch):
        # Widths [3, 1, 4]: layer 2 contracts a k = 1 block, so at input_dim 1
        # the k * d == 1 shape runs inside a real backward.
        net, x, y, masks = probe(activation, masked=True, widths=(3, 1, 4), batch=batch, input_dim=input_dim)
        got, got_dx = tape_grads(net, x, y, masks, lam=0.5)
        monkeypatch.setattr(polygrad.tape, "_contract_w", einsum_contraction)
        want, want_dx = tape_grads(net, x, y, masks, lam=0.5)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
        assert got_dx.tobytes() == want_dx.tobytes()
