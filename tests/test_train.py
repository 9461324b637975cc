import copy
import pickle

import numpy as np
import pytest

from conftest import fd_gradient, make_net, rel_err
from polygrad import polynet
from polygrad.arena import ParamArena
from polygrad.checkpoint import checkpoint_bytes
from polygrad.data import make_blobs, stratified_split
from polygrad.errors import MemoryBudgetError, NumericOverflowError
from polygrad.linalg import Rng, derive_seed
from polygrad.polynet import Net, dreg_penalty, forward_dual, forward_values
from polygrad.tape import Tape
from polygrad.train import (
    AdamState,
    TrainConfig,
    accuracy,
    cross_entropy,
    dropout_masks,
    evaluate_accuracy,
    loss_and_grads,
    measure_penalty,
    objective_value,
    step_adam,
    train,
)


def poly_net(seed="train-poly", d=3, widths=(4,), classes=2):
    return Net.build(Rng(derive_seed(seed)), d, list(widths), classes, coeff_noise=0.05)


def batch(seed, n, d, classes):
    rng = Rng(derive_seed(seed))
    x = rng.spawn("x").standard_normal(n, d)
    y = np.asarray(rng.spawn("y").integers(0, classes, size=n))
    return x, y


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda_dreg": -0.1},
            {"learning_rate": 0.0},
            {"batch_size": 0},
            {"epochs": 0},
            {"learning_rate": float("nan")},
            {"weight_decay": -1e-4},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestObjective:
    def test_loss_decomposes_exactly(self):
        net = poly_net()
        x, y = batch("dec", 6, 3, 2)
        bundle = loss_and_grads(net, x, y, TrainConfig(lambda_dreg=0.7))
        assert abs(bundle.loss - (bundle.task_loss + 0.7 * bundle.penalty)) < 1e-12

    def test_tape_loss_equals_tape_free_objective(self):
        net = poly_net()
        x, y = batch("objv", 5, 3, 2)
        cfg = TrainConfig(lambda_dreg=0.25)
        bundle = loss_and_grads(net, x, y, cfg)
        assert abs(bundle.loss - objective_value(net, x, y, cfg)) < 1e-12

    def test_zero_lambda_loss_is_pure_task_with_penalty_still_reported(self):
        net = poly_net()
        x, y = batch("lam0", 5, 3, 2)
        bundle = loss_and_grads(net, x, y, TrainConfig(lambda_dreg=0.0))
        assert bundle.loss == bundle.task_loss
        assert bundle.penalty > 0.0  # measured outside the tape for logging

    def test_gradients_match_finite_differences_poly(self):
        net = poly_net("fd-poly", d=3, widths=(4,), classes=2)
        x, y = batch("fd-poly-b", 5, 3, 2)
        cfg = TrainConfig(lambda_dreg=0.1)
        bundle = loss_and_grads(net, x, y, cfg)
        for name, arr in net.parameters().items():
            numeric = fd_gradient(lambda: objective_value(net, x, y, cfg), arr)
            assert rel_err(bundle.grads[name], numeric) < 1e-6, name

    def test_gradients_match_finite_differences_relu_with_penalty(self):
        net = Net.build(Rng(derive_seed("grad-relu")).spawn("net"), 4, [7, 6], 3, activation="relu")
        x = Rng(derive_seed("grad-relu")).spawn("x").standard_normal(4, 4)
        y = np.array([0, 2, 1, 1])
        _, preacts = forward_values(net, x)
        margin = min(float(np.abs(z).min()) for z in preacts)
        assert margin > 1e-4, "probe batch sits too close to a ReLU kink"
        cfg = TrainConfig(lambda_dreg=0.1)
        bundle = loss_and_grads(net, x, y, cfg)
        for name, arr in net.parameters().items():
            numeric = fd_gradient(lambda: objective_value(net, x, y, cfg), arr)
            assert rel_err(bundle.grads[name], numeric) < 1e-6, name

    def test_linear_activation_penalty_ignores_curvature_params(self):
        # With c2 = c3 = 0 the Jacobian stream is input-independent, so
        # the penalty gradient w.r.t. biases must vanish.
        net = poly_net("flat")
        for layer in net.layers:
            layer.coeffs[2:] = 0.0
        x, y = batch("flat-b", 5, 3, 2)
        task_only = loss_and_grads(net, x, y, TrainConfig(lambda_dreg=0.0))
        with_pen = loss_and_grads(net, x, y, TrainConfig(lambda_dreg=2.0))
        for name in ("layer0.b",):
            assert rel_err(with_pen.grads[name], task_only.grads[name]) < 1e-12

    def test_dropout_gradients_match_finite_differences(self):
        net = Net.build(Rng(derive_seed("dnet")).spawn("n"), 3, [5], 2, activation="relu", dropout_rate=0.4)
        x = Rng(derive_seed("dx")).standard_normal(4, 3)
        y = np.array([0, 1, 1, 0])
        cfg = TrainConfig(lambda_dreg=0.3)

        # The generator loss_and_grads draws from gives these same masks.
        masks = dropout_masks(net, 4, Rng(99).spawn("d"))

        def rebuild():
            return Tape(net, x, y, masks, cfg.lambda_dreg)

        grads = loss_and_grads(net, x, y, cfg, dropout_rng=Rng(99).spawn("d")).grads
        for name, arr in net.parameters().items():
            numeric = fd_gradient(lambda: float(rebuild().loss), arr)
            assert rel_err(grads[name], numeric) < 1e-6, name

    def test_dropout_without_rng_rejected(self):
        net = Net.build(Rng(0), 3, [4], 2, activation="relu", dropout_rate=0.5)
        x, y = batch("drop-norng", 3, 3, 2)
        with pytest.raises(ValueError, match="rng"):
            loss_and_grads(net, x, y, TrainConfig())

    def test_non_finite_loss_raises(self):
        net = poly_net()
        net.head_weights[:] = 1e308
        x, y = batch("inf", 3, 3, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericOverflowError):
                loss_and_grads(net, x, y, TrainConfig())


class TestLeanStep:
    """What ``train`` reuses across steps changes no bit of a step."""

    @pytest.mark.parametrize("activation, lam, rate", [
        ("poly", 0.5, 0.0),
        ("poly", 0.0, 0.0),
        ("relu", 0.5, 0.0),
        ("relu", 0.0, 0.3),
        ("relu", 0.5, 0.3),
    ])
    def test_garbage_buffer_matches_fresh_over_steps(self, activation, lam, rate):
        rng = Rng(derive_seed("lean", activation, lam, rate))
        reused = Net.build(rng.spawn("net"), 4, [6, 5], 3, activation=activation,
                           dropout_rate=rate, coeff_noise=0.05)
        fresh = copy.deepcopy(reused)
        cfg = TrainConfig(lambda_dreg=lam)
        rng_a, rng_b = rng.spawn("drop"), rng.spawn("drop")
        buf = np.empty(reused.arena.size)
        out = buf, reused.layer_views(buf)
        adam_a = AdamState.for_params(reused.arena.flat)
        adam_b = AdamState.for_params(fresh.arena.flat)
        for step in range(4):
            x = rng.spawn("x", step).standard_normal(7, 4)
            y = np.arange(7) % 3
            buf[:] = np.nan if step % 2 else 1e300  # any slot left unwritten shows
            a = loss_and_grads(reused, x, y, cfg, rng_a, out=out)
            b = loss_and_grads(fresh, x, y, cfg, rng_b)
            assert a.grad is buf
            assert buf.tobytes() == b.grad.tobytes(), step
            assert (a.loss, a.task_loss, a.penalty) == (b.loss, b.task_loss, b.penalty)
            step_adam(reused.arena.flat, buf, adam_a, cfg, reused.arena.n_decayed)
            step_adam(fresh.arena.flat, b.grad, adam_b, cfg, fresh.arena.n_decayed)
        assert reused.arena.flat.tobytes() == fresh.arena.flat.tobytes()

    @pytest.mark.parametrize("rate, widths", [(0.3, [6, 5]), (0.5, [4]), (0.2, [3, 7, 2])])
    def test_dropout_masks_equal_per_layer_draws(self, rate, widths):
        net = Net.build(Rng(0), 4, widths, 3, activation="relu", dropout_rate=rate)
        ours, ref = Rng(derive_seed("masks", rate)), Rng(derive_seed("masks", rate))
        for batch in (5, 1, 32):  # consecutive calls keep the stream aligned
            masks = dropout_masks(net, batch, ours)
            expect = [(ref.uniform(batch, w) >= rate).astype(np.float64) / (1.0 - rate) for w in widths]
            assert [m.shape for m in masks] == [e.shape for e in expect]
            for m, e in zip(masks, expect):
                assert m.tobytes() == e.tobytes()

    @pytest.mark.parametrize("activation", ["poly", "relu"])
    def test_zero_lambda_logged_penalty_equals_measure_penalty(self, activation):
        rng = Rng(derive_seed("lam0-log", activation))
        net = Net.build(rng.spawn("net"), 4, [6, 5], 3, activation=activation, coeff_noise=0.05)
        x = rng.spawn("x").standard_normal(9, 4)
        bundle = loss_and_grads(net, x, np.arange(9) % 3, TrainConfig())
        assert np.float64(bundle.penalty).tobytes() == np.float64(measure_penalty(net, x)).tobytes()

    def test_measure_penalty_budget_counts_hidden_blocks_only(self, monkeypatch):
        rng = Rng(derive_seed("penalty-budget"))
        net = Net.build(rng.spawn("net"), 4, [6, 5], 3, coeff_noise=0.05)
        x = rng.spawn("x").standard_normal(9, 4)
        expected = dreg_penalty(forward_dual(net, x)[1][:-1])
        hidden_bytes = 8 * 9 * 4 * (6 + 5)
        monkeypatch.setattr(polynet, "MAX_DUAL_BYTES", hidden_bytes)
        assert np.float64(measure_penalty(net, x)).tobytes() == np.float64(expected).tobytes()
        with pytest.raises(MemoryBudgetError):  # the head block counts here
            forward_dual(net, x)
        monkeypatch.setattr(polynet, "MAX_DUAL_BYTES", hidden_bytes - 1)
        with pytest.raises(MemoryBudgetError):
            measure_penalty(net, x)


class TestInferenceHelpers:
    def test_cross_entropy_matches_log_softmax(self):
        logits = Rng(3).standard_normal(5, 3)
        y = np.array([0, 1, 2, 1, 0])
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        manual = -np.log(p[np.arange(5), y])
        assert abs(cross_entropy(logits, y) - manual.mean()) < 1e-12
        for b in range(5):
            assert abs(cross_entropy(logits[b:b + 1], y[b:b + 1]) - manual[b]) < 1e-12

    def test_cross_entropy_stable_for_large_logits(self):
        logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
        val = cross_entropy(logits, np.array([0, 1]))
        assert np.isfinite(val) and val < 1e-6

    def test_accuracy_frozen(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0], [0.0, 1.0]])
        assert accuracy(logits, np.array([0, 1, 1, 1])) == 0.75


class TestOptimizers:
    def test_decoupled_decay_frozen(self):
        # A zero gradient leaves Adam's moment step at zero, so only the
        # decoupled decay moves the weight: 1 - 0.1 * 0.01 = 0.999.
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.01)
        params = np.array([1.0])
        step_adam(params, np.array([0.0]), AdamState.for_params(params), cfg, n_decayed=1)
        np.testing.assert_allclose(params, [0.999], atol=1e-15)

    def test_decay_skips_activation_coefficients(self):
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.5)
        arena = ParamArena({"layer0.W": ((1,), True), "layer0.c2": ((1,), False)})
        arena.flat[:] = 1.0
        params = arena.views(arena.flat)
        step_adam(arena.flat, np.zeros(arena.size), AdamState.for_params(arena.flat), cfg, arena.n_decayed)
        assert params["layer0.W"][0] < 1.0
        assert params["layer0.c2"][0] == 1.0

    def test_adam_first_step_closed_form(self):
        cfg = TrainConfig(learning_rate=0.01)
        g = 0.3
        params = np.array([0.0])
        state = AdamState.for_params(params)
        step_adam(params, np.array([g]), state, cfg, n_decayed=1)
        expected = -cfg.learning_rate * g / (abs(g) + 1e-8)
        np.testing.assert_allclose(params, [expected], atol=1e-12)
        assert state.t == 1

    def test_adam_decay_skips_coefficients(self):
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.5)
        arena = ParamArena({"layer0.W": ((1,), True), "layer0.c3": ((1,), False)})
        arena.flat[:] = 2.0
        params = arena.views(arena.flat)
        state = AdamState.for_params(arena.flat)
        step_adam(arena.flat, np.zeros(arena.size), state, cfg, arena.n_decayed)
        assert params["layer0.W"][0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))
        assert params["layer0.c3"][0] == 2.0


class TestParamArena:
    def test_decayed_slice_is_exactly_affine_and_head_entries(self):
        net = poly_net("arena-decay", d=3, widths=(4, 3), classes=2)
        arena = net.arena
        decayed = arena.flat[: arena.n_decayed]
        affine = 0
        for name, arr in net.parameters().items():
            is_coeff = name.split(".")[1] in ("c0", "c1", "c2", "c3")
            assert np.shares_memory(arr, decayed) != is_coeff, name
            affine += 0 if is_coeff else arr.size
        assert arena.n_decayed == affine
        # A decay-only step moves every W/b/head entry and no coefficient.
        before = {k: v.copy() for k, v in net.parameters().items()}
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.5)
        step_adam(arena.flat, np.zeros(arena.size), AdamState.for_params(arena.flat), cfg, arena.n_decayed)
        for name, arr in net.parameters().items():
            if name.split(".")[1] in ("c0", "c1", "c2", "c3"):
                np.testing.assert_array_equal(arr, before[name])
            else:
                np.testing.assert_array_equal(arr, before[name] - 0.1 * 0.5 * before[name])

    def test_parameters_are_arena_views_and_checkpoint_unchanged(self):
        poly = poly_net("arena-ckpt", d=3, widths=(4, 3), classes=2)
        relu_rng = Rng(derive_seed("arena-ckpt-relu"))
        relu = Net.build(relu_rng, 3, [5, 4], 2, activation="relu", dropout_rate=0.2)
        separate = {
            "poly": make_net([tuple(a.copy() for a in layer) for layer in poly.layers],
                             poly.head_weights.copy(), poly.head_bias.copy()),
            "relu": make_net([(layer.weights.copy(), layer.bias.copy(), None) for layer in relu.layers],
                             relu.head_weights.copy(), relu.head_bias.copy(), dropout_rate=0.2),
        }
        for kind, net in (("poly", poly), ("relu", relu)):
            for name, arr in net.parameters().items():
                assert arr.base is net.arena.flat, name
            assert checkpoint_bytes(net) == checkpoint_bytes(separate[kind])
        # A deep copy gets its own arena rather than loose arrays.
        clone = copy.deepcopy(poly)
        assert all(arr.base is clone.arena.flat for arr in clone.parameters().values())
        assert not np.shares_memory(clone.arena.flat, poly.arena.flat)
        assert checkpoint_bytes(clone) == checkpoint_bytes(poly)
        # In-place writes through the named arrays land in the flat vector.
        poly.layers[0].coeffs[2] = 5.0
        assert np.count_nonzero(poly.arena.flat == 5.0) == poly.layers[0].coeffs[2].size

    @pytest.mark.parametrize("how", ["deepcopy", *(f"pickle{p}" for p in range(2, pickle.HIGHEST_PROTOCOL + 1))])
    def test_copies_view_their_own_vector(self, how):
        net = poly_net("arena-copy", d=3, widths=(4, 3), classes=2)
        if how == "deepcopy":
            clone = copy.deepcopy(net)
        else:
            clone = pickle.loads(pickle.dumps(net, protocol=int(how[len("pickle"):])))
        flat = clone.arena.flat
        assert flat.tobytes() == net.arena.flat.tobytes()
        assert not np.shares_memory(flat, net.arena.flat)
        clone.arena.check_bound(clone.parameters())
        for name, arr in clone.parameters().items():
            np.testing.assert_array_equal(arr, net.parameters()[name])
        for layer in clone.layers:
            for arr in layer:
                assert np.shares_memory(arr, flat)
        flat[:] = 3.0  # every view reads the vector, coefficient blocks included
        assert all((arr == 3.0).all() for arr in clone.parameters().values())
        assert all((arr == 3.0).all() for layer in clone.layers for arr in layer)

    def test_train_refuses_rebound_parameter(self):
        tx, ty, ex, ey, ds = blob_split()
        net = Net.build(Rng(derive_seed("rebound")), ds.d, [6], ds.class_count)
        net.head_bias = net.head_bias.copy()
        with pytest.raises(ValueError, match="head.b"):
            train(net, tx, ty, ex, ey, TrainConfig(epochs=1))

    def test_consecutive_calls_return_independent_gradients(self):
        net = poly_net("alias")
        x, y = batch("alias-b", 5, 3, 2)
        first = loss_and_grads(net, x, y, TrainConfig(lambda_dreg=0.0))
        kept = first.grad.copy()
        second = loss_and_grads(net, x, y, TrainConfig(lambda_dreg=2.0))
        assert not np.shares_memory(first.grad, second.grad)
        np.testing.assert_array_equal(first.grad, kept)
        assert not np.array_equal(first.grad, second.grad)
        for bundle in (first, second):
            for arr in bundle.grads.values():
                assert arr.base is bundle.grad


class TestPenaltyLogging:
    """With lambda = 0 the logged penalty equals measure_penalty bitwise."""

    @pytest.mark.parametrize("model", ["vanilla", "weight_decay", "dropout", "poly"])
    def test_logged_penalty_equals_measure_penalty(self, model):
        rng = Rng(derive_seed("penalty-log", model))
        x = rng.spawn("x").standard_normal(16, 4)
        y = np.asarray(rng.spawn("y").integers(0, 3, size=16))
        if model == "poly":
            net = Net.build(rng.spawn("net"), 4, [6, 5], 3, coeff_noise=0.05)
        else:
            rate = 0.3 if model == "dropout" else 0.0
            net = Net.build(rng.spawn("net"), 4, [6, 5], 3, activation="relu", dropout_rate=rate)
        cfg = TrainConfig(
            lambda_dreg=0.0,
            weight_decay=1e-4 if model == "weight_decay" else 0.0,
        )
        expected = measure_penalty(net, x)
        bundle = loss_and_grads(net, x, y, cfg, dropout_rng=rng.spawn("drop"))
        assert bundle.penalty == expected


def blob_split(seed=0):
    ds = make_blobs(n_samples=200, n_classes=3, dim=2, seed=0)
    tr, ev = stratified_split(ds.labels, 0.2, seed=seed)
    return ds.features[tr], ds.labels[tr], ds.features[ev], ds.labels[ev], ds


class TestTrainingLoop:
    def test_bitwise_deterministic(self):
        tx, ty, ex, ey, ds = blob_split()
        nets = []
        for _ in range(2):
            net = Net.build(Rng(derive_seed("det")), ds.d, [6], ds.class_count)
            train(net, tx, ty, ex, ey, TrainConfig(epochs=3, seed=5))
            nets.append(net)
        for k, arr in nets[0].parameters().items():
            np.testing.assert_array_equal(arr, nets[1].parameters()[k])

    def test_seed_changes_trajectory(self):
        tx, ty, ex, ey, ds = blob_split()
        finals = []
        for seed in (0, 1):
            net = Net.build(Rng(derive_seed("seed-var")), ds.d, [6], ds.class_count)
            res = train(net, tx, ty, ex, ey, TrainConfig(epochs=3, seed=seed))
            finals.append(res[-1].task_loss)
        assert finals[0] != finals[1]

    def test_blobs_reach_high_accuracy(self):
        tx, ty, ex, ey, ds = blob_split()
        net = Net.build(Rng(derive_seed("acc-check")), ds.d, [8], ds.class_count)
        res = train(net, tx, ty, ex, ey, TrainConfig(learning_rate=0.01, epochs=25, seed=1))
        assert res[-1].eval_accuracy >= 0.95
        assert len(res) == 25
        assert evaluate_accuracy(net, ex, ey) == res[-1].eval_accuracy

    def test_penalty_suppressed_by_large_lambda(self):
        tx, ty, ex, ey, ds = blob_split()
        finals = {}
        for lam in (0.0, 5.0):
            net = Net.build(Rng(derive_seed("suppress")), ds.d, [6], ds.class_count)
            res = train(net, tx, ty, ex, ey, TrainConfig(lambda_dreg=lam, epochs=10, seed=3))
            finals[lam] = res[-1].penalty
        assert finals[5.0] < finals[0.0]

    def test_divergence_reports_epoch_and_batch(self):
        tx, ty, ex, ey, ds = blob_split()
        net = Net.build(Rng(derive_seed("diverge")), ds.d, [6], ds.class_count)
        cfg = TrainConfig(weight_decay=1e50, epochs=5, seed=0)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericOverflowError) as exc:
                train(net, tx, ty, ex, ey, cfg)
        assert str(exc.value) == "training diverged: non-finite training loss"
        assert (exc.value.epoch, exc.value.batch) == (0, 2)

    def test_epoch_log_fields(self):
        tx, ty, ex, ey, ds = blob_split()
        net = Net.build(Rng(derive_seed("log")), ds.d, [6], ds.class_count)
        res = train(net, tx, ty, ex, ey, TrainConfig(lambda_dreg=0.1, epochs=2, seed=0))
        assert [e.epoch for e in res] == [0, 1]
        for e in res:
            assert np.isfinite(e.task_loss) and np.isfinite(e.penalty)
            assert 0.0 <= e.eval_accuracy <= 1.0
