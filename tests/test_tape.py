import numpy as np
import pytest

from conftest import fd_gradient, rel_err
from polygrad.linalg import Rng, derive_seed
from polygrad.tape import Tape

TOL = 1e-6


def vjp_case(build, arrays, skip=(), step=1e-5, tol=TOL):
    """Backward gradients of sum(out) vs central differences, per leaf.

    ``build(tape, leaves)`` records the op under test and returns its
    output node; ``arrays`` maps leaf names to the numpy arrays the
    leaves wrap (mutated in place by the probe).
    """

    def run():
        t = Tape()
        leaves = {name: t.leaf(arr, name=name) for name, arr in arrays.items()}
        return t, leaves, build(t, leaves)

    tape, leaves, out = run()
    tape.backward(out)
    scalar = lambda: float(np.sum(run()[2].value))
    for name, arr in arrays.items():
        numeric = fd_gradient(scalar, arr, step)
        if name in skip:
            assert leaves[name].grad is None, f"{name} should get no gradient"
            assert float(np.abs(numeric).max()) < 1e-8
            continue
        analytic = leaves[name].grad
        assert analytic is not None, f"no gradient reached {name}"
        assert rel_err(analytic, numeric) < tol, f"VJP mismatch for {name}"


def rand(label, *shape):
    return Rng(derive_seed("tape", label)).standard_normal(*shape)


class TestPrimitiveVjps:
    def test_linear(self):
        arrays = {"h": rand("lin-h", 3, 4), "W": rand("lin-W", 5, 4), "b": rand("lin-b", 5)}
        vjp_case(lambda t, l: t.linear(l["h"], l["W"], l["b"]), arrays)

    def test_poly_val(self):
        arrays = {"z": rand("pv-z", 3, 4)}
        arrays.update({f"c{k}": rand(f"pv-c{k}", 4) for k in range(4)})
        vjp_case(
            lambda t, l: t.poly_val(l["z"], l["c0"], l["c1"], l["c2"], l["c3"]), arrays
        )

    def test_poly_slope_carries_second_derivative(self):
        arrays = {"z": rand("ps-z", 3, 4)}
        arrays.update({f"c{k}": rand(f"ps-c{k}", 4) for k in (1, 2, 3)})
        vjp_case(lambda t, l: t.poly_slope(l["z"], l["c1"], l["c2"], l["c3"]), arrays)

    def test_relu(self):
        z = rand("relu-z", 4, 5)
        z += 0.2 * np.sign(z)  # keep probes away from the kink
        vjp_case(lambda t, l: t.relu(l["z"]), {"z": z})

    def test_relu_slope_blocks_gradient_to_preactivation(self):
        z = rand("rs-z", 3, 5)
        z += 0.2 * np.sign(z)
        arrays = {"z": z, "W": rand("rs-W", 5, 4)}
        vjp_case(lambda t, l: t.jac_seed(t.relu_slope(l["z"]), l["W"]), arrays, skip=("z",))

    def test_mask(self):
        m = (Rng(derive_seed("mask-m")).uniform(3, 4) > 0.4) / 0.6
        vjp_case(lambda t, l: t.mask(l["h"], m), {"h": rand("mask-h", 3, 4)})

    def test_jac_seed(self):
        arrays = {"slope": rand("js-s", 3, 5), "W": rand("js-W", 5, 4)}
        vjp_case(lambda t, l: t.jac_seed(l["slope"], l["W"]), arrays)

    def test_jac_chain(self):
        arrays = {
            "slope": rand("jc-s", 3, 5),
            "W": rand("jc-W", 5, 6),
            "S": rand("jc-S", 3, 6, 4),
        }
        vjp_case(lambda t, l: t.jac_chain(l["slope"], l["W"], l["S"]), arrays)

    def test_jac_head(self):
        arrays = {"W": rand("jh-W", 2, 5), "S": rand("jh-S", 3, 5, 4)}
        vjp_case(lambda t, l: t.jac_head(l["W"], l["S"]), arrays)

    def test_jac_mask(self):
        m = (Rng(derive_seed("jm-m")).uniform(3, 5) > 0.3) / 0.7
        vjp_case(lambda t, l: t.jac_mask(l["S"], m), {"S": rand("jm-S", 3, 5, 4)})

    def test_frob_mean(self):
        vjp_case(lambda t, l: t.frob_mean(l["S"]), {"S": rand("fm-S", 3, 5, 4)})

    def test_softmax_cross_entropy_mean(self):
        labels = np.array([0, 2, 1, 1])
        vjp_case(
            lambda t, l: t.softmax_cross_entropy(l["logits"], labels, reduction="mean"),
            {"logits": rand("ce-l", 4, 3)},
        )

    def test_softmax_cross_entropy_sum(self):
        labels = np.array([0, 2, 1, 1])
        vjp_case(
            lambda t, l: t.softmax_cross_entropy(l["logits"], labels, reduction="sum"),
            {"logits": rand("ces-l", 4, 3)},
        )

    def test_mean_scalars_and_add_scaled(self):
        arrays = {"A": rand("ms-A", 2, 3, 4), "B": rand("ms-B", 2, 5, 4)}

        def build(t, l):
            mean = t.mean_scalars([t.frob_mean(l["A"]), t.frob_mean(l["B"])])
            return t.add_scaled(t.frob_mean(l["A"]), mean, 0.7)

        vjp_case(build, arrays)

    def test_gradient_accumulation_over_shared_leaf(self):
        m1 = (Rng(derive_seed("acc-1")).uniform(3, 5) > 0.5) * 2.0
        m2 = (Rng(derive_seed("acc-2")).uniform(3, 5) > 0.5) * 2.0

        def build(t, l):
            s1 = t.frob_mean(t.jac_mask(l["S"], m1))
            s2 = t.frob_mean(t.jac_mask(l["S"], m2))
            return t.add_scaled(s1, s2, 2.0)

        vjp_case(build, {"S": rand("acc-S", 3, 5, 4)})


class TestTapeMechanics:
    def test_softmax_ce_value_matches_plain_cross_entropy(self):
        from polygrad.train import cross_entropy

        t = Tape()
        logits = rand("ce-val", 5, 3)
        labels = np.array([0, 1, 2, 1, 0])
        node = t.softmax_cross_entropy(t.leaf(logits), labels)
        assert abs(float(node.value) - cross_entropy(logits, labels)) < 1e-12

    def test_unknown_reduction_rejected(self):
        t = Tape()
        with pytest.raises(ValueError, match="reduction"):
            t.softmax_cross_entropy(t.leaf(np.zeros((2, 2))), np.array([0, 1]), reduction="max")

    def test_duplicate_param_name_rejected(self):
        t = Tape()
        t.leaf(np.zeros(2), name="w", param=True)
        with pytest.raises(ValueError, match="duplicate"):
            t.leaf(np.zeros(2), name="w", param=True)

    def test_unnamed_param_rejected(self):
        with pytest.raises(ValueError, match="name"):
            Tape().leaf(np.zeros(2), param=True)

    def test_grads_returns_zeros_for_unreached_params(self):
        t = Tape()
        used = t.leaf(rand("gr-used", 2, 3), name="used", param=True)
        idle = t.leaf(np.ones((4, 4)), name="idle", param=True, grad_out=np.full((4, 4), 7.0))
        out = t.frob_mean(t.jac_seed(t.leaf(rand("gr-s", 2, 2)), used))
        t.backward(out)
        assert used.grad.shape == (2, 3) and float(np.abs(used.grad).sum()) > 0
        np.testing.assert_array_equal(idle.grad, np.zeros((4, 4)))

    def test_grad_out_receives_gradients_in_place(self):
        W, S = rand("go-W", 2, 3), rand("go-S", 4, 3)
        plain = Tape()
        plain_W = plain.leaf(W, name="W", param=True)
        out = plain.frob_mean(plain.jac_seed(plain.leaf(S[:, :2]), plain_W))
        plain.backward(out)
        flat = np.full(2 * 3 + 5, 7.0)  # stale contents must not leak into the result
        t = Tape()
        leaf = t.leaf(W, name="W", param=True, grad_out=flat[:6].reshape(2, 3))
        t.leaf(np.ones(5), name="idle", param=True, grad_out=flat[6:])
        out = t.frob_mean(t.jac_seed(t.leaf(S[:, :2]), leaf))
        for _ in range(2):  # a second sweep overwrites, never accumulates
            t.backward(out)
            np.testing.assert_array_equal(flat[:6].reshape(2, 3), plain_W.grad)
            np.testing.assert_array_equal(flat[6:], np.zeros(5))
        assert all(node.grad.base is flat for node in t.params.values())

    def test_backward_clears_stale_gradients(self):
        t = Tape()
        S = t.leaf(rand("clr-S", 2, 3, 4), name="S", param=True)
        out = t.frob_mean(S)
        t.backward(out)
        first = S.grad.copy()
        t.backward(out)
        np.testing.assert_array_equal(S.grad, first)
