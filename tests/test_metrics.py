import itertools
import math

import numpy as np
import pytest

from polygrad.errors import DegenerateDistributionError, NumericOverflowError
from polygrad.linalg import Rng, derive_seed
from polygrad.metrics import (
    StatTestResult,
    bonferroni,
    input_grad_norms,
    paired_t_one_sided,
    regularized_incomplete_beta,
    t_sf,
    tail_ratio,
    wilcoxon_signed_rank,
)
from polygrad.polynet import Net
from polygrad.train import cross_entropy, predict_logits

scipy_stats = pytest.importorskip("scipy.stats")
scipy_special = pytest.importorskip("scipy.special")


def wilcoxon_on_diffs(diffs):
    d = np.asarray(diffs, dtype=np.float64)
    return wilcoxon_signed_rank(d, np.zeros_like(d))


class TestTailRatio:
    def test_frozen_value_on_one_to_hundred(self):
        norms = np.arange(1.0, 101.0)
        report = tail_ratio(norms)
        # p99 of 1..100 under linear interpolation is 99.01, mean is 50.5
        assert abs(report.tau - 99.01 / 50.5) < 1e-12
        assert abs(report.p99 - 99.01) < 1e-12
        assert abs(report.mean - 50.5) < 1e-12
        assert report.n == 100

    def test_constant_distribution_gives_one(self):
        report = tail_ratio(np.full(50, 3.7))
        assert abs(report.tau - 1.0) < 1e-12

    def test_scale_invariance(self):
        norms = Rng(derive_seed("tau-scale")).uniform(200) * 4.9 + 0.1
        a = tail_ratio(norms).tau
        b = tail_ratio(norms * 123.456).tau
        assert abs(a - b) < 1e-12

    def test_permutation_invariance(self):
        norms = Rng(derive_seed("tau-perm")).uniform(200) * 4.9 + 0.1
        perm = Rng(derive_seed("tau-perm-order")).permutation(200)
        assert abs(tail_ratio(norms).tau - tail_ratio(norms[perm]).tau) < 1e-12

    def test_heavy_tail_raises_tau(self):
        light = np.ones(100)
        heavy = np.ones(100)
        heavy[-1] = 1000.0
        assert tail_ratio(heavy).tau > tail_ratio(light).tau

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            tail_ratio(np.ones((2, 2)))
        with pytest.raises(ValueError):
            tail_ratio(np.array([]))
        with pytest.raises(ValueError):
            tail_ratio(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            tail_ratio(np.array([1.0, -0.5]))

    def test_zero_mean_is_degenerate(self):
        with pytest.raises(DegenerateDistributionError):
            tail_ratio(np.zeros(10))


def poly_probe():
    rng = Rng(derive_seed("metrics-net"))
    net = Net.build(rng.spawn("net"), 4, [6, 5], 3)
    x = rng.spawn("x").standard_normal(6, 4)
    y = np.array([0, 1, 2, 0, 1, 2])
    return net, x, y


class TestInputGradNorms:
    def test_poly_loss_grads_match_finite_differences(self):
        net, x, y = poly_probe()
        norms = input_grad_norms(net, x, labels=y)
        step = 1e-6
        for b in range(x.shape[0]):
            g = np.zeros(x.shape[1])
            for j in range(x.shape[1]):
                xp = x.copy()
                xp[b, j] += step
                xm = x.copy()
                xm[b, j] -= step
                lp = cross_entropy(predict_logits(net, xp)[b:b + 1], y[b:b + 1])
                lm = cross_entropy(predict_logits(net, xm)[b:b + 1], y[b:b + 1])
                g[j] = (lp - lm) / (2 * step)
            assert abs(norms[b] - float(np.linalg.norm(g))) < 1e-6

    def test_relu_loss_grads_match_direct_computation(self):
        # ReLU and cubic nets alike: reverse accumulation over the summed
        # per-sample losses, layer by layer, written out in numpy.
        rng = Rng(derive_seed("metrics-relu"))
        x = rng.spawn("x").standard_normal(6, 4)
        y = np.array([0, 1, 2, 0, 1, 2])
        for activation in ("relu", "poly"):
            net = Net.build(rng.spawn("net"), 4, [6, 5], 3, activation=activation)
            h, preacts = x, []
            for layer in net.layers:
                preacts.append(h @ layer.weights.T + layer.bias)
                h = layer.activate(preacts[-1])
            logits = h @ net.head_weights.T + net.head_bias
            p = np.exp(logits - logits.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(6), y] -= 1.0
            grad = p @ net.head_weights
            for layer, z in zip(reversed(net.layers), reversed(preacts)):
                grad = (grad * layer.slope(z)) @ layer.weights
            np.testing.assert_allclose(
                input_grad_norms(net, x, labels=y),
                np.sqrt(np.sum(grad * grad, axis=1)), atol=1e-12, err_msg=activation)

    def test_cubic_batch_beyond_dual_stream_cap(self):
        # 8,100 rows at d = 64, widths [64, 64] would need 539 MB of
        # Jacobian blocks, over forward_dual's 512 MiB cap; the norms
        # need none of them.
        rng = Rng(derive_seed("metrics-big"))
        net = Net.build(rng.spawn("net"), 64, [64, 64], 2)
        x = rng.spawn("x").standard_normal(8100, 64)
        y = np.arange(8100) % 2
        norms = input_grad_norms(net, x, labels=y)
        assert norms.shape == (8100,)
        assert np.all(np.isfinite(norms)) and np.all(norms > 0)

    def test_overflow_names_offending_sample(self):
        # Sample 0 is confidently right (zero gradient); sample 1's
        # gradient is head * c1 * W = 1e320, past the float64 range,
        # while every forward value stays finite.
        net = Net.build(Rng(0), 1, [1], 2)
        params = net.parameters()
        params["layer0.W"][:] = 1e200
        params["layer0.b"][:] = 0.0
        params["layer0.c1"][:] = 1e200
        params["layer0.c0"][:] = 0.0
        params["layer0.c2"][:] = 0.0
        params["layer0.c3"][:] = 0.0
        params["head.W"][0, 0] = 1e-80
        params["head.W"][1, 0] = -1e-80
        params["head.b"][:] = 0.0
        x = np.array([[1e-300], [1e-300]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericOverflowError, match="sample 1"):
                input_grad_norms(net, x, labels=np.array([0, 1]))


class TestPairedT:
    def test_frozen_small_case(self):
        # diffs [1,2,3]: mean 2, sd 1, t = 2*sqrt(3), dof 2
        res = paired_t_one_sided(np.array([2.0, 3.0, 4.0]), np.array([1.0, 1.0, 1.0]))
        assert abs(res.statistic - 2.0 * math.sqrt(3.0)) < 1e-12
        assert abs(res.p_value - 0.03708995011372426) < 1e-12
        assert res.n_pairs == 3
        assert res.test == "paired-t-one-sided"
        assert res.p_adjusted == res.p_value  # unadjusted until bonferroni

    def test_frozen_five_point_case(self):
        a = np.array([1.1, 2.3, 3.1, 4.2, 5.4])
        b = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        res = paired_t_one_sided(a, b)
        oracle = scipy_stats.ttest_rel(a, b, alternative="greater")
        assert abs(res.statistic - float(oracle.statistic)) < 1e-10
        assert abs(res.p_value - float(oracle.pvalue)) < 1e-10

    def test_scipy_oracle_grid(self):
        rng = Rng(derive_seed("t-grid"))
        for n in (2, 3, 5, 8, 12, 30):
            for shift in (-0.5, 0.0, 0.3, 2.0):
                a = rng.spawn("a", str(n), str(shift)).standard_normal(n) + shift
                b = rng.spawn("b", str(n), str(shift)).standard_normal(n)
                if float(np.std(a - b, ddof=1)) == 0.0:
                    continue
                res = paired_t_one_sided(a, b)
                oracle = scipy_stats.ttest_rel(a, b, alternative="greater")
                assert abs(res.p_value - float(oracle.pvalue)) < 1e-10

    def test_direction_swap_complements(self):
        a = np.array([1.0, 2.5, 3.0, 4.5])
        b = np.array([0.5, 2.0, 3.5, 4.0])
        assert abs(paired_t_one_sided(a, b).p_value
                   + paired_t_one_sided(b, a).p_value - 1.0) < 1e-12

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            paired_t_one_sided(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="zero"):
            paired_t_one_sided(np.array([1.0, 2.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            paired_t_one_sided(np.array([1.0, 2.0]), np.array([1.0]))


class TestWilcoxon:
    def test_frozen_all_positive(self):
        res = wilcoxon_on_diffs([1.0, 2.0, 3.0])
        assert res.statistic == 6.0
        assert abs(res.p_value - 1.0 / 8.0) < 1e-15
        assert res.test == "wilcoxon-signed-rank"

    def test_frozen_all_negative(self):
        res = wilcoxon_on_diffs([-1.0, -2.0, -3.0])
        assert res.statistic == 0.0
        assert abs(res.p_value - 1.0) < 1e-15

    def test_frozen_tied_magnitudes(self):
        res = wilcoxon_on_diffs([1.0, 1.0, -1.0])
        assert res.statistic == 4.0
        assert abs(res.p_value - 0.5) < 1e-15

    def test_zeros_are_dropped(self):
        with_zero = wilcoxon_on_diffs([0.0, 1.0, 2.0, 3.0])
        without = wilcoxon_on_diffs([1.0, 2.0, 3.0])
        assert with_zero.statistic == without.statistic
        assert with_zero.p_value == without.p_value
        assert with_zero.n_pairs == 3

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_on_diffs(np.zeros(5))

    def test_exact_matches_brute_force_enumeration(self):
        # For every sign pattern over fixed magnitudes the exact p-value
        # must equal the enumeration P(W+ >= observed) over all 2^n
        # equally likely sign assignments, including tied magnitudes.
        for mags in ([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 1.0, 2.0, 3.0, 3.0]):
            m = np.array(mags)
            n = len(m)
            ranks = scipy_stats.rankdata(m)
            all_w = [float(np.dot(ranks, bits)) for bits in itertools.product((0, 1), repeat=n)]
            for bits in itertools.product((-1, 1), repeat=n):
                diffs = m * np.array(bits, dtype=float)
                res = wilcoxon_on_diffs(diffs)
                w_obs = float(np.dot(ranks, (np.array(bits) > 0).astype(float)))
                exact = sum(1 for w in all_w if w >= w_obs) / 2.0 ** n
                assert res.statistic == w_obs
                assert abs(res.p_value - exact) < 1e-15, (mags, bits)

    def test_exact_matches_scipy_without_ties(self):
        rng = Rng(derive_seed("wx-scipy"))
        for n in (4, 7, 10, 15, 20):
            diffs = rng.spawn(str(n)).standard_normal(n)
            res = wilcoxon_on_diffs(diffs)
            oracle = scipy_stats.wilcoxon(diffs, alternative="greater", mode="exact")
            assert abs(res.p_value - float(oracle.pvalue)) < 1e-12

    def test_large_n_matches_scipy_normal_approximation(self):
        rng = Rng(derive_seed("wx-large"))
        for n in (21, 35, 60):
            diffs = rng.spawn(str(n)).standard_normal(n) + 0.2
            diffs[: n // 5] = np.round(diffs[: n // 5], 1)  # manufacture ties
            res = wilcoxon_on_diffs(diffs)
            oracle = scipy_stats.wilcoxon(diffs, alternative="greater",
                                          mode="approx", correction=True)
            assert abs(res.p_value - float(oracle.pvalue)) < 1e-10


class TestBonferroni:
    def test_frozen_adjustment(self):
        results = [
            StatTestResult(test="t", statistic=1.0, p_value=0.01, n_pairs=5),
            StatTestResult(test="t", statistic=2.0, p_value=0.6, n_pairs=5),
        ]
        adjusted = bonferroni(results, m=3)
        assert abs(adjusted[0].p_adjusted - 0.03) < 1e-15
        assert adjusted[0].bonferroni_m == 3
        assert adjusted[1].p_adjusted == 1.0  # 1.8 clamps to 1

    def test_inputs_not_mutated(self):
        result = StatTestResult(test="t", statistic=1.0, p_value=0.2, n_pairs=4)
        bonferroni([result], m=5)
        assert result.p_adjusted == 0.2
        assert result.bonferroni_m == 1

    def test_family_size_equal_to_results(self):
        results = [StatTestResult(test="t", statistic=0.0, p_value=0.1, n_pairs=3)] * 4
        adjusted = bonferroni(results, m=4)
        assert all(abs(r.p_adjusted - 0.4) < 1e-15 for r in adjusted)

    def test_rejects_bad_m(self):
        result = StatTestResult(test="t", statistic=0.0, p_value=0.1, n_pairs=3)
        with pytest.raises(ValueError):
            bonferroni([result], m=0)
        with pytest.raises(ValueError):
            bonferroni([result, result], m=1)


class TestSpecialFunctions:
    def test_incomplete_beta_against_scipy(self):
        worst = 0.0
        for a in (0.5, 1.0, 2.5, 10.0, 40.0):
            for b in (0.5, 1.0, 3.0, 25.0):
                for x in (0.0, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6, 1.0):
                    ours = regularized_incomplete_beta(a, b, x)
                    ref = float(scipy_special.betainc(a, b, x))
                    worst = max(worst, abs(ours - ref))
        assert worst < 1e-12

    def test_incomplete_beta_domain(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.1)

    def test_t_sf_against_scipy(self):
        for dof in (1, 2, 5, 10, 29, 100):
            for t in (-4.0, -1.0, 0.0, 0.5, 2.0, 6.0):
                ours = t_sf(t, dof)
                ref = float(scipy_stats.t.sf(t, dof))
                assert abs(ours - ref) < 1e-12, (t, dof)

    def test_t_sf_rejects_bad_dof(self):
        with pytest.raises(ValueError):
            t_sf(1.0, 0)
