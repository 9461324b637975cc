import numpy as np
import pytest

from polygrad.linalg import Rng, derive_seed, quantile


class TestDeriveSeed:
    def test_frozen_value(self):
        # Pinned so any change to the mixing scheme is caught explicitly.
        assert derive_seed("a", 1) == 13841258190003339186

    def test_deterministic(self):
        assert derive_seed("x", 2, "y") == derive_seed("x", 2, "y")

    def test_order_sensitive(self):
        assert derive_seed("a", "b") != derive_seed("b", "a")

    def test_no_collisions_over_label_grid(self):
        seeds = {derive_seed("part", i, j) for i in range(40) for j in range(25)}
        assert len(seeds) == 1000

    def test_fits_in_64_bits(self):
        s = derive_seed("anything")
        assert 0 <= s < 2**64


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).standard_normal(10)
        b = Rng(42).standard_normal(10)
        np.testing.assert_array_equal(a, b)

    def test_frozen_stream_head(self):
        # PCG64 output for seed 0 is documented and platform-stable.
        head = Rng(0).standard_normal(3)
        np.testing.assert_allclose(
            head, [0.12573022097805552, -0.13210486329130189, 0.64042265092984153], atol=1e-15
        )

    def test_spawn_depends_only_on_seed_and_labels(self):
        parent = Rng(5)
        parent.standard_normal(100)  # advance parent state
        after = parent.spawn("child").standard_normal(4)
        fresh = Rng(5).spawn("child").standard_normal(4)
        np.testing.assert_array_equal(after, fresh)

    def test_spawn_labels_distinguish(self):
        r = Rng(7)
        a = r.spawn("a").standard_normal(4)
        b = r.spawn("b").standard_normal(4)
        assert not np.array_equal(a, b)

    def test_permutation_is_permutation(self):
        p = Rng(3).permutation(50)
        assert sorted(p.tolist()) == list(range(50))

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 614])
    @pytest.mark.parametrize("count", [1, 3, 80])
    def test_permutations_equal_successive_permutation_calls(self, n, count):
        block, single = Rng(11), Rng(11)
        rows = block.permutations(n, count)
        expected = np.stack([single.permutation(n) for _ in range(count)])
        assert rows.shape == expected.shape and rows.dtype == expected.dtype
        assert rows.tobytes() == expected.tobytes()
        # Both generators are left in the same state: the next draws agree.
        assert block.permutation(n).tobytes() == single.permutation(n).tobytes()
        assert block.uniform(5).tobytes() == single.uniform(5).tobytes()

    def test_spawn_only_rng_builds_no_generator(self):
        root = Rng(9)
        child = root.spawn("a")
        leaf = child.spawn("b")
        leaf.uniform(1)
        assert "_gen" not in vars(root) and "_gen" not in vars(child)
        assert "_gen" in vars(leaf)

    def test_uniform_range(self):
        u = Rng(3).uniform(1000)
        assert u.shape == (1000,)
        assert float(u.min()) >= 0.0 and float(u.max()) < 1.0

    def test_integers_range(self):
        v = Rng(3).integers(2, 9, size=500)
        assert int(v.min()) >= 2 and int(v.max()) < 9

    def test_standard_normal_shape(self):
        assert Rng(0).standard_normal(3, 4).shape == (3, 4)


class TestQuantile:
    def test_frozen_p99_of_1_to_100(self):
        v = np.arange(1.0, 101.0)
        assert abs(quantile(v, 0.99) - 99.01) < 1e-12

    def test_endpoints(self):
        v = np.array([5.0, 1.0, 3.0])
        assert quantile(v, 0.0) == 1.0
        assert quantile(v, 1.0) == 5.0

    def test_midpoint_interpolation(self):
        assert quantile(np.array([1.0, 3.0]), 0.5) == 2.0

    def test_single_element(self):
        assert quantile(np.array([7.0]), 0.99) == 7.0

    def test_matches_numpy_linear_method(self):
        rng = Rng(13)
        for q in (0.01, 0.25, 0.5, 0.9, 0.99):
            v = rng.standard_normal(137)
            assert abs(quantile(v, q) - float(np.quantile(v, q))) < 1e-12

    def test_order_invariant(self):
        v = Rng(1).standard_normal(50)
        assert quantile(v, 0.7) == quantile(v[::-1].copy(), 0.7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            quantile(np.array([]), 0.5)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            quantile(np.array([1.0, np.nan]), 0.5)

    def test_level_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantile(np.array([1.0]), 1.5)
