import dataclasses

import numpy as np
import pytest

from tenrec import NoiseSpec, add_mixed_noise, gen_lowrank, gen_mask

from oracles import tubal_rank


class TestGenLowrank:
    def test_rank_zero_gives_zero_tensor(self):
        assert not gen_lowrank((4, 5, 3), 0, seed=1).any()

    def test_tubal_rank_bounded(self):
        z = gen_lowrank((30, 30, 10), 3, seed=1)
        assert tubal_rank(z) <= 3

    def test_seed_determinism_bitwise(self):
        a = gen_lowrank((8, 7, 5), 2, seed=99)
        b = gen_lowrank((8, 7, 5), 2, seed=99)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = gen_lowrank((8, 7, 5), 2, seed=1)
        b = gen_lowrank((8, 7, 5), 2, seed=2)
        assert not np.array_equal(a, b)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            gen_lowrank((4, 5, 3), 5, seed=0)
        with pytest.raises(ValueError):
            gen_lowrank((4, 5, 3), -1, seed=0)


class TestGenMask:
    def test_full_rate_all_true(self):
        m = gen_mask((4, 5, 3), 1.0, seed=0)
        assert m.mask.all()
        assert np.count_nonzero(m.mask) == 60

    def test_exact_count_large(self):
        # round(0.05 * 256*256*31) observed entries
        m = gen_mask((256, 256, 31), 0.05, seed=3)
        assert np.count_nonzero(m.mask) == 101_581

    def test_exact_count_small(self):
        m = gen_mask((10, 10, 10), 0.123, seed=5)
        assert np.count_nonzero(m.mask) == 123

    def test_seed_determinism(self):
        a = gen_mask((9, 8, 7), 0.3, seed=17)
        b = gen_mask((9, 8, 7), 0.3, seed=17)
        assert np.array_equal(a.mask, b.mask)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            gen_mask((3, 3, 3), 0.0, seed=0)
        with pytest.raises(ValueError):
            gen_mask((3, 3, 3), 1.5, seed=0)


class TestMixedNoise:
    def test_no_noise_is_identity(self):
        z = np.random.default_rng(0).random((6, 6, 4))
        out = add_mixed_noise(z, NoiseSpec(sp_fraction=0.0, gaussian_sigma=0.0, seed=1))
        assert np.array_equal(out, z)

    def test_impulse_fraction_within_binomial_bounds(self):
        z = np.random.default_rng(1).random((20, 20, 10))
        out = add_mixed_noise(z, NoiseSpec(sp_fraction=0.5, gaussian_sigma=0.0, seed=2))
        extreme = np.count_nonzero((out == 0.0) | (out == 1.0))
        n = z.size
        std = np.sqrt(n * 0.5 * 0.5)
        assert abs(extreme - 0.5 * n) <= 3 * std
        untouched = out[(out != 0.0) & (out != 1.0)]
        ref = z[(out != 0.0) & (out != 1.0)]
        assert np.array_equal(untouched, ref)

    def test_gaussian_only_statistics(self):
        z = np.zeros((30, 30, 10))
        out = add_mixed_noise(z, NoiseSpec(sp_fraction=0.0, gaussian_sigma=0.2, seed=3))
        assert abs(out.std() - 0.2) <= 0.01

    def test_paper_style_weak_mixed_setting(self):
        # sp fraction 0.05 with Gaussian sigma 0.2
        z = np.random.default_rng(2).random((25, 25, 8))
        spec = NoiseSpec(sp_fraction=0.05, gaussian_sigma=0.2, seed=4)
        out = add_mixed_noise(z, spec)
        extreme = np.count_nonzero((out == 0.0) | (out == 1.0))
        n = z.size
        assert abs(extreme - 0.05 * n) <= 3 * np.sqrt(n * 0.05 * 0.95)
        assert spec.describe() == "sp=0.05 nu=0.2"

    def test_noniid_per_slice_fractions(self):
        z = np.full((40, 40, 12), 0.5)
        spec = NoiseSpec(gaussian_sigma=0.0, noniid=(0.1, 0.15), seed=5)
        out = add_mixed_noise(z, spec)
        fracs = [
            np.count_nonzero((out[:, :, i] == 0.0) | (out[:, :, i] == 1.0)) / 1600.0
            for i in range(12)
        ]
        assert all(0.03 <= f <= 0.25 for f in fracs)
        assert max(fracs) - min(fracs) > 0.0

    def test_determinism(self):
        z = np.random.default_rng(3).random((10, 10, 5))
        spec = NoiseSpec(sp_fraction=0.2, gaussian_sigma=0.1, seed=11)
        assert np.array_equal(add_mixed_noise(z, spec), add_mixed_noise(z, spec))

    def test_input_not_modified(self):
        z = np.random.default_rng(4).random((5, 5, 3))
        ref = z.copy()
        add_mixed_noise(z, NoiseSpec(sp_fraction=0.3, gaussian_sigma=0.1, seed=6))
        assert np.array_equal(z, ref)

    def test_invalid_spec(self):
        with pytest.raises(ValueError, match=r"^sp_fraction must lie in \[0, 1\), got 1.0$"):
            NoiseSpec(sp_fraction=1.0)
        with pytest.raises(ValueError):
            NoiseSpec(gaussian_sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(gaussian_sigma=float("nan"))
        with pytest.raises(ValueError):
            NoiseSpec(noniid=(0.5, 0.2))

    def test_built_spec_is_frozen(self):
        spec = NoiseSpec(sp_fraction=0.1, seed=3)
        for f in dataclasses.fields(spec):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, f.name, getattr(spec, f.name))
