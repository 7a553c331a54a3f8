import tracemalloc

import numpy as np
import pytest

from tenrec import (
    mlcp,
    shrink_singular_values,
    t_product,
    update_lambda_bar,
    update_weights,
    weighted_log_prox,
)
from tenrec import penalty
from tenrec.algebra import fourier_singular_values

from oracles import (
    dft_mode3,
    full_spectrum_sv,
    lgamma_norm,
    log_weighted_norm,
    mlcp_tensor,
    mirror_columns,
    mlcp_weight_minimizer,
    prox_lgamma_norm,
    t_svd,
)


def omega_objective(omega, z, lam, gamma, eps):
    return omega * np.log1p(abs(z) / eps) + gamma / 2 * (omega - lam) ** 2


def grid_min_omega(z, lam, gamma, eps, step=1e-5):
    grid = np.arange(0.0, 2 * lam + step, step)
    vals = omega_objective(grid, z, lam, gamma, eps)
    k = int(np.argmin(vals))
    return grid[k], vals[k]


def shrink_objective(s, y, w, rho, eps):
    return rho / 2 * (s - y) ** 2 + w * np.log1p(s / eps)


def grid_min_shrink(y, w, rho, eps):
    """Two-stage grid argmin at 1e-6 resolution over [0, y].

    The objective has at most two local minima (zero and one interior
    stationary point), so refining around the coarse argmin and around
    zero is exhaustive.
    """
    if y == 0:
        return 0.0
    coarse = np.linspace(0.0, y, 2001)
    step = coarse[1] - coarse[0]
    best = coarse[int(np.argmin(shrink_objective(coarse, y, w, rho, eps)))]
    pieces = [coarse]
    for center in (0.0, best):
        lo, hi = max(0.0, center - step), min(y, center + step)
        pieces.append(np.arange(lo, hi + 1e-6, 1e-6))
    pts = np.concatenate(pieces)
    return float(pts[np.argmin(shrink_objective(pts, y, w, rho, eps))])


class TestScalarPenalty:
    def test_zero_input(self):
        assert mlcp(0.0, 1.0, 2.0, 1.0) == 0.0

    def test_saturated_branch_value(self):
        # lam=1, gamma=2, eps=1: saturation for |z| >= e^2 - 1 at gamma*lam^2/2 = 1
        assert mlcp(np.e**2 - 1, 1.0, 2.0, 1.0) == pytest.approx(1.0)
        assert mlcp(50.0, 1.0, 2.0, 1.0) == pytest.approx(1.0)

    def test_unit_log_point(self):
        # log(|z|/eps + 1) = 1 at z = e - 1: value = 1 - 1/4
        assert mlcp(np.e - 1, 1.0, 2.0, 1.0) == pytest.approx(0.75)

    def test_symmetry(self):
        zs = np.linspace(-4, 4, 33)
        assert np.allclose(mlcp(zs, 1.3, 2.5, 0.4), mlcp(-zs, 1.3, 2.5, 0.4))

    def test_monotone_and_concave_on_grid(self):
        z = np.linspace(0.0, 10.0, 2001)
        vals = mlcp(z, 1.0, 3.0, 0.05)
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-12)
        assert np.all(np.diff(diffs) <= 1e-10)

    def test_derivative_nonnegative_nonincreasing_lipschitz(self):
        lam, gamma, eps = 1.0, 4.0, 0.1
        z = np.linspace(0.0, 5.0, 4001)
        h = z[1] - z[0]
        deriv = np.diff(mlcp(z, lam, gamma, eps)) / h
        assert np.all(deriv >= -1e-9)
        assert np.all(np.diff(deriv) <= 1e-8)
        # increments bounded by a constant times the step; the curvature
        # is largest near zero where it scales like lam/eps^2
        bound = 2.0 * lam / eps**2
        assert np.max(np.abs(np.diff(deriv))) <= bound * h

    def test_upper_bounded_by_log_strictly_except_zero(self):
        z = np.linspace(0.0, 8.0, 10_001)
        lam, eps = 1.0, 0.1
        log_ref = lam * np.log1p(z / eps)
        for gamma in (10.0, 1e3, 1e6):
            vals = mlcp(z, lam, gamma, eps)
            assert np.all(vals <= log_ref + 1e-12)
            assert np.all(vals[1:] < log_ref[1:])
            assert np.max(log_ref - vals) <= 10.0 / gamma

    def test_monotone_in_gamma(self):
        z = np.linspace(0.0, 8.0, 501)
        prev = mlcp(z, 1.0, 10.0, 0.1)
        for gamma in (1e3, 1e6):
            cur = mlcp(z, 1.0, gamma, 0.1)
            assert np.all(cur >= prev - 1e-12)
            prev = cur

    @pytest.mark.parametrize("lam, gamma, eps", [(np.nan, 10.0, 0.1), (1.0, np.nan, 0.1),
                                                 (1.0, 10.0, np.nan)])
    def test_nan_params_rejected(self, lam, gamma, eps):
        with pytest.raises(ValueError):
            mlcp(1.0, lam, gamma, eps)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            mlcp(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            mlcp(1.0, 1.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            mlcp(1.0, -0.5, 1.0, 1.0)


class TestTensorPenalty:
    def test_zero_tensor(self):
        assert mlcp_tensor(np.zeros((3, 3, 2)), np.ones((3, 3, 2)), 2.0, 1.0) == 0.0

    def test_single_entry_degenerates_to_scalar(self):
        z = np.array([np.e - 1])
        assert mlcp_tensor(z, np.ones(1), 2.0, 1.0) == pytest.approx(0.75)

    def test_matches_entry_loop(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((3, 3, 2))
        lam = rng.uniform(0.1, 2.0, size=z.shape)
        ref = sum(
            mlcp(z[idx], lam[idx], 3.0, 0.2) for idx in np.ndindex(*z.shape)
        )
        assert mlcp_tensor(z, lam, 3.0, 0.2) == pytest.approx(ref)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mlcp_tensor(np.zeros((2, 2)), np.ones((2, 3)), 1.0, 1.0)


class TestWeightMinimizer:
    def test_zero_input_returns_lam(self):
        assert mlcp_weight_minimizer(0.0, 1.7, 2.0, 1.0) == 1.7

    def test_unit_log_point(self):
        # grid-checked: omega* = 1 - 1/2 at z = e - 1, lam=1, gamma=2, eps=1
        w = mlcp_weight_minimizer(np.e - 1, 1.0, 2.0, 1.0)
        assert w == pytest.approx(0.5)
        wg, og = grid_min_omega(np.e - 1, 1.0, 2.0, 1.0)
        assert abs(w - wg) <= 1e-5
        assert omega_objective(w, np.e - 1, 1.0, 2.0, 1.0) <= og + 1e-12

    def test_large_input_clamps_to_zero(self):
        assert mlcp_weight_minimizer(1e9, 1.0, 2.0, 1.0) == 0.0

    def test_substitution_reproduces_penalty(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            z = rng.uniform(-5, 5)
            lam = rng.uniform(0.1, 2.0)
            gamma = rng.uniform(0.5, 50.0)
            eps = rng.uniform(0.01, 1.0)
            w = mlcp_weight_minimizer(z, lam, gamma, eps)
            assert omega_objective(w, z, lam, gamma, eps) == pytest.approx(
                mlcp(z, lam, gamma, eps), abs=1e-12
            )

    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 2)])
    def test_entrywise_decoupling_at_higher_orders(self, shape):
        # the joint weight minimisation decouples per entry, so the
        # elementwise minimiser's total objective equals the summed penalty
        rng = np.random.default_rng(2)
        z = rng.standard_normal(shape)
        lam = rng.uniform(0.2, 1.5, size=shape)
        gamma, eps = 4.0, 0.2
        w = mlcp_weight_minimizer(z, lam, gamma, eps)
        t = np.log1p(np.abs(z) / eps)
        total = float(np.sum(w * t + gamma / 2 * (w - lam) ** 2))
        assert total == pytest.approx(mlcp_tensor(z, lam, gamma, eps), abs=1e-10)


class TestWeightedNorms:
    def test_log_weighted_norm_zero_tensor(self):
        assert log_weighted_norm(np.zeros((3, 4, 2)), np.ones((3, 2)), 0.5) == 0.0

    def test_log_weighted_norm_single_slice_uniform_weights(self):
        a = np.random.default_rng(2).standard_normal((4, 4, 1))
        sv = np.linalg.svd(a[:, :, 0], compute_uv=False)
        ref = np.sum(np.log1p(sv / 0.1))
        assert log_weighted_norm(a, np.ones((4, 1)), 0.1) == pytest.approx(ref)

    def test_log_weighted_norm_slice_oracle(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 5, 3))
        w = rng.uniform(0.0, 2.0, size=(4, 3))
        zbar = dft_mode3(z)
        ref = 0.0
        for i in range(3):
            sv = np.linalg.svd(zbar[:, :, i], compute_uv=False)
            ref += np.sum(w[:, i] * np.log1p(sv / 0.2))
        assert log_weighted_norm(z, w, 0.2) == pytest.approx(ref)

    def test_lgamma_norm_zero_iff_zero_tensor(self):
        lam = np.ones((3, 2))
        assert lgamma_norm(np.zeros((3, 4, 2)), lam, 5.0, 0.1) == 0.0
        z = np.random.default_rng(4).standard_normal((3, 4, 2))
        assert lgamma_norm(z, lam, 5.0, 0.1) > 0.0

    def test_lgamma_norm_bounded_by_log_weighted_norm(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((4, 4, 3))
        lam = rng.uniform(0.2, 1.5, size=(4, 3))
        assert lgamma_norm(z, lam, 8.0, 0.1) <= log_weighted_norm(z, lam, 0.1) + 1e-12

    def test_lgamma_norm_matches_per_entry_grid(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((4, 4, 3))
        lam = np.ones((4, 3))
        gamma, eps = 5.0, 0.1
        sigma = full_spectrum_sv(z)
        ref = 0.0
        for j in range(4):
            for i in range(3):
                _, val = grid_min_omega(sigma[j, i], lam[j, i], gamma, eps)
                # grid covers [0, 2*lam]; objective evaluated at sigma values
                t = np.log1p(sigma[j, i] / eps)
                grid = np.arange(0.0, 2 * lam[j, i] + 1e-5, 1e-5)
                ref += np.min(grid * t + gamma / 2 * (grid - lam[j, i]) ** 2)
        assert lgamma_norm(z, lam, gamma, eps) == pytest.approx(ref, abs=1e-5)

    def test_lgamma_norm_unitary_invariance(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((4, 4, 3))
        lam = rng.uniform(0.5, 1.5, size=(4, 3))
        u = t_svd(rng.standard_normal((4, 4, 3))).u
        v = t_svd(rng.standard_normal((4, 4, 3))).v
        rotated = t_product(t_product(u, z), v)
        assert lgamma_norm(rotated, lam, 7.0, 0.2) == pytest.approx(
            lgamma_norm(z, lam, 7.0, 0.2), rel=1e-8
        )


class TestShrink:
    def test_zero_branch_example(self):
        # alpha=1, threshold 2*sqrt(1) - 1 = 1: y = 0.5 falls in the zero branch
        assert shrink_singular_values(0.5, 1.0, 1.0, 1.0) == 0.0

    def test_boundary_assigned_to_zero_branch(self):
        assert shrink_singular_values(1.0, 1.0, 1.0, 1.0) == 0.0

    def test_root_branch_example(self):
        expected = (2.0 + np.sqrt(12.0)) / 2.0
        assert shrink_singular_values(3.0, 1.0, 1.0, 1.0) == pytest.approx(expected)
        assert grid_min_shrink(3.0, 1.0, 1.0, 1.0) == pytest.approx(expected, abs=1e-5)

    def test_zero_weight_is_identity(self):
        assert shrink_singular_values(2.5, 0.0, 1.0, 1.0) == 2.5

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            shrink_singular_values(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            shrink_singular_values(1.0, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            shrink_singular_values(1.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("w, rho, eps", [([1.0, np.nan], 1.0, 0.1), (np.nan, 1.0, 0.1),
                                             (1.0, np.nan, 0.1), (1.0, 1.0, np.nan)],
                             ids=["nan-weight", "nan-scalar-weight", "nan-rho", "nan-eps"])
    def test_nan_parameters_rejected(self, w, rho, eps):
        with pytest.raises(ValueError):
            shrink_singular_values([1.0, 2.0], w, rho, eps)

    def test_nan_value_shrinks_to_zero(self):
        # a value that a truncated factorization did not compute
        out = shrink_singular_values([np.nan, 3.0], 1.0, 1.0, 1.0)
        assert out[0] == 0.0 and out[1] == shrink_singular_values(3.0, 1.0, 1.0, 1.0)

    def test_strict_mode_matches_grid_oracle(self):
        rng = np.random.default_rng(8)
        flips = 0
        for _ in range(300):
            y = rng.uniform(0.0, 3.0)
            w = rng.uniform(0.0, 2.0)
            rho = rng.uniform(0.1, 2.0)
            eps = rng.uniform(0.01, 1.0)
            strict = shrink_singular_values(y, w, rho, eps, strict=True)
            default = shrink_singular_values(y, w, rho, eps)
            oracle = grid_min_shrink(y, w, rho, eps)
            assert abs(strict - oracle) <= 1e-5
            if default != strict:
                flips += 1
                # flips only happen in the near-threshold band, where the
                # branch rule keeps the interior root despite a lower value
                # at zero
                assert default > 0.0 and strict == 0.0
            else:
                assert abs(default - oracle) <= 1e-5
        assert flips < 60

    def test_two_stage_grid_agrees_with_full_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            y = rng.uniform(0.1, 1.5)
            w = rng.uniform(0.0, 1.0)
            rho = rng.uniform(0.2, 2.0)
            eps = rng.uniform(0.05, 0.5)
            full = np.arange(0.0, y + 1e-6, 1e-6)
            ref = float(full[np.argmin(shrink_objective(full, y, w, rho, eps))])
            assert abs(grid_min_shrink(y, w, rho, eps) - ref) <= 2e-6


def oracle_prox(y, w, rho, eps, strict=False):
    """Full-spectrum reference for weighted_log_prox.

    The half-spectrum weight columns are spread over all I3 Fourier
    slices, every slice is factored, all singular triplets are rebuilt
    with einsum, and the complex inverse FFT's real part is the result.
    Returns the half-spectrum columns of the values, as the prox does.
    """
    i3 = y.shape[2]
    ybar = np.fft.fft(y, axis=2)
    u, s, vh = np.linalg.svd(np.moveaxis(ybar, 2, 0), full_matrices=False)
    s_new = shrink_singular_values(s, mirror_columns(w, i3).T, rho / i3, eps, strict=strict)
    l = np.fft.ifft(np.einsum("kir,kr,krj->ijk", u, s_new, vh), axis=2).real
    return l, s_new.T[:, :i3 // 2 + 1], s.T[:, :i3 // 2 + 1]


def assert_matches_oracle(y, w, rho, eps, strict=False, basis=None):
    """The prox agrees with the full-spectrum reference to 1e-12, but for
    the original values that shrink to zero: the Gram route places those
    only as closely as its Gram matrix resolves their squares, to ``delta
    = 16 (I1 + I2) eps ||A||_F^2`` for slice A (the prox's docstring), so
    each value ``s`` to ``delta / max(s, sqrt(delta))``."""
    got = weighted_log_prox(y, w, rho, eps, strict=strict, basis=basis)
    ref = oracle_prox(y, w, rho, eps, strict=strict)
    i1, i2, _ = y.shape
    a_sq = np.sum(np.abs(np.fft.rfft(y, axis=2)) ** 2, axis=(0, 1))
    delta = 16 * (i1 + i2) * np.finfo(float).eps * a_sq
    floor = np.maximum(ref[2], np.sqrt(delta))  # 0 only in a zero slice
    resolved = np.divide(delta, floor, out=np.zeros_like(floor), where=floor > 0)
    for a, b, band in zip(got[:3], ref, (0.0, 0.0, np.where(ref[1] == 0, resolved, 0.0))):
        assert a.shape == b.shape
        assert np.all(np.abs(a - b) <= np.maximum(1e-12 * max(np.max(np.abs(b)), 1.0), band))
    return got


class TestProx:
    def test_zero_input(self):
        lam = np.full((3, 2), 0.7)
        l, w = prox_lgamma_norm(np.zeros((3, 4, 2)), lam, 5.0, 1.0, 0.1)
        assert not l.any()
        assert np.allclose(w, lam)

    def test_zero_target_is_identity(self):
        y = np.random.default_rng(10).standard_normal((3, 4, 2))
        l, w = prox_lgamma_norm(y, np.zeros((3, 2)), 5.0, 1.0, 0.1)
        assert np.allclose(l, y, atol=1e-12)
        assert not w.any()

    def test_objective_descends_and_beats_perturbations(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal((5, 4, 3))
        lam = np.ones((4, 3))
        gamma, rho, eps = 10.0, 2.0, 0.1

        def objective(l):
            return rho / 2 * np.linalg.norm(l - y) ** 2 + lgamma_norm(l, lam, gamma, eps)

        l, _ = prox_lgamma_norm(y, lam, gamma, rho, eps)
        base = objective(l)
        assert base <= objective(y) + 1e-10
        assert base <= objective(np.zeros_like(y)) + 1e-10

        # random rescalings of the shrunk singular values, same factors
        fac = t_svd(y)
        sigma = full_spectrum_sv(l)
        ybar = np.fft.fft(y, axis=2)
        for _ in range(200):
            scale = rng.uniform(0.6, 1.4, size=sigma.shape)
            lbar = np.empty_like(ybar)
            for i in range(3):
                u, s, vh = np.linalg.svd(ybar[:, :, i], full_matrices=False)
                lbar[:, :, i] = (u * (scale[:, i] * sigma[:, i])) @ vh
            perturbed = np.fft.ifft(lbar, axis=2).real
            assert base <= objective(perturbed) + 1e-8

    def test_slicewise_shrink_match(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal((4, 4, 3))
        # one weight per half-spectrum slice, i.e. per mirror pair of slices
        w = rng.uniform(0.1, 1.0, size=(4, 2))
        rho, eps = 2.0, 0.1
        l, sigma_new, sigma_old, _ = weighted_log_prox(y, w, rho, eps)
        # spatial quadratic scale rho becomes rho/I3 per Fourier slice
        assert np.allclose(
            sigma_new, shrink_singular_values(sigma_old, w, rho / 3, eps), atol=1e-12
        )
        for j in range(4):
            for i in range(2):
                oracle = grid_min_shrink(sigma_old[j, i], w[j, i], rho / 3, eps)
                strict = shrink_singular_values(
                    sigma_old[j, i], w[j, i], rho / 3, eps, strict=True
                )
                assert abs(strict - oracle) <= 1e-5

    @pytest.mark.parametrize("i3", [1, 2, 5, 6])
    @pytest.mark.parametrize("i1, i2", [(4, 7), (7, 4)])
    @pytest.mark.parametrize("strict", [False, True])
    def test_matches_full_spectrum_oracle(self, i1, i2, i3, strict):
        rng = np.random.default_rng(100 * i1 + i3)
        y = rng.standard_normal((i1, i2, i3))
        rho, eps = 2.0, 0.1
        # thresholds spread around the median singular value, so some
        # values are kept and some are shrunk to zero
        t = np.median(full_spectrum_sv(y))
        w = rng.uniform(0.5, 1.5, size=(min(i1, i2), i3 // 2 + 1)) * (rho / i3) * (t / 2) ** 2
        _, sigma_new, _, _ = assert_matches_oracle(y, w, rho, eps, strict=strict)
        assert 0 < np.count_nonzero(sigma_new) < sigma_new.size

    @pytest.mark.parametrize("i3", [1, 2, 5, 6])
    def test_kept_set_not_a_prefix(self, i3):
        rng = np.random.default_rng(14)
        y = rng.standard_normal((5, 6, i3))
        rho, eps = 2.0, 0.1
        # only index 2 escapes a heavy weight: one value kept per slice,
        # but the rebuild must reach index 2
        w = np.full((5, i3 // 2 + 1), 1e6)
        w[2] = 0.0
        _, sigma_new, sigma_old, _ = assert_matches_oracle(y, w, rho, eps)
        assert not np.delete(sigma_new, 2, axis=0).any()
        assert np.allclose(sigma_new[2], sigma_old[2], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("i3", [1, 2, 5, 6])
    def test_all_shrunk_is_exact_zero(self, i3):
        y = np.random.default_rng(15).standard_normal((4, 7, i3))
        l, sigma_new, sigma_old, _ = assert_matches_oracle(y, np.full((4, i3 // 2 + 1), 1e6),
                                                           2.0, 0.1)
        assert not l.any()
        assert not sigma_new.any()
        assert sigma_old.all()

    def test_output_is_real_and_finite(self):
        y = np.random.default_rng(13).standard_normal((6, 3, 4))
        l, _, _, _ = weighted_log_prox(y, np.full((3, 3), 0.5), 1.5, 0.05)
        assert np.isrealobj(l) and np.all(np.isfinite(l))

    def test_nonfinite_rejected(self):
        y = np.zeros((2, 2, 2))
        y[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            weighted_log_prox(y, np.ones((2, 2)), 1.0, 0.1)

    @pytest.mark.parametrize("i3", [5, 6])
    def test_full_width_weight_refused(self, i3):
        # one weight column per half-spectrum slice, so R x I3 is refused
        # with the shape it should have
        y = np.random.default_rng(17).standard_normal((3, 4, i3))
        with pytest.raises(ValueError, match=rf"\(3, {i3}\) does not match \(3, {i3 // 2 + 1}\)"):
            weighted_log_prox(y, np.ones((3, i3)), 1.0, 0.1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", ["nan-weight", "negative-weight", "misshapen-weight",
                                     "nan-rho", "zero-rho", "nan-eps"])
    def test_invalid_parameters_rejected_before_any_warning(self, bad):
        y = np.random.default_rng(16).standard_normal((3, 4, 2))
        w, rho, eps = np.ones((3, 2)), 1.0, 0.1
        if bad == "misshapen-weight":
            w = np.ones((4, 2))  # R x (I3 // 2 + 1) is 3 x 2
        elif bad.endswith("weight"):
            w[1, 0] = np.nan if bad.startswith("nan") else -1.0
        elif bad.endswith("rho"):
            rho = np.nan if bad.startswith("nan") else 0.0
        else:
            eps = np.nan
        with pytest.raises(ValueError):
            weighted_log_prox(y, w, rho, eps)

    @pytest.mark.parametrize("i1, i2, i3, rank", [(60, 60, 16, 5), (80, 60, 9, 20)])
    def test_full_svd_working_set(self, i1, i2, i3, rank):
        # While the SVD runs, a call holds the slices and the full factors
        # u and vh: three stacks of half-spectrum slices.  Only the kept
        # columns of the factors may outlive it.
        y, w, rho, eps = gapped_instance(i1, i2, i3, rank, seed=i1 + i3)
        peak, (_, sigma_new, _, _) = peak_bytes(lambda: weighted_log_prox(y, w, rho, eps))
        assert np.count_nonzero(sigma_new[:, 0]) == rank
        stack = (i3 // 2 + 1) * i1 * i2 * 16
        assert peak <= 3.5 * stack

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("i1, i2, i3, rank", [(60, 60, 16, 5), (80, 60, 9, 20),
                                                  (100, 100, 20, 40)])
    def test_full_path_working_set(self, i1, i2, i3, rank, strict, full_paths):
        # One buffer holds the slices, each slice is factored and rebuilt
        # in its place, and the real result is written over the buffer:
        # at most two stacks of half-spectrum slices at any time, under
        # either rule, also when so many values are kept that no basis is
        # handed on.
        y, w, rho, eps = gapped_instance(i1, i2, i3, rank, seed=i1 + i3)
        peak, (_, sigma_new, _, next_basis) = peak_bytes(
            lambda: weighted_log_prox(y, w, rho, eps, strict=strict))
        assert np.count_nonzero(sigma_new[:, 0]) == rank
        # a tall argument is factored through its transposed view
        assert full_paths == [(i3 // 2 + 1, min(i1, i2), max(i1, i2))] * 2
        # a basis only while rank + OVERSAMPLE <= MAX_WIDTH_FRACTION * R
        if rank + 5 <= 0.3 * min(i1, i2):
            assert next_basis.shape == (i3 // 2 + 1, min(i1, i2), rank + 5)
        else:
            assert next_basis is None
        stack = (i3 // 2 + 1) * i1 * i2 * 16
        assert peak <= 2.0 * stack

    @pytest.mark.parametrize("i1, i2, i3, rank", [(56, 48, 5, 3), (36, 28, 6, 2)])
    def test_tall_argument_matches_its_transpose(self, i1, i2, i3, rank):
        # a tall argument is factored through its transposed view: the same
        # values, the same warm-start basis shape and the same working set
        # as its transpose
        y, w, rho, eps = gapped_instance(i1, i2, i3, rank, seed=i1 + i3)
        yt = y.transpose(1, 0, 2)
        tall_peak, tall = peak_bytes(lambda: weighted_log_prox(y, w, rho, eps))
        wide_peak, wide = peak_bytes(lambda: weighted_log_prox(yt, w, rho, eps))
        assert np.max(np.abs(tall[0] - wide[0].transpose(1, 0, 2))) <= 1e-12 * np.max(
            np.abs(wide[0]))
        for got, ref in zip(tall[1:3], wide[1:3]):
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-14 * np.max(wide[2]))
        assert tall[3].shape == wide[3].shape == (i3 // 2 + 1, i2, rank + 5)
        assert abs(tall_peak - wide_peak) <= 0.05 * wide_peak
        sigma_old = weighted_log_prox(y, w, rho, eps, basis=tall[3])[2]
        assert np.isnan(sigma_old).any()


def peak_bytes(call):
    """The tracemalloc peak of ``call()`` and its result, after one
    untraced call for lazy imports and FFT plans."""
    call()
    tracemalloc.start()
    try:
        out = call()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def gapped_instance(i1, i2, i3, rank, seed, noise=1e-3):
    """Low tubal rank plus small noise, and a uniform weight whose shrink
    threshold sits in the gap between the signal and the noise values."""
    rng = np.random.default_rng(seed)
    y = t_product(rng.standard_normal((i1, rank, i3)), rng.standard_normal((rank, i2, i3)))
    y = y / np.max(np.abs(y)) + noise * rng.standard_normal((i1, i2, i3))
    sigma = fourier_singular_values(y)
    threshold = np.sqrt(sigma[rank - 1].min() * sigma[rank].max())
    rho, eps = 2.0, 1e-3
    w = np.full((min(i1, i2), i3 // 2 + 1), ((threshold + eps) / 2) ** 2 * rho / i3)
    return y, w, rho, eps


def assert_truncated_matches_oracle(y, w, rho, eps, basis, strict=False):
    """The warm-started prox took the truncated path and agrees with the
    full-spectrum reference to rounding."""
    l, sigma_new, sigma_old, next_basis = weighted_log_prox(y, w, rho, eps, strict=strict,
                                                            basis=basis)
    ref_l, ref_new, ref_old = oracle_prox(y, w, rho, eps, strict=strict)
    scale = max(np.max(np.abs(ref_l)), 1.0)
    assert np.max(np.abs(l - ref_l)) <= 1e-12 * scale
    assert np.max(np.abs(sigma_new - ref_new)) <= 1e-12 * max(np.max(ref_old), 1.0)
    # sigma_old: NaN past the computed p, never a value
    computed = ~np.isnan(sigma_old)
    p = int(computed[:, 0].sum())
    assert 0 < p < sigma_old.shape[0]
    assert computed[:p].all() and not computed[p:].any()
    kept = sigma_new > 0
    assert np.allclose(sigma_old[kept], ref_old[kept], rtol=1e-12, atol=0)
    # Ritz values never exceed the singular values they approximate
    assert np.all(sigma_old[:p] <= ref_old[:p] * (1 + 1e-12))
    return l, sigma_new, sigma_old, next_basis


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the arrays passed to ``np.linalg.svd``, in call order."""
    shapes = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return shapes


@pytest.fixture
def full_paths(monkeypatch):
    """Shapes of the stacks that the full path factors, in call order."""
    shapes = []
    shrink_slices = penalty._shrink_slices

    def counting_shrink_slices(a, *args):
        shapes.append(a.shape)
        return shrink_slices(a, *args)

    monkeypatch.setattr(penalty, "_shrink_slices", counting_shrink_slices)
    return shapes


class TestGramFullPath:
    """The full path factors each slice from the eigendecomposition of
    its Gram matrix and falls back to the SVD per slice."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("i3", [1, 2, 5, 6])
    @pytest.mark.parametrize("i1, i2", [(48, 56), (56, 48)])
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("kind", ["gapped", "zero-slices", "zero-weights"])
    def test_matches_svd_oracle(self, kind, strict, i1, i2, i3, svd_shapes):
        # a tensor constant along its tubes has every half-spectrum slice
        # but the first at zero; a zero weight keeps every value, zeros
        # included
        if kind == "zero-slices":
            y, w, rho, eps = gapped_instance(i1, i2, 1, 3, seed=i1 + i3)
            y, w = np.repeat(y, i3, axis=2), np.repeat(w, i3 // 2 + 1, axis=1)
        else:
            y, w, rho, eps = gapped_instance(i1, i2, i3, 3, seed=i1 + i3)
        if kind == "zero-weights":
            w = np.zeros_like(w)
        svd_shapes.clear()
        got = weighted_log_prox(y, w, rho, eps, strict=strict)
        factored = list(svd_shapes)
        assert_matches_oracle(y, w, rho, eps, strict=strict)
        # the route does not depend on the rule
        if kind == "zero-weights":
            # a negative threshold sends each slice to its own SVD
            assert factored == [(min(i1, i2), max(i1, i2))] * (i3 // 2 + 1)
        else:
            # every slice certified, exactly zero slices included
            assert factored == []
            assert 0 < np.count_nonzero(got[1]) < got[1].size

    @pytest.mark.parametrize("i1, i2, i3", [(48, 56, 5), (56, 48, 5), (100, 100, 6)])
    def test_zero_weights_skip_the_gram_route(self, i1, i2, i3, svd_shapes, monkeypatch):
        # a zero weight keeps every value, also those far below what the
        # Gram matrix resolves: each slice goes straight to its SVD, while
        # the gapped weights still certify every slice from its Gram matrix
        grams = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            grams.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        y, w, rho, eps = gapped_instance(i1, i2, i3, 3, seed=1)
        half, r, n = i3 // 2 + 1, min(i1, i2), max(i1, i2)
        for weights, gram_slices, svd_slices in ((w, half, 0), (np.zeros_like(w), 0, half)):
            grams.clear()
            svd_shapes.clear()
            weighted_log_prox(y, weights, rho, eps)
            assert grams == [(r, r)] * gram_slices
            assert svd_shapes == [(r, n)] * svd_slices
            assert_matches_oracle(y, weights, rho, eps)

    @pytest.mark.parametrize("i1, i2", [(20, 24), (24, 20)])
    def test_small_slices_take_one_batched_svd(self, i1, i2, svd_shapes):
        y, w, rho, eps = gapped_instance(i1, i2, 6, 3, seed=i1)
        assert min(i1, i2) < penalty.GRAM_MIN_RANK
        svd_shapes.clear()
        weighted_log_prox(y, w, rho, eps)
        assert svd_shapes == [(4, max(i1, i2), min(i1, i2))]
        assert_matches_oracle(y, w, rho, eps)

    def test_triplets_failing_the_residual_test_fall_back_to_the_svd(self, svd_shapes,
                                                                      monkeypatch):
        # leading eigenvectors turned by 1e-6 rad keep their eigenvalues,
        # so every slice passes the band test, fails the residual test and
        # is factored by its own SVD
        y, w, rho, eps = gapped_instance(60, 60, 6, 3, seed=1)
        eigh, gram_triplets = np.linalg.eigh, penalty._gram_triplets
        turn = np.array([[np.cos(1e-6), -np.sin(1e-6)], [np.sin(1e-6), np.cos(1e-6)]])
        refused = []

        def turned_eigh(a, *args, **kwargs):
            lam, vec = eigh(a, *args, **kwargs)
            vec[:, [-1, -2]] = vec[:, [-1, -2]] @ turn
            return lam, vec

        def recording_gram_triplets(*args):
            triplets = gram_triplets(*args)
            refused.append(triplets is None)
            return triplets

        monkeypatch.setattr(np.linalg, "eigh", turned_eigh)
        monkeypatch.setattr(penalty, "_gram_triplets", recording_gram_triplets)
        svd_shapes.clear()
        weighted_log_prox(y, w, rho, eps)
        assert refused == [True] * 4
        assert svd_shapes == [(60, 60)] * 4
        assert_matches_oracle(y, w, rho, eps)

    @pytest.mark.parametrize("i1, i2", [(48, 56), (56, 48)])
    def test_value_within_band_falls_back_for_that_slice_alone(self, i1, i2):
        # slice 1's fourth value sits 1e-13 below its threshold, inside the
        # rounding band of its Gram eigenvalues: that slice alone, or its
        # transpose when it is tall, is factored by the SVD, and the result
        # still matches the oracle
        i3 = 5
        y, w, rho, eps = gapped_instance(i1, i2, i3, 3, seed=7)
        slices = np.moveaxis(np.fft.rfft(y, axis=2), 2, 0)
        if i1 > i2:
            slices = slices.transpose(0, 2, 1)
        planted = np.linalg.svd(slices[1], compute_uv=False)[3] * (1 + 1e-13)
        w[3, 1] = ((planted + eps) / 2) ** 2 * rho / i3
        args = []
        svd = np.linalg.svd

        def recording_svd(a, *rest, **kwargs):
            args.append(np.array(a))
            return svd(a, *rest, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "svd", recording_svd)
            weighted_log_prox(y, w, rho, eps)
        assert [a.shape for a in args] == [(min(i1, i2), max(i1, i2))]
        assert np.array_equal(args[0], slices[1])
        _, sigma_new, sigma_old, _ = assert_matches_oracle(y, w, rho, eps)
        assert sigma_new[3, 1] == 0.0 and sigma_old[3, 1] < planted


class TestTruncatedProx:
    @pytest.mark.parametrize("i3", [1, 2, 5, 6])
    @pytest.mark.parametrize("i1, i2", [(28, 36), (36, 28)])
    @pytest.mark.parametrize("strict", [False, True])
    def test_warm_started_sequence_matches_full_spectrum_oracle(self, i1, i2, i3, strict):
        y, w, rho, eps = gapped_instance(i1, i2, i3, 2, seed=i1 + i3)
        drift = np.random.default_rng(i3).standard_normal(y.shape)
        # the first call factors every slice in full and returns a basis
        _, sigma_new, sigma_old, basis = weighted_log_prox(y, w, rho, eps, strict=strict)
        assert not np.isnan(sigma_old).any()
        assert basis.shape == (i3 // 2 + 1, min(i1, i2), 2 + 5)
        for step in range(1, 4):
            y_step = y + 1e-3 * step * drift
            _, sigma_new, _, basis = assert_truncated_matches_oracle(y_step, w, rho, eps, basis,
                                                                     strict)
            assert 0 < np.count_nonzero(sigma_new) < sigma_new.size

    @pytest.mark.parametrize("i3", [1, 2, 5, 6])
    @pytest.mark.parametrize("i1, i2", [(28, 36), (36, 28)])
    def test_certified_call_factors_one_ritz_block(self, i1, i2, i3, svd_shapes):
        # bare power steps between the warm start and the one Rayleigh-Ritz
        # step: a single SVD of Q^H A per call, and no full one
        y, w, rho, eps = gapped_instance(i1, i2, i3, 2, seed=i1 + i3)
        drift = np.random.default_rng(i3).standard_normal(y.shape)
        basis = weighted_log_prox(y, w, rho, eps)[3]
        half, p = i3 // 2 + 1, basis.shape[2]
        for step in range(1, 4):
            svd_shapes.clear()
            _, _, sigma_old, basis = weighted_log_prox(y + 1e-3 * step * drift, w, rho, eps,
                                                       basis=basis)
            assert np.isnan(sigma_old).any()
            assert svd_shapes == [(half, p, max(i1, i2))]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("i3", [1, 2, 5, 6])
    @pytest.mark.parametrize("weight", ["gapped", "zero"])
    @pytest.mark.parametrize("kind", ["constant-tubes", "gapped"])
    def test_random_basis_and_zero_slices_match_oracle(self, kind, weight, i3):
        # a tensor constant along its tubes has every half-spectrum slice
        # but the first at zero; a random basis is far from every singular
        # direction; a zero weight keeps every value, zeros included
        if kind == "constant-tubes":
            y, w, rho, eps = gapped_instance(36, 40, 1, 3, seed=50 + i3)
            y, w = np.repeat(y, i3, axis=2), np.repeat(w, i3 // 2 + 1, axis=1)
        else:
            y, w, rho, eps = gapped_instance(36, 40, i3, 3, seed=50 + i3)
        if weight == "zero":
            w = np.zeros_like(w)
        rng = np.random.default_rng(60 + i3)
        shape = (i3 // 2 + 1, 36, 3 + 5)
        basis = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
        truncated = np.isnan(weighted_log_prox(y, w, rho, eps, basis=basis)[2]).any()
        check = assert_truncated_matches_oracle if truncated else assert_matches_oracle
        check(y, w, rho, eps, basis=basis)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("i3", [1, 2, 5, 6])
    def test_basis_column_in_null_space(self, i3, svd_shapes):
        # the last basis columns sit on zero rows, so A A^H maps them to
        # exact zeros; the contraction rate comes from the columns before
        # them, and the predicted power steps reach the residual test
        y, w, rho, eps = gapped_instance(36, 40, i3, 3, seed=80 + i3)
        y[30:] = 0.0
        rng = np.random.default_rng(90 + i3)
        half = i3 // 2 + 1
        basis = np.zeros((half, 36, 3 + 5), dtype=complex)
        basis[:, :30, :5] = np.linalg.qr(rng.standard_normal((half, 30, 5)))[0]
        basis[:, 30:33, 5:] = np.eye(3)
        svd_shapes.clear()
        assert_truncated_matches_oracle(y, w, rho, eps, basis)
        # one Rayleigh-Ritz step, then the oracle's full-spectrum SVD
        assert svd_shapes == [(half, 8, 40), (i3, 36, 40)]

    @pytest.mark.parametrize("i3", [1, 2, 5, 6])
    def test_result_is_c_contiguous(self, i3):
        y, w, rho, eps = gapped_instance(28, 36, i3, 2, seed=70 + i3)
        l, _, _, basis = weighted_log_prox(y, w, rho, eps)
        assert l.flags.c_contiguous
        l, _, sigma_old, _ = weighted_log_prox(y, w, rho, eps, basis=basis)
        assert np.isnan(sigma_old).any()
        assert l.flags.c_contiguous

    @pytest.mark.parametrize("i3", [1, 2, 5, 6])
    def test_kept_set_not_a_prefix(self, i3):
        y, w, rho, eps = gapped_instance(36, 40, i3, 3, seed=20 + i3)
        # only index 2 escapes a heavy weight: the rebuild must reach it
        w = np.full_like(w, 1e6)
        w[2] = 0.0
        basis = weighted_log_prox(y, w, rho, eps)[3]
        _, sigma_new, _, _ = assert_truncated_matches_oracle(y, w, rho, eps, basis)
        assert not np.delete(sigma_new, 2, axis=0).any()
        assert sigma_new[2].all()

    @pytest.mark.parametrize("i3", [1, 2, 5, 6])
    def test_all_shrunk_is_exact_zero(self, i3):
        y, w, rho, eps = gapped_instance(24, 30, i3, 2, seed=30 + i3)
        w = np.full_like(w, 1e6)
        basis = weighted_log_prox(y, w, rho, eps)[3]
        l, sigma_new, _, _ = assert_truncated_matches_oracle(y, w, rho, eps, basis)
        assert not l.any()
        assert not sigma_new.any()

    def test_empty_or_mismatched_basis_factors_in_full(self):
        y, w, rho, eps = gapped_instance(28, 36, 5, 2, seed=40)
        ref = weighted_log_prox(y, w, rho, eps)
        mismatched = np.linalg.qr(np.ones((3, 30, 7), dtype=complex))[0]
        # not a (half, R, p) array with 0 < p < R
        malformed = [np.ones(shape, dtype=complex) for shape in [(3, 28), (3, 28, 0),
                                                                 (3, 28, 2, 1)]]
        # of the right shape, but not finite, or finite and so large that
        # the first power step would overflow
        not_finite = [np.linalg.qr(np.ones((3, 28, 7), dtype=complex))[0] for _ in range(2)]
        not_finite[0][1, 2, 3] = np.nan
        not_finite[1][0, 5, 0] = np.inf
        huge = np.full((3, 28, 7), 1e300, dtype=complex)
        for basis in (None, mismatched, *malformed, *not_finite, huge):
            got = weighted_log_prox(y, w, rho, eps, basis=basis)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))
            assert got[3].shape == (3, 28, 2 + 5)

    def test_basis_too_narrow_for_kept_set_falls_back(self):
        y, w, rho, eps = gapped_instance(36, 44, 5, 4, seed=41)
        # four values survive per slice, but the basis spans only two
        slices = np.moveaxis(np.fft.rfft(y, axis=2), 2, 0)
        narrow = np.linalg.svd(slices)[0][:, :, :2]
        _, sigma_new, sigma_old, basis = assert_matches_oracle(y, w, rho, eps, basis=narrow)
        assert np.count_nonzero(sigma_new[:, 0]) == 4
        assert not np.isnan(sigma_old).any()
        # the fallback's own factors seed the next call
        assert basis.shape == (3, 36, 4 + 5)

    def test_schatten_rung_reduces_no_whole_array(self, no_whole_array_dot, monkeypatch):
        # a threshold 80 % of the way (in log scale) from the signal's
        # smallest value to the noise's largest: the Frobenius bound on the
        # tail certifies no slice, and each of the 4 slices is certified
        # by the Schatten bounds of its 120 x 120 residual Gram matrix
        y, w, rho, eps = gapped_instance(120, 120, 6, 3, seed=126)
        sigma = fourier_singular_values(y)
        signal, noise = sigma[2].min(), sigma[3].max()
        threshold = signal * (noise / signal) ** 0.8
        w = np.full_like(w, ((threshold + eps) / 2) ** 2 * rho / 6)
        basis = weighted_log_prox(y, w, rho, eps)[3]
        certified = penalty._certified
        verdicts = []

        def recording_certified(*args):
            verdict = certified(*args)
            verdicts.append(verdict.tolist())
            return verdict

        monkeypatch.setattr(penalty, "_certified", recording_certified)
        assert_truncated_matches_oracle(y, w, rho, eps, basis)
        assert verdicts == [[False] * 4] + [[True]] * 4

    @staticmethod
    def flat_tail_instance():
        """One 40 x 48 slice: three clear values, then a flat tail just
        below the threshold, which no norm bound on the residual can
        certify; the basis holds the exact leading vectors."""
        rng = np.random.default_rng(42)
        i1, i2 = 40, 48
        left = np.linalg.qr(rng.standard_normal((i1, i1)))[0]
        right = np.linalg.qr(rng.standard_normal((i2, i1)))[0]
        rho, eps = 2.0, 1e-3
        threshold = 1.0
        sigma = np.concatenate([[10.0, 8.0, 6.0], np.linspace(0.99, 0.98, i1 - 3)])
        y = ((left * sigma) @ right.T)[:, :, None]
        w = np.full((i1, 1), ((threshold + eps) / 2) ** 2 * rho)
        basis = left[None, :, :3 + 5].astype(complex)
        return y, w, rho, eps, basis

    def test_uncertified_tail_falls_back(self):
        y, w, rho, eps, basis = self.flat_tail_instance()
        _, sigma_new, sigma_old, next_basis = assert_matches_oracle(y, w, rho, eps, basis=basis)
        assert np.count_nonzero(sigma_new) == 3
        assert not np.isnan(sigma_old).any()
        # the exact spectrum shows the same tail, so no basis is returned
        assert next_basis is None

    def test_uncertified_tail_falls_back_after_one_ritz_step(self, svd_shapes, full_paths):
        # the Ritz triplets converge at once; when the certificate fails on
        # them, the full path follows without another power step
        y, w, rho, eps, basis = self.flat_tail_instance()
        weighted_log_prox(y, w, rho, eps, basis=basis)
        # the full path's batched SVD factors the n x R view
        assert svd_shapes == [(1, 8, 48), (1, 48, 40)]
        assert full_paths == [(1, 40, 48)]

    def test_unconverged_triplets_fall_back_after_one_ritz_step(self, svd_shapes, full_paths,
                                                               monkeypatch):
        # one 20 x 24 slice whose three kept values sit in a tight cluster
        # with the values just past the basis: every power step is taken,
        # the residual test still fails, and the full path follows without
        # a certificate.  The basis is wider than MAX_WIDTH_FRACTION of
        # the rank, so the fallback returns no basis and certifies nothing.
        rng = np.random.default_rng(44)
        i1, i2 = 20, 24
        left = np.linalg.qr(rng.standard_normal((i1, i1)))[0]
        right = np.linalg.qr(rng.standard_normal((i2, i1)))[0]
        sigma = np.concatenate([np.linspace(2.0, 1.9, 12), np.linspace(0.5, 0.1, i1 - 12)])
        y = ((left * sigma) @ right.T)[:, :, None]
        rho, eps = 2.0, 1e-3
        threshold = np.full(i1, 10.0)
        threshold[:3] = 1.0
        w = (((threshold + eps) / 2) ** 2 * rho)[:, None]
        basis = np.linalg.qr(left[:, :3 + 5] + 1e-3 * rng.standard_normal((i1, 3 + 5)))[0]
        steps, certified = [], []
        power_steps = penalty._power_steps

        def recording_power_steps(*args):
            steps.append(power_steps(*args))
            return steps[-1]

        monkeypatch.setattr(penalty, "_power_steps", recording_power_steps)
        monkeypatch.setattr(penalty, "_certified", lambda *args: certified.append(args))
        _, sigma_new, sigma_old, next_basis = assert_matches_oracle(
            y, w, rho, eps, basis=basis[None].astype(complex))
        assert steps == [penalty.POWER_STEPS]
        assert not certified
        # one Rayleigh-Ritz step, one full-path factorization (its batched
        # SVD, of the n x R view), then the oracle's SVD
        assert svd_shapes == [(1, 8, 24), (1, 24, 20), (1, 20, 24)]
        assert full_paths == [(1, 20, 24)]
        assert np.count_nonzero(sigma_new) == 3
        assert not np.isnan(sigma_old).any()
        assert next_basis is None


    def test_basis_missing_a_kept_direction_falls_back(self):
        # the basis lacks the third singular direction; the Ritz values it
        # finds have zero residual, and per index every keep/zero decision
        # of the Ritz values is right, but the third kept value is 4.5
        # where it should be 5
        rng = np.random.default_rng(43)
        i1, i2 = 40, 48
        left = np.linalg.qr(rng.standard_normal((i1, i1)))[0]
        right = np.linalg.qr(rng.standard_normal((i2, i1)))[0]
        sigma = np.concatenate([[10.0, 9.0, 5.0, 4.5], np.linspace(1.0, 0.5, i1 - 4)])
        y = ((left * sigma) @ right.T)[:, :, None]
        rho, eps = 2.0, 1e-3
        threshold = np.full(i1, 6.0)
        threshold[:3] = 4.0
        threshold[3] = 5.2
        w = (((threshold + eps) / 2) ** 2 * rho)[:, None]
        basis = left[None, :, [0, 1, 3, 4, 5, 6, 7, 8]].astype(complex)
        _, sigma_new, sigma_old, _ = assert_matches_oracle(y, w, rho, eps, basis=basis)
        assert np.count_nonzero(sigma_new) == 3
        assert not np.isnan(sigma_old).any()


class TestOverwriteArgument:
    """``overwrite_y=True`` transforms an argument that starts a buffer with
    room over that buffer, and returns the default's result bit for bit."""

    @staticmethod
    def assert_same(got, ref):
        for a, b in zip(got, ref):
            assert (a is None and b is None) or np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("i3", [1, 2, 5, 6])
    @pytest.mark.parametrize("i1, i2", [(28, 36), (36, 28), (48, 52)])
    @pytest.mark.parametrize("strict", [False, True])
    def test_matches_the_default_bitwise(self, i1, i2, i3, strict):
        # a new buffer first, then each call's result as the next argument,
        # as a solver's surrogate is; the full path (batched SVD, or the Gram
        # route at R = 48), then the Ritz step from the returned basis
        y, w, rho, eps = gapped_instance(i1, i2, i3, 2, seed=i1 + i3)
        drift = np.random.default_rng(i3).standard_normal(y.shape)
        arg, basis = penalty.prox_buffer(y.shape), None
        for step in range(3):
            y_step = y + 1e-3 * step * drift
            ref = weighted_log_prox(y_step, w, rho, eps, strict=strict, basis=basis)
            arg[...] = y_step
            got = weighted_log_prox(arg, w, rho, eps, strict=strict, basis=basis,
                                    overwrite_y=True)
            assert np.shares_memory(got[0], arg)
            self.assert_same(got, ref)
            assert np.isnan(ref[2]).any() == (step > 0)
            arg, basis = got[0], ref[3]

    @pytest.mark.parametrize("kind", ["exact-size", "read-only", "non-contiguous", "offset"])
    def test_argument_without_room_is_left_as_it_was(self, kind):
        y, w, rho, eps = gapped_instance(28, 36, 6, 2, seed=3)
        if kind == "exact-size":
            arg = y.copy()
        elif kind == "read-only":
            arg = penalty.prox_buffer(y.shape)
            arg[...] = y
            arg.flags.writeable = False
        elif kind == "non-contiguous":
            arg = penalty.prox_buffer((28, 36, 12))[:, :, ::2]
            arg[...] = y
        else:  # C-contiguous and writeable, but not at the start of its buffer
            arg = np.empty(4 * y.size)[y.size:2 * y.size].reshape(y.shape)
            arg[...] = y
        kept = arg.copy()
        got = weighted_log_prox(arg, w, rho, eps, overwrite_y=True)
        assert np.array_equal(arg, kept) and not np.shares_memory(got[0], arg)
        self.assert_same(got, weighted_log_prox(y, w, rho, eps))


class TestWeightUpdates:
    def test_documented_value(self):
        # gamma=2, rho=1, lam=1, w=1, sigma=e-1, eps=1 -> (2 + 1 - 1)/3
        out = update_weights(np.full((1, 1), np.e - 1), np.ones((1, 1)), np.ones((1, 1)),
                             2.0, 1.0, 1.0)
        assert out[0, 0] == pytest.approx(2.0 / 3.0)

    def test_zero_sigma_no_clamp(self):
        out = update_weights(np.zeros((2, 2)), np.full((2, 2), 0.5), np.full((2, 2), 1.5),
                             2.0, 1.0, 1.0)
        assert np.allclose(out, (2.0 * 1.5 + 0.5) / 3.0)

    def test_clamp_active_for_large_sigma(self):
        out = update_weights(np.full((1, 1), 1e12), np.ones((1, 1)), np.ones((1, 1)),
                             1.0, 0.5, 0.01)
        assert out[0, 0] == 0.0

    def test_matches_quadratic_grid(self):
        rng = np.random.default_rng(14)
        sigma = rng.uniform(0, 5, size=(3, 2))
        w_old, lam_bar = rng.uniform(0, 2, (3, 2)), rng.uniform(0, 2, (3, 2))
        gamma, rho, eps = 3.0, 0.7, 0.2
        out = update_weights(sigma, w_old, lam_bar, gamma, rho, eps)
        t = np.log1p(sigma / eps)
        grid = np.linspace(0, 4, 400_001)
        for idx in np.ndindex(3, 2):
            vals = (
                grid * t[idx]
                + gamma / 2 * (grid - lam_bar[idx]) ** 2
                + rho / 2 * (grid - w_old[idx]) ** 2
            )
            assert abs(out[idx] - grid[np.argmin(vals)]) <= 1e-5

    @pytest.mark.parametrize("w_old, lam_bar, message", [
        (np.full((2, 2), -0.1), np.ones((2, 2)), "must be non-negative"),
        (np.ones((2, 2)), np.full((2, 2), -0.1), "must be non-negative"),
        (np.ones((2, 2)), np.ones((2, 3)), "shapes differ"),
        (np.full((2, 2), np.nan), np.ones((2, 2)), "must be non-negative"),
        (np.ones((2, 2)), np.full((2, 2), np.nan), "must be non-negative"),
    ], ids=["negative-w", "negative-target", "mismatched-shapes", "nan-w", "nan-target"])
    def test_refuses_invalid_weights(self, w_old, lam_bar, message):
        with pytest.raises(ValueError, match=message):
            update_weights(np.zeros((2, 2)), w_old, lam_bar, 2.0, 1.0, 1.0)

    def test_refuses_nan_rho(self):
        with pytest.raises(ValueError, match="rho must be non-negative"):
            update_weights(np.zeros((2, 2)), np.ones((2, 2)), np.ones((2, 2)), 2.0, np.nan, 1.0)

    @pytest.mark.parametrize("gamma, rho", [(np.nan, 1.0), (2.0, np.nan)])
    def test_lambda_bar_refuses_nan(self, gamma, rho):
        with pytest.raises(ValueError):
            update_lambda_bar(np.ones((2, 2)), np.ones((2, 2)), gamma, rho)

    def test_lambda_bar_update(self):
        # gamma=2, rho=1, w=0.9, lam=0.3 -> 0.7
        out = update_lambda_bar(np.full((1, 1), 0.9), np.full((1, 1), 0.3), 2.0, 1.0)
        assert out[0, 0] == pytest.approx(0.7)
        # fixed point and rho=0 degeneration
        w = np.full((2, 3), 0.4)
        assert np.allclose(update_lambda_bar(w, w, 5.0, 2.0), w)
        assert np.allclose(update_lambda_bar(w, np.zeros((2, 3)), 5.0, 0.0), w)
