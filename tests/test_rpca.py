import numpy as np
import pytest

from tenrec import NoiseSpec, SolverConfig, add_mixed_noise, decompose, gen_lowrank, soft_threshold
from tenrec.algebra import unfold_mode_pair
from tenrec.completion import update_m_pair
from tenrec.rpca import update_e, update_l, update_n

from test_completion import estimate_error, memory_orders, pull_of

RAW_CFG = SolverConfig(beta=(1.0, 0.0, 0.0), mu0=2e-3, rho0=2.3e-6, growth=1.08,
                       gamma=1e4, epsilon=0.21, penalty_tau=6e-5, tau1_scale=0.3,
                       tol=2e-4, max_iter=500)


class TestSoftThreshold:
    def test_inside_band_is_zero(self):
        assert soft_threshold(0.3, 0.5) == 0.0
        assert soft_threshold(-0.5, 0.5) == 0.0

    def test_outside_band(self):
        assert soft_threshold(2.0, 0.5) == pytest.approx(1.5)
        assert soft_threshold(-2.0, 0.5) == pytest.approx(-1.5)

    def test_zero_threshold_is_identity(self):
        x = np.random.default_rng(0).standard_normal((4, 5))
        assert np.array_equal(soft_threshold(x, 0.0), x)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, np.nan)
        with pytest.raises(ValueError):
            soft_threshold(np.ones(3), np.array([0.1, np.nan, 0.1]))


class TestUpdatePieces:
    def test_l_update_fixed_point(self):
        rng = np.random.default_rng(1)
        l = rng.standard_normal((4, 4, 3))
        t = l.copy()
        zero = np.zeros_like(l)
        g = [unfold_mode_pair(l, 0, 1)]
        r = [np.zeros_like(g[0])]
        out = update_l(t, zero, zero, zero, l, *pull_of([(0, 1)], [1.0], g, r, 0.7, l.shape),
                       0.4, 0.2)
        assert np.allclose(out, l, atol=1e-12)

    def test_l_update_single_pair_unit_scalars(self):
        # everything zero except the data: L = tau*T / (mu + tau + rho) = T/3
        t = np.random.default_rng(2).standard_normal((3, 3, 2))
        zero = np.zeros_like(t)
        g = [np.zeros((3, 3, 2))]
        r = [np.zeros((3, 3, 2))]
        out = update_l(t, zero, zero, zero, zero, *pull_of([(0, 1)], [1.0], g, r, 1.0, t.shape),
                       1.0, 1.0)
        assert np.allclose(out, t / 3.0, atol=1e-12)

    def test_l_update_matches_transcription(self):
        rng = np.random.default_rng(3)
        shape = (4, 3, 5)
        t = rng.standard_normal(shape)
        e = rng.standard_normal(shape)
        n = rng.standard_normal(shape)
        f = rng.standard_normal(shape)
        l = rng.standard_normal(shape)
        pairs = [(0, 1), (0, 2), (1, 2)]
        betas = [0.5, 0.3, 0.2]
        g = [rng.standard_normal(unfold_mode_pair(l, *p).shape) for p in pairs]
        r = [rng.standard_normal(unfold_mode_pair(l, *p).shape) for p in pairs]
        mu, ptau, rho = 0.7, 0.4, 0.1
        out = update_l(t, e, n, f, l, *pull_of(pairs, betas, g, r, mu, shape), ptau, rho)

        from tenrec.algebra import fold_mode_pair

        num = ptau * (t - e - n) + f + rho * l
        den = ptau + rho
        for p, b, gp, rp in zip(pairs, betas, g, r):
            num = num + b * fold_mode_pair(mu * gp - rp, p[0], p[1], shape)
            den += b * mu
        assert np.allclose(out, num / den, atol=1e-12)

    def test_e_update_below_threshold_zero(self):
        t = np.full((3, 3, 2), 0.01)
        zero = np.zeros_like(t)
        out = update_e(t, zero, zero, zero, zero, ptau=1.0, tau1=5.0, rho=1.0)
        assert not out.any()

    def test_e_update_zero_tau1_is_average(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((3, 3, 2))
        l = rng.standard_normal((3, 3, 2))
        n = rng.standard_normal((3, 3, 2))
        e = rng.standard_normal((3, 3, 2))
        f = rng.standard_normal((3, 3, 2))
        ptau, rho = 0.8, 0.3
        out = update_e(t, l, n, e, f, ptau, 0.0, rho)
        expected = (ptau * (t - l - n + f / ptau) + rho * e) / (ptau + rho)
        assert np.allclose(out, expected, atol=1e-12)

    def test_e_update_matches_elementwise_oracle(self):
        rng = np.random.default_rng(5)
        shape = (3, 4, 2)
        t, l, n, e, f = (rng.standard_normal(shape) for _ in range(5))
        ptau, tau1, rho = 0.6, 0.25, 0.15
        out = update_e(t, l, n, e, f, ptau, tau1, rho)
        lam = tau1 / (ptau + rho)
        for idx in np.ndindex(*shape):
            arg = (ptau * (t[idx] - l[idx] - n[idx] + f[idx] / ptau) + rho * e[idx]) / (
                ptau + rho
            )
            assert out[idx] == pytest.approx(soft_threshold(arg, lam))

    def test_e_update_minimises_its_subproblem(self):
        rng = np.random.default_rng(6)
        shape = (3, 3, 2)
        t, l, n, e, f = (rng.standard_normal(shape) for _ in range(5))
        ptau, tau1, rho = 0.6, 0.25, 0.15
        out = update_e(t, l, n, e, f, ptau, tau1, rho)

        def obj(x):
            return (
                tau1 * np.sum(np.abs(x))
                + 0.5 * ptau * np.sum((t - l - x - n + f / ptau) ** 2)
                + 0.5 * rho * np.sum((x - e) ** 2)
            )

        base = obj(out)
        for _ in range(100):
            assert base <= obj(out + 0.01 * rng.standard_normal(shape)) + 1e-12

    def test_n_update_zero_residual(self):
        rng = np.random.default_rng(7)
        l = rng.standard_normal((3, 3, 2))
        e = rng.standard_normal((3, 3, 2))
        t = l + e
        zero = np.zeros_like(t)
        out = update_n(t, l, e, zero, zero, 1.0, 0.5, 0.1)
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_n_update_large_tau2_vanishes(self):
        rng = np.random.default_rng(8)
        shape = (3, 3, 2)
        t, l, e, n, f = (rng.standard_normal(shape) for _ in range(5))
        out = update_n(t, l, e, n, f, 1.0, 1e12, 0.1)
        assert np.max(np.abs(out)) <= 1e-10

    def test_n_update_matches_transcription(self):
        rng = np.random.default_rng(9)
        shape = (4, 3, 2)
        t, l, e, n, f = (rng.standard_normal(shape) for _ in range(5))
        ptau, tau2, rho = 0.7, 2.0, 0.3
        out = update_n(t, l, e, n, f, ptau, tau2, rho)
        expected = (ptau * (t - l - e) + f + rho * n) / (2 * tau2 + ptau + rho)
        assert np.allclose(out, expected, atol=1e-12)


class TestSolve:
    def test_zero_observation(self):
        report = decompose(np.zeros((6, 6, 3)), RAW_CFG)
        for name in ("L", "E", "N"):
            assert not report.tensors[name].any()
        assert report.converged

    def test_clean_lowrank_recovered_with_zero_sparse_part(self):
        t = gen_lowrank((30, 30, 10), 2, seed=11)
        report = decompose(t, RAW_CFG)
        assert estimate_error(report, t) <= 1e-2
        e = report.tensors["E"]
        assert np.sum(np.abs(e)) / e.size <= 1e-4

    def test_mixed_noise_recovery(self):
        l_true = gen_lowrank((30, 30, 10), 2, seed=7)
        t = add_mixed_noise(l_true, NoiseSpec(sp_fraction=0.10, gaussian_sigma=0.05, seed=7))
        report = decompose(t, RAW_CFG)
        assert estimate_error(report, l_true) <= 5e-2
        assert report.converged

    def test_decomposition_residual_below_1e3(self):
        l_true = gen_lowrank((30, 30, 10), 2, seed=7)
        t = add_mixed_noise(l_true, NoiseSpec(sp_fraction=0.10, gaussian_sigma=0.05, seed=7))
        report = decompose(t, RAW_CFG)
        resid = report.trace[-1]["residual_fro"] / np.linalg.norm(t)
        assert resid <= 1e-3

    def test_large_tau1_forces_zero_sparse_part(self):
        rng = np.random.default_rng(10)
        t = rng.standard_normal((8, 8, 4))
        cfg = RAW_CFG.updated(tau1_scale=1e9, max_iter=20, tol=1e-12)
        report = decompose(t, cfg)
        assert not report.tensors["E"].any()

    def test_multiplier_residual_decays(self):
        l_true = gen_lowrank((20, 20, 6), 2, seed=12)
        t = add_mixed_noise(l_true, NoiseSpec(sp_fraction=0.05, gaussian_sigma=0.02, seed=3))
        report = decompose(t, RAW_CFG.updated(max_iter=80, tol=1e-14))
        resid = [row["residual_fro"] for row in report.trace]
        assert resid[-1] < resid[0]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            decompose(np.full((3, 3, 2), np.nan), RAW_CFG)
        with pytest.raises(ValueError):
            decompose(np.zeros((3, 3, 2)), SolverConfig(growth=0.5))

    def test_surrogate_update_shared_with_completion(self):
        # the robust-PCA surrogate step is the completion surrogate step
        # with (L, R, G) in place of (Z, Q, M)
        rng = np.random.default_rng(13)
        l = rng.standard_normal((6, 5, 4))
        g = unfold_mode_pair(l, 0, 1) + 0.1 * rng.standard_normal((6, 5, 4))
        r = 0.05 * rng.standard_normal((6, 5, 4))
        w = np.full((5, 3), 0.7)  # R x (I3 // 2 + 1)
        mu, rho1, eps = 0.9, 0.99, 0.1
        g_new, _, _, _ = update_m_pair(g, unfold_mode_pair(l, 0, 1), r, w, mu, rho1, eps)
        arg = g + (mu * unfold_mode_pair(l, 0, 1) + r - mu * g) / rho1
        from tenrec.penalty import weighted_log_prox

        ref, _, _, _ = weighted_log_prox(arg, w, rho1, eps)
        assert np.allclose(g_new, ref, atol=1e-12)


class TestMemoryOrder:
    def test_input_memory_order_does_not_change_the_result(self, monkeypatch):
        import tenrec.rpca as rpca_mod

        data = []

        def recording(t, *args):
            data.append(t)
            return update_l(t, *args)

        monkeypatch.setattr(rpca_mod, "update_l", recording)
        l_true = gen_lowrank((20, 20, 6), 2, seed=14)
        t = add_mixed_noise(l_true, NoiseSpec(sp_fraction=0.05, gaussian_sigma=0.02, seed=4))
        cfg = RAW_CFG.updated(max_iter=30)
        inputs = memory_orders(t)
        assert not inputs["strided"].flags.c_contiguous
        results = {order: decompose(x, cfg) for order, x in inputs.items()}
        # the sweep runs on a C-ordered copy of the data
        assert all(t.flags.c_contiguous for t in data)
        ref = results["C"]
        for report in results.values():
            assert report.iterations == ref.iterations
            for name in ("L", "E", "N"):
                assert np.array_equal(report.tensors[name], ref.tensors[name])
                assert report.tensors[name].flags.c_contiguous
