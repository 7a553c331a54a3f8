from types import SimpleNamespace

import numpy as np
import pytest

from tenrec import (NoiseSpec, SolverConfig, add_mixed_noise, complete, decompose, gen_lowrank,
                    gen_mask)
from tenrec.algebra import fold_mode_pair, fourier_singular_values, unfold_mode_pair
from tenrec.completion import (SUBPROBLEM_RTOL, pair_pull, update_m_pair, update_multiplier,
                               update_z)
from tenrec.metrics import rel_error
from tenrec.penalty import update_lambda_bar, update_weights, weighted_log_prox

from oracles import full_spectrum_sv, mirror_columns, prox_lgamma_norm


def small_instance(seed=0, shape=(12, 12, 6), rank=2, sr=0.5):
    gt = gen_lowrank(shape, rank, seed)
    gt = gt / np.max(np.abs(gt))
    mask = gen_mask(shape, sr, seed).mask
    return gt, mask, np.where(mask, gt, 0.0)


SMALL_CFG = SolverConfig(beta=(1.0, 0.0, 0.0), mu0=5.0, rho0=1e-3, growth=1.05,
                         gamma=1e4, epsilon=0.01, tol=1e-5, max_iter=300)


def estimate_error(report, truth):
    """The relative error of a solver's estimate (``Z``, or robust PCA's
    ``L``) against ``truth``, as the CLI scores it."""
    return rel_error(next(iter(report.tensors.values())), truth)


def pull_of(pairs, betas, m, q, mu, shape):
    """The pairs' pull on an estimate of ``shape``, as the sweep hands it
    to a data block: ``(pull, weight)`` from :func:`pair_pull`."""
    states = [SimpleNamespace(pair=p, beta=b, m=mp, q=qp)
              for p, b, mp, qp in zip(pairs, betas, m, q)]
    return pair_pull(states, mu, shape)


class TestUpdatePieces:
    def test_m_update_zero_weights_returns_argument(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 4, 3))
        z = rng.standard_normal((5, 4, 3))
        q = rng.standard_normal((5, 4, 3))
        mu, rho1 = 0.7, 1.4
        arg = m + (mu * z + q - mu * m) / rho1
        m_new, _, _, _ = update_m_pair(m, z, q, np.zeros((4, 2)), mu, rho1, 0.1)
        assert np.allclose(m_new, arg, atol=1e-12)

    def test_m_update_large_mu_limit(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 4, 2))
        q = rng.standard_normal((4, 4, 2))
        mu = 1e9
        rho1 = 1.1 * mu
        # with z equal to m the argument collapses to m + q/rho1
        m_new, _, _, _ = update_m_pair(m, m, q, np.zeros((4, 2)), mu, rho1, 0.1)
        assert np.allclose(m_new, m + q / rho1, atol=1e-9)

    def test_m_update_slicewise_shrink_oracle(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 4, 3))
        z = rng.standard_normal((5, 4, 3))
        q = 0.1 * rng.standard_normal((5, 4, 3))
        w = rng.uniform(0.05, 0.5, size=(4, 1)) * np.ones((1, 2))
        mu, rho1, eps = 0.8, 1.2, 0.1
        m_new, sigma_new, sigma_arg, _ = update_m_pair(m, z, q, w, mu, rho1, eps)
        arg = m + (mu * z + q - mu * m) / rho1
        ref, ref_new, ref_old, _ = weighted_log_prox(arg, w, rho1, eps)
        assert np.allclose(m_new, ref, atol=1e-12)
        assert np.allclose(fourier_singular_values(m_new), -np.sort(-sigma_new, axis=0),
                           atol=1e-8)

    def test_single_pair_m_subproblem_matches_prox(self):
        # with fresh weights equal to the target, the surrogate update is
        # exactly the norm's proximal map
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 5, 4))
        z = rng.standard_normal((6, 5, 4))
        q = rng.standard_normal((6, 5, 4))
        lam = np.full((5, 4), 0.8)  # R x I3, as the norm takes it
        mu, rho1, gamma, eps = 0.5, 0.55, 50.0, 0.05
        arg = m + (mu * z + q - mu * m) / rho1
        m_new, _, _, _ = update_m_pair(m, z, q, lam[:, :3], mu, rho1, eps)
        l_ref, _ = prox_lgamma_norm(arg, lam, gamma, rho1, eps)
        assert np.allclose(m_new, l_ref, atol=1e-12)

    def test_z_update_fixed_point(self):
        gt, mask, obs = small_instance()
        z = obs.copy()
        pairs = [(0, 1)]
        m = [unfold_mode_pair(z, 0, 1)]
        q = [np.zeros_like(m[0])]
        z_new = update_z(obs[mask], np.flatnonzero(mask), z,
                         *pull_of(pairs, [1.0], m, q, 0.9, z.shape), 0.1)
        assert np.allclose(z_new, z, atol=1e-12)

    def test_z_update_large_rho_limit(self):
        rng = np.random.default_rng(5)
        gt, mask, obs = small_instance(seed=6)
        z = rng.standard_normal(obs.shape)
        m = [rng.standard_normal((12, 12, 6))]
        q = [rng.standard_normal((12, 12, 6))]
        z_new = update_z(obs[mask], np.flatnonzero(mask), z,
                         *pull_of([(0, 1)], [1.0], m, q, 1.0, z.shape), 1e12)
        assert np.allclose(z_new[~mask], z[~mask], atol=1e-9)
        assert np.array_equal(z_new[mask], obs[mask])

    def test_z_update_matches_literal_transcription(self):
        rng = np.random.default_rng(7)
        shape = (4, 3, 5)
        obs = rng.standard_normal(shape)
        mask = rng.random(shape) < 0.4
        z = rng.standard_normal(shape)
        pairs = [(0, 1), (0, 2), (1, 2)]
        m = [rng.standard_normal(unfold_mode_pair(z, *p).shape) for p in pairs]
        q = [rng.standard_normal(unfold_mode_pair(z, *p).shape) for p in pairs]
        betas = [0.5, 0.3, 0.2]
        mu, rho = 0.7, 0.2
        z_new = update_z(obs[mask], np.flatnonzero(mask), z,
                         *pull_of(pairs, betas, m, q, mu, shape), rho)

        num = rho * z.copy()
        den = rho
        for p, b, mp, qp in zip(pairs, betas, m, q):
            num += b * fold_mode_pair(mu * mp - qp, p[0], p[1], shape)
            den += b * mu
        expected = np.where(mask, obs, num / den)
        assert np.allclose(z_new, expected, atol=1e-12)

    def test_z_update_minimises_weighted_subproblem(self):
        # the beta-weighted constraint quadratics plus the proximal term,
        # over the unobserved entries
        rng = np.random.default_rng(17)
        shape = (4, 3, 5)
        obs = rng.standard_normal(shape)
        mask = rng.random(shape) < 0.4
        z = rng.standard_normal(shape)
        pairs = [(0, 1), (0, 2), (1, 2)]
        betas = [0.6, 0.3, 0.1]
        m = [rng.standard_normal(unfold_mode_pair(z, *p).shape) for p in pairs]
        q = [rng.standard_normal(unfold_mode_pair(z, *p).shape) for p in pairs]
        mu, rho = 0.7, 0.2
        z_new = update_z(obs[mask], np.flatnonzero(mask), z,
                         *pull_of(pairs, betas, m, q, mu, shape), rho)

        def obj(x):
            value = 0.5 * rho * np.sum((x - z) ** 2)
            for p, b, mp, qp in zip(pairs, betas, m, q):
                value += b * 0.5 * mu * np.sum((unfold_mode_pair(x, *p) - mp + qp / mu) ** 2)
            return value

        base = obj(z_new)
        for _ in range(100):
            step = np.where(mask, 0.0, 0.01 * rng.standard_normal(shape))
            assert base <= obj(z_new + step) + 1e-12

    def test_multiplier_update(self):
        rng = np.random.default_rng(8)
        q = rng.standard_normal((3, 4, 2))
        z = rng.standard_normal((3, 4, 2))
        m = rng.standard_normal((3, 4, 2))
        assert np.allclose(update_multiplier(q, z, z, 0.5), q)
        assert np.allclose(update_multiplier(np.zeros_like(q), z, m, 1.0), z - m)

    def test_lambda_bar_examples(self):
        out = update_lambda_bar(np.full((2, 2), 0.9), np.full((2, 2), 0.3), 2.0, 1.0)
        assert np.allclose(out, 0.7)


class TestSolve:
    def test_full_mask_returns_data_immediately(self):
        gt, _, _ = small_instance(seed=9)
        mask = np.ones(gt.shape, dtype=bool)
        report = complete(gt, mask, SMALL_CFG)
        assert report.converged
        assert report.iterations == 1
        assert np.array_equal(report.tensors["Z"], gt)

    def test_zero_data_gives_zero(self):
        shape = (8, 8, 4)
        mask = gen_mask(shape, 0.4, 1).mask
        report = complete(np.zeros(shape), mask, SMALL_CFG)
        assert not report.tensors["Z"].any()
        assert report.converged

    def test_observed_entries_exact_every_iteration(self):
        gt, mask, obs = small_instance(seed=10)
        report = complete(obs, mask, SMALL_CFG.updated(max_iter=25, tol=1e-12))
        assert np.array_equal(report.tensors["Z"][mask], obs[mask])

    def test_small_recovery(self):
        gt, mask, obs = small_instance(seed=11, shape=(16, 16, 8), rank=2, sr=0.55)
        report = complete(obs, mask, SMALL_CFG)
        assert estimate_error(report, gt) <= 5e-3
        assert report.converged

    def test_constraint_residual_decays(self):
        gt, mask, obs = small_instance(seed=12)
        report = complete(obs, mask, SMALL_CFG.updated(max_iter=60, tol=1e-14))
        diffs = [row["inf_norm_diff"] for row in report.trace]
        assert diffs[-1] < diffs[0]

    def test_empty_mask_settles_at_zero(self):
        # no observations: the all-zero initialization is a fixed point
        shape = (6, 6, 3)
        mask = np.zeros(shape, dtype=bool)
        report = complete(np.zeros(shape), mask, SMALL_CFG.updated(max_iter=3))
        assert not report.tensors["Z"].any()

    def test_iteration_cap_flagged_not_converged(self):
        gt, mask, obs = small_instance(seed=12)
        report = complete(obs, mask, SMALL_CFG.updated(max_iter=4, tol=1e-300))
        assert not report.converged
        assert report.iterations == 4

    def test_max_iter_zero_returns_initialization(self):
        gt, mask, obs = small_instance(seed=13)
        report = complete(obs, mask, SMALL_CFG.updated(max_iter=0))
        assert report.iterations == 0
        assert not report.converged
        assert np.array_equal(report.tensors["Z"], np.where(mask, obs, 0.0))

    def test_invalid_inputs(self):
        gt, mask, obs = small_instance(seed=14)
        with pytest.raises(ValueError):
            complete(obs, mask.astype(float), SMALL_CFG)
        with pytest.raises(ValueError):
            complete(obs, mask[:, :, :3], SMALL_CFG)
        bad = obs.copy()
        bad[mask] = np.nan
        with pytest.raises(ValueError):
            complete(bad, mask, SMALL_CFG)
        with pytest.raises(ValueError):
            complete(obs, mask, SolverConfig(tol=0.0))

    @pytest.mark.parametrize("solver", ["complete", "decompose"])
    def test_overflow_raises_where_it_happens(self, solver):
        # finite data whose squares overflow: the first fault raises, and
        # the caller's floating-point error state comes back after it
        gt, mask, obs = small_instance(seed=16)
        before = np.geterr()
        with pytest.raises(FloatingPointError):
            if solver == "complete":
                complete(obs * 1e300, mask, SMALL_CFG)
            else:
                decompose(gt * 1e300, SMALL_CFG)
        assert np.geterr() == before

    def test_uniform_beta_runs_all_pairs(self):
        gt, mask, obs = small_instance(seed=15, shape=(6, 5, 4))
        report = complete(obs, mask, SMALL_CFG.updated(beta=None, max_iter=5, tol=1e-14))
        assert report.iterations == 5

    def test_beta_weights_change_the_estimate(self):
        gt, mask, obs = small_instance(seed=15)
        runs = [complete(obs, mask, SMALL_CFG.updated(beta=beta, max_iter=30, tol=1e-300))
                for beta in ((0.9, 0.1, 0.0), (0.5, 0.5, 0.0))]
        assert not np.array_equal(runs[0].tensors["Z"], runs[1].tensors["Z"])

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(beta=(0.5, 0.5)).pair_weights(3)
        with pytest.raises(ValueError):
            SolverConfig(beta=(0.5, 0.4, 0.2))


def memory_orders(x):
    """``x`` C-ordered, F-ordered and as a non-contiguous view."""
    spread = np.zeros(x.shape[:-1] + (2 * x.shape[-1],), dtype=x.dtype)
    spread[..., ::2] = x
    return {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x),
            "strided": spread[..., ::2]}


class TestMemoryOrder:
    def test_input_memory_order_does_not_change_the_result(self, monkeypatch):
        import tenrec.completion as completion_mod

        estimates = []

        def recording(observed, mask, z_prev, *args):
            estimates.append(z_prev)
            return update_z(observed, mask, z_prev, *args)

        monkeypatch.setattr(completion_mod, "update_z", recording)
        gt, mask, obs = small_instance(seed=3)
        cfg = SMALL_CFG.updated(max_iter=40)
        observed, masks = memory_orders(obs), memory_orders(mask)
        assert not observed["strided"].flags.c_contiguous
        results = {order: complete(observed[order], masks[order], cfg) for order in observed}
        # the sweep runs on a C-ordered estimate whatever the input's order
        assert all(z.flags.c_contiguous for z in estimates)
        ref = results["C"]
        for report in results.values():
            assert report.iterations == ref.iterations
            assert np.array_equal(report.tensors["Z"], ref.tensors["Z"])
            assert report.tensors["Z"].flags.c_contiguous


class TestDescent:
    def test_frozen_growth_descends(self):
        gt, mask, obs = small_instance(seed=16)
        cfg = SMALL_CFG.updated(growth=1.0, max_iter=40, tol=1e-300, strict_prox=True)
        report = complete(obs, mask, cfg, track_descent=True)
        assert report.notes["descent_violations"] == 0
        assert report.notes["subproblem_violations"] == 0
        for row in report.trace:
            assert row["lag_after"] <= row["lag_before"] * (1 + 1e-8) + 1e-12

    @pytest.mark.parametrize("i3", [6, 5])
    def test_z_monitor_weights_pairs_by_beta(self, monkeypatch, i3):
        # The z entry and each pair's w and lam entries are the
        # beta-weighted Lagrangian before the step and after it plus the
        # proximal term, recomputed here over the full spectrum from what
        # the sweep passed to its pull, z, weight, surrogate and
        # weight-target steps: every Fourier slice's own singular values,
        # and the half-spectrum weights spread over the mirror slices.
        import tenrec.completion as completion_mod

        pulls, steps, weights, surrogates, targets = [], [], [], [], []

        def recording_pull(states, mu, shape):
            pulls.append(([st.pair for st in states], [st.beta for st in states],
                          [st.m for st in states], [st.q for st in states], mu))
            return pair_pull(states, mu, shape)

        def recording(observed, mask, z_prev, pull, weight, rho):
            z_new = update_z(observed, mask, z_prev, pull, weight, rho)
            steps.append((z_prev, z_new) + pulls[-1] + (rho,))
            return z_new

        def recording_weights(sigma, w_old, lam_old, *args):
            w_new = update_weights(sigma, w_old, lam_old, *args)
            weights.append((w_old, w_new))
            return w_new

        def recording_surrogate(m_old, *args, **kwargs):
            out = update_m_pair(m_old, *args, **kwargs)
            surrogates.append((m_old, out[0]))
            return out

        def recording_target(w_new, lam_old, gamma, rho):
            lam_new = update_lambda_bar(w_new, lam_old, gamma, rho)
            targets.append((lam_old, lam_new))
            return lam_new

        monkeypatch.setattr(completion_mod, "pair_pull", recording_pull)
        monkeypatch.setattr(completion_mod, "update_z", recording)
        monkeypatch.setattr(completion_mod, "update_weights", recording_weights)
        monkeypatch.setattr(completion_mod, "update_m_pair", recording_surrogate)
        monkeypatch.setattr(completion_mod, "update_lambda_bar", recording_target)
        gt, mask, obs = small_instance(seed=18, shape=(12, 12, i3))
        cfg = SMALL_CFG.updated(beta=(0.7, 0.3, 0.0), growth=1.0, max_iter=3, tol=1e-300)
        report = complete(obs, mask, cfg, track_descent=True)
        assert len(steps) == report.iterations == 3
        for k, (row, (z, z_new, pairs, betas, _, q, mu, rho)) in enumerate(
                zip(report.trace, steps)):
            sweep = slice(k * len(pairs), (k + 1) * len(pairs))
            # each pair's (w, lam, M) before its steps and after each one
            stages = [{"start": (w_old, lam_old, m_old), "w": (w_new, lam_old, m_old),
                       "m": (w_new, lam_old, m_new), "lam": (w_new, lam_new, m_new)}
                      for (w_old, w_new), (m_old, m_new), (lam_old, lam_new)
                      in zip(weights[sweep], surrogates[sweep], targets[sweep])]

            def lagrangian(x, stage="lam", at=len(pairs)):
                # the pairs before `at` have taken all three steps, pair
                # `at` those up to `stage`, the pairs after it none
                total = 0.0
                for j, (p, b, qp) in enumerate(zip(pairs, betas, q)):
                    w, lam, mp = stages[j]["lam" if j < at else stage if j == at else "start"]
                    t = np.log1p(full_spectrum_sv(mp) / cfg.epsilon)
                    w, lam = (mirror_columns(a, mp.shape[2]) for a in (w, lam))
                    gap = unfold_mode_pair(x, *p) - mp + qp / mu
                    total += b * (np.sum(w * t) + 0.5 * cfg.gamma * np.sum((w - lam) ** 2)
                                  + 0.5 * mu * np.sum(gap ** 2))
                return total

            for j, (p, b) in enumerate(zip(pairs, betas)):
                label = f"{p[0] + 1}{p[1] + 1}"
                i3_pair = stages[j]["start"][2].shape[2]
                for step, before_stage, after_stage, (old, new) in [
                        ("w", "start", "w", weights[sweep][j]),
                        ("lam", "m", "lam", targets[sweep][j])]:
                    prox = 0.5 * b * rho * np.sum(mirror_columns((new - old) ** 2, i3_pair))
                    before, after = row["subproblems"][f"{label}.{step}"]
                    assert before == pytest.approx(lagrangian(z, before_stage, j), rel=1e-12)
                    assert after == pytest.approx(lagrangian(z, after_stage, j) + prox,
                                                  rel=1e-12)

            before, after = row["subproblems"]["z"]
            assert before == pytest.approx(lagrangian(z), rel=1e-12)
            assert after == pytest.approx(
                lagrangian(z_new) + 0.5 * rho * np.sum((z_new - z) ** 2), rel=1e-12)
            assert after - 0.5 * rho * np.sum((z_new - z) ** 2) == pytest.approx(
                row["lag_after"], rel=1e-12)

    def test_subproblem_objectives_recorded(self):
        gt, mask, obs = small_instance(seed=17)
        cfg = SMALL_CFG.updated(beta=None, growth=1.0, max_iter=5, tol=1e-300)
        pair_steps = [f"{p}.{s}" for p in ("12", "13", "23") for s in ("w", "m", "lam")]
        t = add_mixed_noise(gt, NoiseSpec(sp_fraction=0.05, gaussian_sigma=0.02, seed=4))
        for report, names in [
            (complete(obs, mask, cfg, track_descent=True), pair_steps + ["z"]),
            (decompose(t, cfg.updated(beta=(1.0, 0.0, 0.0)), track_descent=True),
             ["12.w", "12.m", "12.lam", "l", "e", "n"]),
        ]:
            assert report.iterations == 5
            for row in report.trace:
                assert list(row["subproblems"]) == names
                assert row["subproblems"][names[0]][0] == row["lag_before"]

    @pytest.mark.parametrize("step, module, name, prev_of", [
        ("z", "completion", "update_z", lambda args: args[2]),
        ("12.w", "completion", "update_weights", lambda args: args[1]),
        ("12.m", "completion", "update_m_pair", lambda args: args[0]),
        ("12.lam", "completion", "update_lambda_bar", lambda args: args[1]),
        ("l", "rpca", "update_l", lambda args: args[4]),
        ("e", "rpca", "update_e", lambda args: args[3]),
        ("n", "rpca", "update_n", lambda args: args[3]),
    ], ids=["z", "w", "m", "lam", "l", "e", "n"])
    def test_over_relaxed_step_is_counted(self, monkeypatch, step, module, name, prev_of):
        # Each step over-relaxed to prev + 2.5*(new - prev) overshoots its
        # minimiser, so the step check must see its objective rise.
        import importlib

        mod = importlib.import_module(f"tenrec.{module}")
        exact = getattr(mod, name)

        def over_relaxed(*args, **kwargs):
            new, prev = exact(*args, **kwargs), prev_of(args)
            if isinstance(new, tuple):  # the surrogate step: (M, its singular values, ...)
                m = prev + 2.5 * (new[0] - prev)
                return (m, fourier_singular_values(m)) + new[2:]
            return prev + 2.5 * (new - prev)

        monkeypatch.setattr(mod, name, over_relaxed)
        cfg = SMALL_CFG.updated(growth=1.0, max_iter=20, tol=1e-300, strict_prox=True)
        if module == "completion":
            gt, mask, obs = small_instance(seed=16)
            report = complete(obs, mask, cfg, track_descent=True)
        else:
            l_true = gen_lowrank((20, 20, 6), 2, seed=14)
            t = add_mixed_noise(l_true, NoiseSpec(sp_fraction=0.05, gaussian_sigma=0.02, seed=4))
            # a data penalty at which the sparse part is nonzero from sweep 1
            cfg = cfg.updated(mu0=2e-3, rho0=2.3e-6, epsilon=0.21, penalty_tau=0.1,
                              tau1_scale=0.3)
            report = decompose(t, cfg, track_descent=True)
        assert report.iterations == 20
        risen = sum(after > before * (1 + SUBPROBLEM_RTOL) + 1e-12
                    for before, after in (row["subproblems"][step] for row in report.trace))
        assert risen >= 15
        assert report.notes["subproblem_violations"] >= risen

    @pytest.mark.parametrize("solver", ["complete", "decompose"])
    @pytest.mark.parametrize("strict", [False, True])
    def test_monitoring_does_not_perturb_the_run(self, solver, strict):
        # The descent check reads the sweep's variables between the data
        # step and the ascent; it must leave every one of them as it was.
        if solver == "complete":
            gt, mask, obs = small_instance(seed=19)
            cfg = SMALL_CFG.updated(beta=(0.6, 0.3, 0.1), max_iter=60, strict_prox=strict)
            def run(track):
                return complete(obs, mask, cfg, track_descent=track)
        else:
            # the robust-PCA acceptance instance and its solver settings
            gt = gen_lowrank((30, 30, 10), 2, seed=7)
            noisy = add_mixed_noise(gt, NoiseSpec(sp_fraction=0.10, gaussian_sigma=0.05, seed=7))
            cfg = SolverConfig(beta=(1.0, 0.0, 0.0), mu0=2e-3, rho0=2.3e-6, growth=1.08,
                               epsilon=0.21, penalty_tau=6e-5, tau1_scale=0.3, tol=2e-4,
                               max_iter=40, strict_prox=strict)
            def run(track):
                return decompose(noisy, cfg, track_descent=track)
        tracked, plain = run(True), run(False)
        assert tracked.iterations == plain.iterations > 5
        assert tracked.converged == plain.converged
        assert tracked.tensors.keys() == plain.tensors.keys()
        for name, tensor in plain.tensors.items():
            assert np.array_equal(tracked.tensors[name], tensor)
        assert estimate_error(tracked, gt) == estimate_error(plain, gt)
        assert plain.notes["strict_flips"] == tracked.notes["strict_flips"]
        assert len(tracked.trace) == len(plain.trace)
        for got, ref in zip(tracked.trace, plain.trace):
            assert {"lag_before", "lag_after", "subproblems"} <= set(got)
            for key in ref:
                if key != "seconds":
                    assert got[key] == ref[key], key
