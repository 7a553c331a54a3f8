import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tenrec import (NoiseSpec, SolverConfig, add_mixed_noise, build_config, complete, decompose,
                    gen_lowrank, gen_mask, load_config_file)
from tenrec.algebra import fold_mode_pair, fourier_singular_values, mode_pairs, unfold_mode_pair
from tenrec.completion import pair_pull, update_m_pair, update_z
from tenrec.metrics import rel_error
from tenrec.penalty import _row_blocks, update_lambda_bar, weighted_log_prox
from tenrec.rpca import update_l

from oracles import prox_lgamma_norm
from test_penalty import peak_bytes


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
        expected = m + q / rho1
        m_new, _, _, _ = update_m_pair(m, m, q, np.zeros((4, 2)), mu, rho1, 0.1)
        assert np.allclose(m_new, expected, atol=1e-9)

    def test_m_update_slicewise_shrink_oracle(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 4, 3))
        z = rng.standard_normal((5, 4, 3))
        q = 0.1 * rng.standard_normal((5, 4, 3))
        w = rng.uniform(0.05, 0.5, size=(4, 1)) * np.ones((1, 2))
        mu, rho1, eps = 0.8, 1.2, 0.1
        arg = m + (mu * z + q - mu * m) / rho1
        m_new, sigma_new, sigma_arg, _ = update_m_pair(m, z, q, w, mu, rho1, eps)
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
        m = [unfold_mode_pair(obs, 0, 1)]
        q = [np.zeros_like(m[0])]
        update_z(np.flatnonzero(mask), z, *pull_of(pairs, [1.0], m, q, 0.9, z.shape), 0.1)
        assert np.allclose(z, obs, atol=1e-12)

    def test_z_update_large_rho_limit(self):
        rng = np.random.default_rng(5)
        gt, mask, obs = small_instance(seed=6)
        z = rng.standard_normal(obs.shape)
        z[mask] = obs[mask]  # the solver's invariant: z holds the data where observed
        z_prev = z.copy()
        m = [rng.standard_normal((12, 12, 6))]
        q = [rng.standard_normal((12, 12, 6))]
        update_z(np.flatnonzero(mask), z, *pull_of([(0, 1)], [1.0], m, q, 1.0, z.shape), 1e12)
        assert np.allclose(z[~mask], z_prev[~mask], atol=1e-9)
        assert np.array_equal(z[mask], obs[mask])

    def test_z_update_matches_literal_transcription(self):
        rng = np.random.default_rng(7)
        shape = (4, 3, 5)
        obs = rng.standard_normal(shape)
        mask = rng.random(shape) < 0.4
        z = rng.standard_normal(shape)
        z[mask] = obs[mask]
        pairs = [(0, 1), (0, 2), (1, 2)]
        m = [rng.standard_normal(unfold_mode_pair(z, *p).shape) for p in pairs]
        q = [rng.standard_normal(unfold_mode_pair(z, *p).shape) for p in pairs]
        betas = [0.5, 0.3, 0.2]
        mu, rho = 0.7, 0.2
        z_new = z.copy()
        update_z(np.flatnonzero(mask), z_new, *pull_of(pairs, betas, m, q, mu, shape), rho)

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
        z[mask] = obs[mask]
        pairs = [(0, 1), (0, 2), (1, 2)]
        betas = [0.6, 0.3, 0.1]
        m = [rng.standard_normal(unfold_mode_pair(z, *p).shape) for p in pairs]
        q = [rng.standard_normal(unfold_mode_pair(z, *p).shape) for p in pairs]
        mu, rho = 0.7, 0.2
        z_new = z.copy()
        update_z(np.flatnonzero(mask), z_new, *pull_of(pairs, betas, m, q, mu, shape), rho)

        def obj(x):
            value = 0.5 * rho * np.sum((x - z) ** 2)
            for p, b, mp, qp in zip(pairs, betas, m, q):
                value += b * 0.5 * mu * np.sum((unfold_mode_pair(x, *p) - mp + qp / mu) ** 2)
            return value

        base = obj(z_new)
        for _ in range(100):
            step = np.where(mask, 0.0, 0.01 * rng.standard_normal(shape))
            assert base <= obj(z_new + step) + 1e-12

    def test_lambda_bar_examples(self):
        out = update_lambda_bar(np.full((2, 2), 0.9), np.full((2, 2), 0.3), 2.0, 1.0)
        assert np.allclose(out, 0.7)


class TestDataStep:
    """The data step's contract on a tensor of two row blocks: ``update_z``
    and ``update_l`` read the pairs' pull block by block, write the
    estimate over its own buffer, return exactly how far it moved, and
    give what the whole-array formula gives, bit for bit."""

    SHAPE = (80, 30, 20)
    MU, RHO, PTAU = 0.7, 0.2, 0.4

    def instance(self, beta):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(self.SHAPE)
        blocks = _row_blocks(x)
        assert len(blocks) >= 2
        mask = rng.random(self.SHAPE) < 0.3
        # observed on both sides of the first block boundary
        edge = blocks[1].start
        mask[edge - 1, -1, -1] = mask[edge, 0, 0] = True
        states = [SimpleNamespace(pair=pair, beta=b,
                                  m=rng.standard_normal(unfold_mode_pair(x, *pair).shape),
                                  q=rng.standard_normal(unfold_mode_pair(x, *pair).shape))
                  for pair, b in SolverConfig(beta=beta).pair_weights(3)]
        return rng, x, mask, states

    def whole_pull(self, states):
        """The pull and its weight as one array, in the sweep's order."""
        pull = None
        for st in states:
            term = fold_mode_pair((self.MU * st.m - st.q) * st.beta, *st.pair, self.SHAPE)
            pull = term if pull is None else pull + term
        return pull, sum(st.beta * self.MU for st in states)

    @pytest.mark.parametrize("beta", [(1.0, 0.0, 0.0), (0.6, 0.3, 0.1), (0.0, 0.5, 0.5)])
    def test_update_z(self, beta):
        rng, z, mask, states = self.instance(beta)
        data = rng.standard_normal(self.SHAPE)
        z[mask] = data[mask]
        pull, weight = self.whole_pull(states)
        expected = (pull + self.RHO * z) / (self.RHO + weight)
        np.put(expected, np.flatnonzero(mask), data[mask])
        z_prev = z.copy()
        moved = update_z(np.flatnonzero(mask), z, *pair_pull(states, self.MU, self.SHAPE),
                         self.RHO)
        assert np.array_equal(z, expected)
        assert moved == np.max(np.abs(z - z_prev))

    @pytest.mark.parametrize("beta", [(1.0, 0.0, 0.0), (0.6, 0.3, 0.1), (0.0, 0.5, 0.5)])
    def test_update_l(self, beta):
        rng, l, _, states = self.instance(beta)
        t, e, n, f = (rng.standard_normal(self.SHAPE) for _ in range(4))
        pull, weight = self.whole_pull(states)
        expected = ((self.PTAU * (t - e - n) + f + self.RHO * l + pull)
                    / (self.PTAU + self.RHO + weight))
        l_prev = l.copy()
        moved = update_l(t, e, n, f, l, *pair_pull(states, self.MU, self.SHAPE), self.PTAU,
                         self.RHO)
        assert np.array_equal(l, expected)
        assert moved == np.max(np.abs(l - l_prev))

    def test_pull_gives_new_blocks(self):
        # with pair (0, 1) left out, the pull's first term is read from
        # pair (0, 2)'s strided folds; every block handed out is new
        _, x, _, states = self.instance((0.0, 0.5, 0.5))
        pull, _ = pair_pull(states, self.MU, self.SHAPE)
        rows = _row_blocks(x)[1]
        first = pull(rows)
        expected = first.copy()
        first[...] = 0.0
        assert np.array_equal(pull(rows), expected)

    @pytest.mark.parametrize("shape", [(5, 4, 3), (5, 4, 1), (5, 1, 3), (1, 4, 3),
                                       (4, 3, 2, 2), (4, 1, 1, 2), (3, 1, 2, 1)])
    def test_pull_reads_every_pair_through_views(self, shape):
        # over all pairs, unit axes and 4-way shapes included: every pair's
        # M and Q fold as read-only views, and the pull's blocks are the
        # whole-array sum in the sweep's order, bit for bit
        rng = np.random.default_rng(5)
        x = np.zeros(shape)
        states = [SimpleNamespace(pair=pair, beta=b,
                                  m=rng.standard_normal(unfold_mode_pair(x, *pair).shape),
                                  q=rng.standard_normal(unfold_mode_pair(x, *pair).shape))
                  for pair, b in SolverConfig(beta=None).pair_weights(len(shape))]
        whole = None
        for st in states:
            for t3 in (st.m, st.q):
                f = fold_mode_pair(t3, *st.pair, shape)
                assert np.shares_memory(f, t3) and not f.flags.writeable, st.pair
            term = fold_mode_pair((self.MU * st.m - st.q) * st.beta, *st.pair, shape)
            whole = term if whole is None else whole + term
        pull, weight = pair_pull(states, self.MU, shape)
        assert weight == sum(st.beta * self.MU for st in states)
        blocks = [pull(rows) for rows in _row_blocks(x)]
        assert all(b.flags.c_contiguous for b in blocks)
        assert np.array_equal(np.concatenate(blocks), whole)


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

    def test_empty_mask_is_refused(self):
        # no observation leaves nothing to complete from, not a recovery of zeros
        shape = (6, 6, 3)
        mask = np.zeros(shape, dtype=bool)
        with pytest.raises(ValueError, match="^mask observes no entry$"):
            complete(np.ones(shape), mask, SMALL_CFG.updated(max_iter=3))

    @pytest.mark.parametrize("shape", [(4, 4, 0), (0, 4, 3)], ids=["empty-tubes", "no-rows"])
    def test_zero_extent_is_refused(self, shape):
        # refused at entry, before the tau rule divides by the tensor's size
        # or an FFT or reshape meets the empty axis
        message = f"^tensor of shape {re.escape(str(shape))} has a zero extent$"
        with pytest.raises(ValueError, match=message):
            decompose(np.zeros(shape), SMALL_CFG)
        with pytest.raises(ValueError, match=message):
            complete(np.zeros(shape), np.zeros(shape, dtype=bool), SMALL_CFG)

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

    @pytest.mark.parametrize("beta", [(1.0, 0.0, 0.0), None],
                             ids=["view-unfold", "copying-unfolds"])
    def test_caller_arrays_are_left_as_they_were(self, beta):
        # The sweep writes its arguments and estimates over buffers of its
        # own; decompose keeps a C-contiguous float64 input without a copy,
        # and pair (0, 1) unfolds it to a view.
        gt, mask, obs = small_instance(seed=17)
        cfg = SMALL_CFG.updated(beta=beta, max_iter=10, tol=1e-300)
        assert obs.flags.c_contiguous and obs.dtype == float
        kept = obs.copy(), mask.copy()
        complete(obs, mask, cfg)
        decompose(obs, cfg)
        assert np.array_equal(obs, kept[0]) and np.array_equal(mask, kept[1])

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(beta=(0.5, 0.5)).pair_weights(3)
        with pytest.raises(ValueError):
            SolverConfig(beta=(0.5, 0.4, 0.2))


class TestWorkingSet:
    """The tracemalloc peak of a solve, in copies of its tensor: the sweep's
    elementwise steps run in row blocks and write over dead values, and the
    prox transforms its argument over the surrogate's buffer, and the data
    step reads the pairs' pull block by block and writes the estimate over
    itself, so a solve holds its state plus one transient.  Completion's
    state keeps the observed values in the estimate alone, beside their
    flat indices, and the prox's Ritz step releases each block once it is
    dead.  Each test prints its peak beside its pin, one ``working set:``
    line, which CI's job summary collects from the log."""

    @staticmethod
    def config(name):
        return build_config(load_config_file(Path(__file__).resolve().parents[1] / "configs"
                                             / f"{name}_synthetic.cfg"))

    def peak_tensors(self, gt, sr, seed, max_iter, **changes):
        mask = gen_mask(gt.shape, sr, seed).mask
        observed = np.where(mask, gt / np.max(np.abs(gt)), 0.0)
        cfg = self.config("lrtc").updated(max_iter=max_iter, **changes)
        peak, report = peak_bytes(lambda: complete(observed, mask, cfg))
        assert report.iterations == max_iter
        return peak / observed.nbytes

    @staticmethod
    def pin(case, peak, bound):
        print(f"working set: {case} {peak:.2f} tensors (pin <= {bound})")
        assert peak <= bound

    def test_large_complete_solve(self):
        # the benchmark's large-complete instance at seed 1: 4.18 tensors,
        # in the prox's Ritz step; 4.78 with a copy of the observed values
        # beside the estimate and the Ritz step's dead blocks held, 5.00
        # when the data step built the pairs' pull as a tensor
        self.pin("complete 100x100x20",
                 self.peak_tensors(gen_lowrank((100, 100, 20), 5, 1), 0.3, 1, 30), 4.3)

    def test_a1_sized_solve(self):
        # one block is the whole tensor, and no block outlives its step:
        # 6.40-6.45 tensors, by what the process ran before; 6.70-6.74 with
        # a copy of the observed values and the Ritz step's dead blocks
        self.pin("complete 30x30x20",
                 self.peak_tensors(gen_lowrank((30, 30, 20), 3, 42), 0.3, 42, 40), 6.55)

    def test_a1_sized_solve_over_all_pairs(self):
        # every pair unfolds z and folds its M and Q as strided views, and
        # the peak comes in a pair step: 11.82-12.01 tensors, by what the
        # process ran before (NumPy's caches of small allocations);
        # 12.12-12.32 with a copy of the observed values and the Ritz
        # step's dead blocks; one more tensor per pair would add 1
        self.pin("complete 30x30x20 beta=None",
                 self.peak_tensors(gen_lowrank((30, 30, 20), 3, 42), 0.3, 42, 40, beta=None),
                 12.1)

    def test_large_solve_over_all_pairs(self):
        # large-complete's seed-1 instance over all three pairs: 9.09
        # tensors, in a pair step; 9.39 with a copy of the observed values
        # and the Ritz step's dead blocks
        self.pin("complete 100x100x20 beta=None",
                 self.peak_tensors(gen_lowrank((100, 100, 20), 5, 1), 0.3, 1, 10, beta=None),
                 9.15)

    def test_robust_pca_solve(self):
        # a 100x100x20 A2-style instance: 6.77 tensors; 7.00 with the Ritz
        # step's dead blocks held, 7.68 when the L step built the pairs'
        # pull as a tensor
        t = add_mixed_noise(gen_lowrank((100, 100, 20), 2, 7),
                            NoiseSpec(sp_fraction=0.10, gaussian_sigma=0.05, seed=7))
        cfg = self.config("trpca").updated(max_iter=20)
        peak, report = peak_bytes(lambda: decompose(t, cfg))
        assert report.iterations == 20
        self.pin("decompose 100x100x20", peak / t.nbytes, 6.9)


def memory_orders(x):
    """``x`` C-ordered, F-ordered and as a non-contiguous view."""
    spread = np.zeros(x.shape[:-1] + (2 * x.shape[-1],), dtype=x.dtype)
    spread[..., ::2] = x
    return {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x),
            "strided": spread[..., ::2]}


class TestMemoryOrder:
    def test_input_memory_order_does_not_change_the_result(self, monkeypatch):
        import tenrec.completion as completion_mod

        layouts = []

        def recording(index, z_prev, *args):
            # the layout at each call: z is written over itself, so every
            # call sees the same array
            layouts.append(z_prev.flags.c_contiguous)
            return update_z(index, z_prev, *args)

        monkeypatch.setattr(completion_mod, "update_z", recording)
        gt, mask, obs = small_instance(seed=3)
        cfg = SMALL_CFG.updated(max_iter=40)
        observed, masks = memory_orders(obs), memory_orders(mask)
        assert not observed["strided"].flags.c_contiguous
        results = {order: complete(observed[order], masks[order], cfg) for order in observed}
        # the sweep runs on a C-ordered estimate whatever the input's order
        assert layouts and all(layouts)
        ref = results["C"]
        for report in results.values():
            assert report.iterations == ref.iterations
            assert np.array_equal(report.tensors["Z"], ref.tensors["Z"])
            assert report.tensors["Z"].flags.c_contiguous
