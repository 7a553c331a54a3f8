"""Both solvers against the model, sweep by sweep.

``oracles.palm_complete`` and ``oracles.palm_decompose`` transcribe the
model's PALM sweep on the full Fourier spectrum.  Each case runs a solver
for ``SWEEPS`` sweeps at ``tol = 1e-300``, records every sweep's estimate
from the data-step functions that a sweep calls once each
(``completion.update_z``; ``rpca.update_l``, ``update_e`` and
``update_n``), and holds it to the reference's iterate of that sweep,
and every trace row's ``lagrangian`` to the reference's Lagrangian after
that sweep's ascent.  The reference's own descent check is held to see
the rises of a step that is made to overshoot.
"""

import types

import numpy as np
import pytest

import oracles
from tenrec import (NoiseSpec, add_mixed_noise, completion, complete, decompose, gen_lowrank,
                    gen_mask, penalty, rpca)

from oracles import descent_rises, palm_complete, palm_decompose
from test_acceptance import lrtc_config, lrtc_instance, trpca_config, trpca_instance
from test_completion import SMALL_CFG, small_instance

SWEEPS = 40
# Largest difference from the reference, relative to the reference's
# largest magnitude in that sweep.
RTOL = 1e-12


def fourway_instance():
    """The 6x5x4x3 CP-rank-2 tensor of ROADMAP item 1's table at unit peak,
    half observed: (ground truth, mask, observed)."""
    rng = np.random.default_rng(0)
    shape = (6, 5, 4, 3)
    gt = np.einsum("ir,jr,kr,lr->ijkl", *(rng.standard_normal((n, 2)) for n in shape))
    gt = gt / np.max(np.abs(gt))
    mask = gen_mask(shape, 0.5, 7).mask
    return gt, mask, np.where(mask, gt, 0.0)


def recording(monkeypatch, module, name, keep=np.array):
    """Wrap ``module.name`` so that each call keeps ``keep`` of what it
    returns, a copy by default; gives the list of what was kept."""
    func, kept = getattr(module, name), []

    def recorded(*args, **kwargs):
        out = func(*args, **kwargs)
        kept.append(keep(out))
        return out

    monkeypatch.setattr(module, name, recorded)
    return kept


def assert_follows_model(report, recorded, reference, start, estimate, cfg):
    """Every recorded sweep, and the report's tensors, match the reference
    to RTOL, and so does every trace row's Lagrangian; the solver stopped
    where the model's estimate first moved no entry more than ``cfg.tol``,
    or ran every sweep; and a strict run made a decision that the default
    rule would not."""
    assert len(recorded) == report.iterations == len(reference)
    assert (report.notes["strict_flips"] > 0) == cfg.strict_prox
    refs = [sweep.tensors for sweep in reference]
    for k, (got, ref) in enumerate(zip([*recorded, report.tensors], [*refs, refs[-1]])):
        scale = max(np.max(np.abs(value)) for value in ref.values())
        for name, value in ref.items():
            assert np.max(np.abs(got[name] - value)) <= RTOL * scale, (k + 1, name)
    for row, sweep in zip(report.trace, reference, strict=True):
        assert abs(row["lagrangian"] - sweep.lagrangian) <= RTOL * sweep.lagrangian, row["iter"]
    moves = [np.max(np.abs(b[estimate] - a)) for a, b in
             zip([start] + [ref[estimate] for ref in refs], refs)]
    assert all(move > cfg.tol for move in moves[:-1])
    assert (moves[-1] <= cfg.tol) == (report.iterations < SWEEPS)


A1 = lrtc_config().updated(tol=1e-300, max_iter=SWEEPS)


@pytest.mark.parametrize("instance, cfg, sweeps", [
    (lrtc_instance, A1, SWEEPS),
    (lambda: small_instance(42, (10, 9, 7), 2), A1.updated(beta=None), SWEEPS),
    (lambda: small_instance(42, (8, 8, 6), 2), A1.updated(beta=None), SWEEPS),
    # at gamma = 100 the weights' proximal terms move the estimate by more
    # than RTOL; at A1's 1e4 they do not
    (lambda: small_instance(42, (10, 9, 7), 2),
     A1.updated(beta=(0.6, 0.3, 0.1), gamma=100.0), SWEEPS),
    (lambda: small_instance(seed=16),
     SMALL_CFG.updated(tol=1e-300, max_iter=SWEEPS, strict_prox=True), SWEEPS),
    # The solver stops after sweep 1 (ROADMAP item 1): strict mode on
    # 8x8x6, and the default rule on the 4-way tensor's long tubes, shrink
    # every surrogate to zero, so the estimate stands still and the stop
    # test fires.  These are compared at that sweep.
    (lambda: small_instance(42, (8, 8, 6), 2), A1.updated(beta=None, strict_prox=True), 1),
    (fourway_instance, A1.updated(beta=None), 1),
], ids=["a1", "10x9x7-odd-i3-tall", "8x8x6-even-i3", "beta-0.6-0.3-0.1-gamma-100", "strict",
        "8x8x6-strict-stops", "6x5x4x3-stops"])
def test_complete_follows_the_model(monkeypatch, instance, cfg, sweeps):
    _, mask, observed = instance()
    zs = recording(monkeypatch, completion, "update_z")
    report = complete(observed, mask, cfg)
    assert report.iterations == sweeps
    assert_follows_model(report, [{"Z": z} for z in zs],
                         palm_complete(observed, mask, cfg, report.iterations),
                         np.where(mask, observed, 0.0), "Z", cfg)


def test_complete_follows_the_model_on_gram_and_ritz_routes(monkeypatch):
    # R = 48: the full path factors slices from their Gram matrices, and
    # once few values are kept the next calls start from a warm basis
    _, mask, observed = small_instance(42, (48, 50, 4), 3)
    assert min(observed.shape[:2]) >= penalty.GRAM_MIN_RANK
    routes = [recording(monkeypatch, penalty, name, keep=lambda out: out is not None)
              for name in ("_gram_triplets", "_ritz_triplets")]
    zs = recording(monkeypatch, completion, "update_z")
    report = complete(observed, mask, A1)
    assert report.iterations == SWEEPS
    assert all(any(taken) for taken in routes)
    assert_follows_model(report, [{"Z": z} for z in zs],
                         palm_complete(observed, mask, A1, SWEEPS),
                         np.where(mask, observed, 0.0), "Z", A1)


# the last case runs A7's settings, at which the model's descent is checked
@pytest.mark.parametrize("changes", [{}, {"strict_prox": True},
                                     {"strict_prox": True, "growth": 1.0}],
                         ids=["a2", "a2-strict", "a2-strict-frozen-growth"])
def test_decompose_follows_the_model(monkeypatch, changes):
    _, observed = trpca_instance()
    cfg = trpca_config().updated(tol=1e-300, max_iter=SWEEPS, **changes)
    parts = [recording(monkeypatch, rpca, f"update_{name}") for name in "len"]
    report = decompose(observed, cfg)
    assert report.iterations == SWEEPS
    assert_follows_model(report, [dict(zip("LEN", sweep)) for sweep in zip(*parts)],
                         palm_decompose(observed, cfg, SWEEPS), observed, "L", cfg)


@pytest.mark.parametrize("step", ["z", "w", "m", "lam", "l", "e", "n"])
def test_over_relaxed_step_is_counted(step):
    # Each kind of step over-relaxed to prev + 2.5*(new - prev) overshoots
    # its minimiser, so the reference's descent check must see steps of
    # that kind rise, and no others, over 20 strict frozen-growth sweeps.
    cfg = SMALL_CFG.updated(growth=1.0, strict_prox=True)
    if step in ("l", "e", "n"):
        l_true = gen_lowrank((20, 20, 6), 2, seed=14)
        t = add_mixed_noise(l_true, NoiseSpec(sp_fraction=0.05, gaussian_sigma=0.02, seed=4))
        # a data penalty at which the sparse part is nonzero from sweep 1
        cfg = cfg.updated(mu0=2e-3, rho0=2.3e-6, epsilon=0.21, penalty_tau=0.1, tau1_scale=0.3)
        run = palm_decompose(t, cfg, 20, overshoot=(step, 2.5))
    else:
        _, mask, observed = small_instance(seed=16)
        run = palm_complete(observed, mask, cfg, 20, overshoot=(step, 2.5))
    _, risen = descent_rises(run)
    assert len(risen) >= 15
    assert {name.split(".")[-1] for name in risen} == {step}


def test_reference_shares_no_code_with_the_solvers():
    # of tenrec, the reference calls only the unfoldings, besides the
    # SolverConfig it is handed; of this oracle file, only its own helpers
    # and the DFT along tubes
    def names(code):
        return set(code.co_names).union(*(names(c) for c in code.co_consts
                                          if isinstance(c, types.CodeType)))

    seen, todo, calls = set(), ["palm_complete", "palm_decompose"], set()
    while todo:
        seen.add(name := todo.pop())
        found = {n for n in names(getattr(oracles, name).__code__)
                 if isinstance(getattr(oracles, n, None), types.FunctionType)}
        todo += [n for n in found - seen if n.startswith("_palm")]
        calls |= found
    assert calls - seen == {"unfold_mode_pair", "fold_mode_pair", "dft_mode3", "idft_mode3"}
