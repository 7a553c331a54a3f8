"""How the solvers reach the singular-value prox and their traced steps.

Both solvers must call ``penalty.weighted_log_prox`` and their data-block
steps through the module names that ``perfbench/tracing.py`` wraps, and
the warm-started truncated factorization that the pairs carry between
sweeps must not change what a run reports.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import tenrec.completion
from tenrec import NoiseSpec, SolverConfig, add_mixed_noise, complete, decompose, gen_lowrank, gen_mask
from tenrec.penalty import weighted_log_prox

from oracles import fourway_instance

SHAPE = (40, 40, 8)
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    """The benchmark tracer's (module, function) keys, read from its source."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return set(module.TRACED)


def completion_run(strict=False, max_iter=300, shape=SHAPE, beta=(1.0, 0.0, 0.0)):
    gt = gen_lowrank(shape, 2, 3)
    gt = gt / np.max(np.abs(gt))
    mask = gen_mask(shape, 0.5, 3).mask
    cfg = SolverConfig(beta=beta, mu0=5.0, rho0=1e-3, growth=1.05, gamma=1e4,
                       epsilon=0.01, tol=1e-5, max_iter=max_iter, strict_prox=strict)
    return lambda: complete(np.where(mask, gt, 0.0), mask, cfg)


def decomposition_run(strict=False, max_iter=500, shape=SHAPE, beta=(1.0, 0.0, 0.0)):
    l_true = gen_lowrank(shape, 2, 4)
    t = add_mixed_noise(l_true, NoiseSpec(sp_fraction=0.05, gaussian_sigma=0.02, seed=4))
    cfg = SolverConfig(beta=beta, mu0=2e-3, rho0=2.3e-6, growth=1.08, gamma=1e4,
                       epsilon=0.21, penalty_tau=6e-5, tau1_scale=0.3, tol=2e-4,
                       max_iter=max_iter, strict_prox=strict)
    return lambda: decompose(t, cfg)


def wrap_everywhere(monkeypatch, original, wrapper):
    """Replace ``original`` in every loaded tenrec module that holds it, as
    the benchmark's tracer does."""
    holders = [m for name, m in sys.modules.items()
               if m is not None and (name == "tenrec" or name.startswith("tenrec."))]
    for module in holders:
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, wrapper)


@pytest.mark.parametrize("run", [completion_run, decomposition_run])
def test_solvers_reach_prox_through_traced_names(monkeypatch, run):
    calls, returned = [], []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("basis"))
        out = weighted_log_prox(*args, **kwargs)
        returned.append(out[3])
        return out

    wrap_everywhere(monkeypatch, weighted_log_prox, counting)
    report = run(max_iter=12)()
    # one shrinkage per active pair per sweep, each through the traced name
    assert len(calls) == report.iterations == 12
    # each warm started from the basis the pair's previous shrinkage returned
    assert calls[0] is None
    assert all(got is prev for got, prev in zip(calls[1:], returned))
    assert any(basis is not None for basis in calls[1:])


@pytest.mark.parametrize("run", [completion_run, decomposition_run])
def test_prox_values_stay_sorted(monkeypatch, run):
    # The sweep carries each pair's shrunk values into its next weight step
    # as the prox returns them, so every column must be non-increasing.
    returned = []

    def recording(*args, **kwargs):
        out = weighted_log_prox(*args, **kwargs)
        returned.append(out[1])
        return out

    wrap_everywhere(monkeypatch, weighted_log_prox, recording)
    report = run()()
    assert report.converged and len(returned) == report.iterations
    assert all((np.diff(sigma, axis=0) <= 0).all() for sigma in returned)


@pytest.mark.parametrize("run", [completion_run, decomposition_run])
def test_strict_run_matches_full_factorization(monkeypatch, run):
    truncated = []

    def counting(*args, **kwargs):
        out = weighted_log_prox(*args, **kwargs)
        truncated.append(bool(np.isnan(out[2]).any()))
        return out

    monkeypatch.setattr(tenrec.completion, "weighted_log_prox", counting)
    warm = run(strict=True)()
    assert sum(truncated) > len(truncated) // 2

    def without_basis(*args, basis=None, **kwargs):
        return weighted_log_prox(*args, **kwargs)

    monkeypatch.setattr(tenrec.completion, "weighted_log_prox", without_basis)
    full = run(strict=True)()

    assert full.notes["strict_flips"] > 0
    assert warm.notes == full.notes
    assert warm.iterations == full.iterations
    assert warm.converged and full.converged
    # the truncated factorization agrees with the full one to rounding
    for got, ref in zip(warm.trace, full.trace):
        assert got.keys() == ref.keys()
        for key in ref:
            if key != "seconds":
                assert got[key] == pytest.approx(ref[key], rel=1e-9, abs=1e-12)


def fourway_run(max_iter):
    gt, mask, observed = fourway_instance()
    cfg = SolverConfig(beta=None, mu0=5.0, rho0=1e-3, growth=1.05, gamma=1e4,
                       epsilon=0.01, tol=1e-5, max_iter=max_iter)
    return lambda: complete(observed, mask, cfg)


@pytest.mark.parametrize("run, pairs", [
    (lambda: completion_run(max_iter=4, shape=(32, 32, 8)), 1),
    (lambda: completion_run(max_iter=4, shape=(32, 32, 8), beta=None), 3),
    (lambda: fourway_run(max_iter=4), 6),
], ids=["beta-1-0-0", "3-way-uniform-beta", "4-way-uniform-beta"])
def test_every_surrogate_step_starts_in_its_own_buffer(monkeypatch, run, pairs):
    # from sweep 1 on, each shrinkage step writes its argument over a
    # writeable surrogate that shares no memory with the estimate
    run_sweeps, update = tenrec.completion.run_sweeps, tenrec.completion.update_m_pair
    estimates, own = [], []

    def recording_sweeps(cfg, block):
        estimates.append(block.x)
        return run_sweeps(cfg, block)

    def recording_update(m, *args, **kwargs):
        own.append(m.flags.writeable and not np.shares_memory(m, estimates[0]))
        return update(m, *args, **kwargs)

    monkeypatch.setattr(tenrec.completion, "run_sweeps", recording_sweeps)
    monkeypatch.setattr(tenrec.completion, "update_m_pair", recording_update)
    report = run()()
    assert len(estimates) == 1
    assert len(own) == pairs * report.iterations > 0
    assert all(own)


def test_every_traced_name_exists():
    for module, name in traced_names():
        assert callable(getattr(importlib.import_module(f"tenrec.{module}"), name))


@pytest.mark.parametrize("run, names", [
    (completion_run, [("completion", "update_z"), ("completion", "lagrangian_value")]),
    (decomposition_run, [("rpca", "update_l"), ("rpca", "update_e"), ("rpca", "update_n"),
                         ("rpca", "_lagrangian"), ("completion", "lagrangian_value")]),
])
def test_traced_data_block_runs_once_per_sweep(monkeypatch, run, names):
    assert set(names) <= traced_names()
    calls = {name: 0 for _, name in names}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module, name in names:
        original = getattr(importlib.import_module(f"tenrec.{module}"), name)
        wrap_everywhere(monkeypatch, original, counting(name, original))
    report = run(max_iter=12)()
    assert report.iterations == 12
    assert calls == {name: 12 for _, name in names}


@pytest.mark.parametrize("run", [completion_run, decomposition_run])
def test_pair_01_fold_is_a_view(monkeypatch, run):
    # with beta = (1, 0, 0) only pair (0, 1) is folded, twice a sweep, and
    # both folds are read-only views of its M and Q; from about 32k entries
    # NumPy's elementwise passes keep a strided operand's layout
    fold = tenrec.completion.fold_mode_pair
    views = []

    def recording(t3, mode1, mode2, shape):
        out = fold(t3, mode1, mode2, shape)
        if (mode1, mode2) == (0, 1):
            views.append(not out.flags.writeable and np.may_share_memory(out, t3))
        return out

    monkeypatch.setattr(tenrec.completion, "fold_mode_pair", recording)
    report = run(max_iter=6, shape=(64, 64, 8))()
    assert report.iterations == 6
    assert len(views) == 2 * report.iterations
    assert all(views)


@pytest.mark.parametrize("run", [completion_run, decomposition_run])
def test_every_pair_fold_is_a_view(monkeypatch, run):
    # every fold is a view, so each sweep folds every pair's M and Q back
    # onto the 3-way estimate without moving data, and the data step reads
    # them in place
    fold = tenrec.completion.fold_mode_pair
    views = []

    def recording(t3, mode1, mode2, shape):
        out = fold(t3, mode1, mode2, shape)
        views.append(((mode1, mode2), not out.flags.writeable and np.may_share_memory(out, t3)))
        return out

    monkeypatch.setattr(tenrec.completion, "fold_mode_pair", recording)
    report = run(max_iter=6, shape=(64, 64, 8), beta=None)()
    assert report.iterations == 6
    assert len(views) == 2 * 3 * report.iterations
    assert {pair for pair, _ in views} == {(0, 1), (0, 2), (1, 2)}
    assert all(view for _, view in views)
