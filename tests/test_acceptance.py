"""Acceptance suite: one test per release criterion, one PASS line each.

Synthetic instances stand in for the image corpora; recovery thresholds
were frozen from verified runs of the shipped configs in ``configs/``.
"""

import csv
import functools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from tenrec import (
    NoiseSpec,
    add_mixed_noise,
    build_config,
    complete,
    decompose,
    gen_lowrank,
    gen_mask,
    load_config_file,
    mlcp,
    save_tensor,
    shrink_singular_values,
    t_product,
    unfold_mode_pair,
    fold_mode_pair,
)
from tenrec.algebra import mode_pairs
from tenrec.cli import main

from oracles import (cp_completion_instance, cp_tensor, descent_rises, fourway_instance,
                     full_spectrum_sv, lgamma_norm, mlcp_weight_minimizer, palm_complete,
                     palm_decompose, t_svd)
from test_completion import SMALL_CFG, estimate_error, small_instance
from test_rpca import RAW_CFG

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
REFERENCE_AT_SEED_0 = json.loads((Path(__file__).parent / "reference_seed0.json").read_text())


def lrtc_instance():
    gt = gen_lowrank((30, 30, 20), 3, seed=42)
    gt = gt / np.max(np.abs(gt))  # solver knobs are calibrated to unit peak
    mask = gen_mask(gt.shape, 0.30, seed=42).mask
    return gt, mask, np.where(mask, gt, 0.0)


def trpca_instance():
    l_true = gen_lowrank((30, 30, 10), 2, seed=7)
    observed = add_mixed_noise(
        l_true, NoiseSpec(sp_fraction=0.10, gaussian_sigma=0.05, seed=7)
    )
    return l_true, observed


def lrtc_config():
    return build_config(load_config_file(CONFIG_DIR / "lrtc_synthetic.cfg"))


def trpca_config():
    return build_config(load_config_file(CONFIG_DIR / "trpca_synthetic.cfg"))


def assert_seed0_reference(workload, report, rel):
    """Pin a solve's sweeps and 4-digit rel_error to ``reference_seed0.json``.

    A1 and A2 are the benchmark's ``a1-cli`` and ``a2-cli`` instances at
    seed 0.  Until ``perfbench/workloads.py`` reads this file, perfbench
    keeps its own copy of these values (``REFERENCE_AT_SEED_0``), so a
    change that moves them edits both.
    """
    pinned = REFERENCE_AT_SEED_0[workload]
    assert (report.iterations, f"{rel:.3e}") == (pinned["sweeps"], pinned["rel_error"])


def test_a1_completion_synthetic_recovery():
    gt, mask, observed = lrtc_instance()
    started = time.perf_counter()
    report = complete(observed, mask, lrtc_config())
    elapsed = time.perf_counter() - started
    rel = estimate_error(report, gt)
    assert rel <= 1e-2
    assert report.iterations <= 500
    assert_seed0_reference("a1-cli", report, rel)
    assert elapsed <= 60.0
    print(f"A1 completion recovery: PASS (rel_error={rel:.3e}, "
          f"iters={report.iterations}, {elapsed:.1f}s)")


def test_a2_robust_pca_synthetic_recovery():
    l_true, observed = trpca_instance()
    started = time.perf_counter()
    report = decompose(observed, trpca_config())
    elapsed = time.perf_counter() - started
    rel = estimate_error(report, l_true)
    assert rel <= 5e-2
    assert_seed0_reference("a2-cli", report, rel)
    assert elapsed <= 60.0
    print(f"A2 robust-pca recovery: PASS (rel_error={rel:.3e}, "
          f"iters={report.iterations}, {elapsed:.1f}s)")


def test_a3_weight_equivalence_oracle():
    rng = np.random.default_rng(2024)
    worst_scalar = 0.0
    for _ in range(1000):
        z = rng.uniform(-5.0, 5.0)
        lam = rng.uniform(0.05, 2.0)
        gamma = rng.uniform(0.5, 50.0)
        eps = rng.uniform(0.01, 1.0)
        t = np.log1p(abs(z) / eps)
        w_star = mlcp_weight_minimizer(z, lam, gamma, eps)
        closed = w_star * t + gamma / 2 * (w_star - lam) ** 2
        grid = np.arange(0.0, 2.0 * lam + 1e-5, 1e-5)
        grid_min = float(np.min(grid * t + gamma / 2 * (grid - lam) ** 2))
        worst_scalar = max(worst_scalar, abs(closed - grid_min))
        assert abs(closed - grid_min) <= 1e-6
        assert closed == pytest.approx(mlcp(z, lam, gamma, eps), abs=1e-10)

    worst_tensor = 0.0
    for k in range(100):
        i1, i2, i3 = rng.integers(2, 5, size=3)
        z = rng.standard_normal((i1, i2, i3))
        r = min(i1, i2)
        lam = rng.uniform(0.2, 1.5, size=(r, i3))
        gamma = rng.uniform(1.0, 20.0)
        eps = rng.uniform(0.05, 0.5)
        value = lgamma_norm(z, lam, gamma, eps)
        sigma = full_spectrum_sv(z)
        ref = 0.0
        for j in range(r):
            for i in range(i3):
                t = np.log1p(sigma[j, i] / eps)
                grid = np.arange(0.0, 2.0 * lam[j, i] + 1e-5, 1e-5)
                ref += float(np.min(grid * t + gamma / 2 * (grid - lam[j, i]) ** 2))
        worst_tensor = max(worst_tensor, abs(value - ref))
        assert abs(value - ref) <= 1e-5
    print(f"A3 weight equivalence: PASS (scalar gap<={worst_scalar:.1e}, "
          f"tensor gap<={worst_tensor:.1e})")


def _grid_shrink(y, w, rho, eps):
    """Two-stage 1e-6-resolution grid argmin of the shrink objective.

    The objective has at most two local minima (zero and one interior
    root), so refining around the coarse argmin and around zero covers
    every candidate.
    """
    if y == 0.0:
        return 0.0

    def obj(s):
        return rho / 2 * (s - y) ** 2 + w * np.log1p(s / eps)

    coarse = np.linspace(0.0, y, 2001)
    step = coarse[1] - coarse[0]
    best = coarse[int(np.argmin(obj(coarse)))]
    pieces = [coarse]
    for center in (0.0, best):
        lo, hi = max(0.0, center - step), min(y, center + step)
        pieces.append(np.arange(lo, hi + 1e-6, 1e-6))
    pts = np.concatenate(pieces)
    return float(pts[np.argmin(obj(pts))])


def test_a4_shrinkage_grid_oracle():
    rng = np.random.default_rng(4321)
    zero_branch = root_branch = flips = 0
    for k in range(1000):
        y = rng.uniform(0.0, 3.0)
        w = rng.uniform(0.0, 2.0)
        rho = rng.uniform(0.1, 2.0)
        eps = rng.uniform(0.01, 1.0)
        if k % 50 == 0:
            # exercise the threshold boundary exactly
            boundary = 2.0 * np.sqrt(w / rho) - eps
            if boundary > 0:
                y = boundary
        strict = shrink_singular_values(y, w, rho, eps, strict=True)
        default = shrink_singular_values(y, w, rho, eps)
        oracle = _grid_shrink(y, w, rho, eps)
        assert abs(strict - oracle) <= 1e-5
        if default == strict:
            assert abs(default - oracle) <= 1e-5
        else:
            flips += 1  # near-threshold band where the branch rule keeps the root
        if default == 0.0:
            zero_branch += 1
        else:
            root_branch += 1
    assert zero_branch > 0 and root_branch > 0
    assert flips < 100
    print(f"A4 shrinkage oracle: PASS (zero={zero_branch}, root={root_branch}, "
          f"branch-rule flips={flips})")


def test_a5_log_upper_bound():
    lam, eps = 1.0, 0.1
    z = np.linspace(0.0, 8.0, 10_000)
    log_ref = lam * np.log1p(z / eps)
    sup_gaps = {}
    for gamma in (10.0, 1e3, 1e6):
        vals = mlcp(z, lam, gamma, eps)
        assert np.all(vals <= log_ref + 1e-12)
        assert np.all(vals[1:] < log_ref[1:])
        gap = float(np.max(log_ref - vals))
        assert gap <= 10.0 / gamma
        sup_gaps[gamma] = gap
    print(f"A5 log upper bound: PASS (sup gap at 1e6: {sup_gaps[1e6]:.2e} <= 1e-5)")


def test_a6_algebra_oracles():
    rng = np.random.default_rng(66)

    def bcirc(a):
        i1, i2, i3 = a.shape
        out = np.zeros((i1 * i3, i2 * i3))
        for r in range(i3):
            for c in range(i3):
                out[r * i1:(r + 1) * i1, c * i2:(c + 1) * i2] = a[:, :, (r - c) % i3]
        return out

    worst_prod = worst_svd = 0.0
    for _ in range(50):
        i1, i2, j, i3 = rng.integers(1, 7, size=4)
        a = rng.standard_normal((i1, i2, i3))
        b = rng.standard_normal((i2, j, i3))
        c = t_product(a, b)
        bvec = b.transpose(2, 0, 1).reshape(i2 * i3, j)
        ref = (bcirc(a) @ bvec).reshape(i3, i1, j).transpose(1, 2, 0)
        err = np.linalg.norm(c - ref) / max(np.linalg.norm(ref), 1.0)
        worst_prod = max(worst_prod, err)
        assert err <= 1e-10

        fac = t_svd(a)
        rec_err = np.linalg.norm(fac.compose() - a) / max(np.linalg.norm(a), 1.0)
        worst_svd = max(worst_svd, rec_err)
        assert rec_err <= 1e-10

    shape = (4, 5, 3, 2)
    t = rng.standard_normal(shape)
    for m1, m2 in mode_pairs(4):
        u = unfold_mode_pair(t, m1, m2)
        assert np.array_equal(fold_mode_pair(u, m1, m2, shape), t)
    print(f"A6 algebra oracles: PASS (t-product err<={worst_prod:.1e}, "
          f"t-svd err<={worst_svd:.1e}, fold/unfold exact)")


A7_SWEEPS = 100


@functools.cache
def model_rises(case, beta, strict):
    """The model's rises at frozen growth (``oracles.descent_rises``) on a
    descent case: A1 (``"completion"``) or A2 (``"robust-pca"``) over
    A7_SWEEPS sweeps, or the unit tests' small completion or robust-PCA
    instance over 40, with ``beta`` for the config's unless it is
    ``"shipped"``.  Returns (sweeps, steps, sweeps that rose, names of the
    steps that rose)."""
    if case == "completion":
        _, mask, observed = lrtc_instance()
        cfg, sweeps = lrtc_config(), A7_SWEEPS
    elif case == "small-completion":
        _, mask, observed = small_instance(seed=16)
        cfg, sweeps = SMALL_CFG, 40
    elif case == "robust-pca":
        _, observed = trpca_instance()
        cfg, sweeps = trpca_config(), A7_SWEEPS
    else:
        l_true = gen_lowrank((20, 20, 6), 2, seed=14)
        observed = add_mixed_noise(l_true, NoiseSpec(sp_fraction=0.05, gaussian_sigma=0.02,
                                                     seed=4))
        cfg, sweeps = RAW_CFG, 40
    cfg = cfg.updated(growth=1.0, strict_prox=strict)
    if beta != "shipped":
        cfg = cfg.updated(beta=beta)
    run = (palm_complete(observed, mask, cfg, sweeps) if "completion" in case
           else palm_decompose(observed, cfg, sweeps))
    risen_sweeps, risen_steps = descent_rises(run)
    return sweeps, sum(len(sweep.steps) for sweep in run), risen_sweeps, tuple(risen_steps)


@pytest.mark.parametrize("case, beta", [
    ("completion", "shipped"), ("robust-pca", "shipped"),
    ("completion", (0.6, 0.3, 0.1)), ("robust-pca", (0.6, 0.3, 0.1)),
    ("completion", None), ("robust-pca", None),
    ("small-completion", "shipped"), ("small-robust-pca", "shipped"),
], ids=["completion", "robust-pca", "completion-beta-0.6-0.3-0.1", "robust-pca-beta-0.6-0.3-0.1",
        "completion-uniform-beta", "robust-pca-uniform-beta", "small-completion",
        "small-robust-pca"])
def test_a7_descent_frozen_growth(case, beta):
    # PALM's sufficient decrease (Bolte, Sabach & Teboulle 2014) under the
    # exact proximal map: no sweep and no step of the model raises the
    # Lagrangian.  The model runs every sweep, where the solver's strict A1
    # stops after one (test_a7_completion_runs_every_sweep).
    sweeps, steps, risen_sweeps, risen_steps = model_rises(case, beta, strict=True)
    assert (risen_sweeps, risen_steps) == (0, ())
    print(f"A7 descent of the model ({case}, beta {beta}, strict rule, {sweeps} frozen-growth "
          f"sweeps): PASS (0 of {sweeps} sweeps and 0 of {steps} steps rose)")


def test_a7_default_rule_breaks_descent():
    # ROADMAP item 2: the default rule is not the proximal map, and on A2's
    # config its surrogate step raises the Lagrangian; no other step does
    counts = {(case, strict): model_rises(case, "shipped", strict)
              for strict in (False, True) for case in ("completion", "robust-pca")}
    risen = counts["robust-pca", False][3]
    assert len(risen) >= 1 and all(name.endswith(".m") for name in risen)
    assert counts["robust-pca", True][3] == ()
    print("A7 rises of the model at the shipped beta (steps that rose in "
          f"{A7_SWEEPS} frozen-growth sweeps, completion / robust PCA): " + ", ".join(
              f"{rule} rule {len(counts['completion', strict][3])} / "
              f"{len(counts['robust-pca', strict][3])}"
              for rule, strict in (("default", False), ("strict", True))))


def test_a1_strict_flips_in_sweep_one():
    # the values that strict mode zeroes and the branch rule keeps in A1's
    # first sweep, counted over the whole spectrum: a value of a slice
    # with a conjugate mirror counts twice
    gt, mask, observed = lrtc_instance()
    report = complete(observed, mask, lrtc_config().updated(strict_prox=True, max_iter=1))
    assert report.notes["strict_flips"] == 33


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "false convergence: strict mode zeroes in sweep 1 the 33 values the branch rule "
    "keeps, z stays at the masked data and inf_norm_diff = 0.0 meets tol = 1e-300"))
def test_a7_completion_runs_every_sweep():
    gt, mask, observed = lrtc_instance()
    cfg = lrtc_config().updated(growth=1.0, max_iter=100, tol=1e-300, strict_prox=True)
    report = complete(observed, mask, cfg)
    assert report.iterations == 100


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "false convergence (ROADMAP items 1 and 9): the stop test inf_norm_diff <= tol is met "
    "by a stalled iterate: on A2 after 7, 6 and 4 sweeps at rel_error 0.974; on the CP "
    "instance after 8 and 5 sweeps at 0.974 at its own scale, and at A2's peak after 134 "
    "sweeps at 0.615 with beta = (1, 0, 0) and after 6 at 0.974 with beta = None"))
@pytest.mark.parametrize("case", ["uniform-beta", "beta-0.6-0.3-0.1", "unit-peak",
                                  "cp-beta-1-0-0", "cp-uniform-beta",
                                  "cp-a2-peak-beta-1-0-0", "cp-a2-peak-uniform-beta"])
def test_robust_pca_never_reports_false_convergence(case):
    l_true = gen_lowrank((30, 30, 10), 2, seed=7)
    cfg = trpca_config().updated(max_iter=50)
    if case.startswith("cp-"):
        # low rank in every mode pair; the 134-sweep stop needs more than 50 sweeps
        a2_peak = np.max(np.abs(l_true))
        l_true = cp_tensor((30, 30, 10), 2, seed=7)
        cfg = cfg.updated(max_iter=300)
        if "a2-peak" in case:
            l_true = l_true * (a2_peak / np.max(np.abs(l_true)))
    if case.endswith("uniform-beta"):
        cfg = cfg.updated(beta=None)
    elif case == "beta-0.6-0.3-0.1":
        cfg = cfg.updated(beta=(0.6, 0.3, 0.1))
    elif case == "unit-peak":
        l_true = l_true / np.max(np.abs(l_true))
    observed = add_mixed_noise(
        l_true, NoiseSpec(sp_fraction=0.10, gaussian_sigma=0.05, seed=7)
    )
    report = decompose(observed, cfg)
    assert not report.converged or estimate_error(report, l_true) < 0.5


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "false convergence (ROADMAP item 1): every surrogate shrinks to zero in sweep 1, z "
    "stays at the masked data and inf_norm_diff = 0.0 meets tol: A1 with beta = "
    "(0, 0.5, 0.5) stops at rel_error 0.832, the 6x5x4x3 CP-rank-2 tensor with "
    "beta = None at 0.670.  Item 1's hollow-stop rule alone clears the second; the "
    "first then stops after 267 sweeps at 1.066, in pairs where A1's tensor is not "
    "low-rank (item 16)"))
@pytest.mark.parametrize("instance, beta", [(lrtc_instance, (0.0, 0.5, 0.5)),
                                            (fourway_instance, None)],
                         ids=["a1-beta-0-0.5-0.5", "6x5x4x3-uniform-beta"])
def test_completion_never_reports_false_convergence(instance, beta):
    gt, mask, observed = instance()
    report = complete(observed, mask, lrtc_config().updated(beta=beta))
    assert not report.converged or estimate_error(report, gt) < 0.5


def _read_rows(path, drop="seconds"):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row.pop(drop, None)
    return rows


def test_a8_determinism(tmp_path):
    gt = gen_lowrank((12, 12, 6), 2, seed=5)
    gt = gt / np.max(np.abs(gt))
    data = tmp_path / "gt.tns"
    save_tensor(data, gt)
    flags = ["--beta", "1,0,0", "--mu0", "5.0", "--rho0", "1e-3", "--gamma", "1e4",
             "--epsilon", "0.01", "--max-iter", "40", "--tol", "1e-300"]
    for cmd, extra, outputs in [
        ("complete", ["--sr", "0.5", "--seed", "5"], ["recovered.tns"]),
        ("denoise", ["--sp-fraction", "0.05", "--gaussian-sigma", "0.02", "--seed", "9",
                     "--penalty-tau", "1e-4", "--growth", "1.08"], ["L.tns", "E.tns", "N.tns"]),
    ]:
        dirs = [tmp_path / f"{cmd}_{k}" for k in (1, 2)]
        for out in dirs:
            code = main([cmd, str(data), "--out", str(out)] + extra + flags)
            assert code in (0, 3)
        for name in outputs:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        # trace rows identical except the wall-clock column
        assert _read_rows(dirs[0] / "trace.csv") == _read_rows(dirs[1] / "trace.csv")
    print("A8 determinism: PASS (tensors bitwise equal, traces equal "
          "up to the wall-clock column)")


def test_a9_multi_pair_completion():
    # Every pair carries signal here, so weighting all three (beta = None)
    # must recover the tensor within A1's bounds and beat the (1, 2) pair
    # alone, which is A1's shipped weighting.
    started = time.perf_counter()
    rows = []
    for seed in (42, 43):
        gt, mask, observed = cp_completion_instance(seed)
        every, single = (complete(observed, mask, lrtc_config().updated(beta=beta))
                         for beta in (None, (1.0, 0.0, 0.0)))
        rel, rel_single = estimate_error(every, gt), estimate_error(single, gt)
        assert rel <= 1e-2
        assert every.iterations <= 500
        assert rel < rel_single
        rows.append(f"seed {seed}: rel_error={rel:.3e}, iters={every.iterations}, "
                    f"pair 12 alone {rel_single:.3e}")
    elapsed = time.perf_counter() - started
    print(f"A9 multi-pair completion: PASS ({'; '.join(rows)}; {elapsed:.1f}s)")
