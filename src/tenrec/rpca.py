"""Robust tensor PCA under mixed noise: T = L + E + N.

Decomposes an observation into a low-rank part L (coupled to mode-pair
surrogates exactly as in the completion solver), an entrywise-sparse part
E handled by soft thresholding, and a dense Gaussian part N handled by a
ridge step.  All three couplings live in one augmented Lagrangian whose
penalties may grow geometrically between sweeps.
"""

from __future__ import annotations

import time

import numpy as np

from .algebra import fold_mode_pair, fourier_singular_values, unfold_mode_pair
from .completion import (
    DESCENT_RTOL,
    SUBPROBLEM_RTOL,
    PairState,
    _penalty_energy,
    _sorted_desc,
    update_m_pair,
    update_multiplier,
)
from .config import SolverConfig
from .penalty import (
    WeightState,
    shrink_singular_values,
    update_lambda_bar,
    update_weights,
)
from .report import RecoveryReport


def soft_threshold(x, lam):
    """Elementwise shrinkage toward zero: 0 inside [-lam, lam], else |x|-lam."""
    if np.any(np.asarray(lam) < 0):
        raise ValueError("threshold must be non-negative")
    x = np.asarray(x, dtype=float)
    out = np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def update_l(t, e, n, f, l_prev, pairs, betas, m_new, r_old, mu, ptau, rho):
    """Closed-form low-rank update.

    Averages the folded pair surrogates (each pair's quadratic scaled by
    its beta weight) with the data residual and the proximal anchor.
    """
    shape = t.shape
    numerator = ptau * (t - e - n) + f + rho * l_prev
    denom = ptau + rho
    for pair, beta, g, r in zip(pairs, betas, m_new, r_old):
        numerator = numerator + beta * fold_mode_pair(mu * g - r, pair[0], pair[1], shape)
        denom += beta * mu
    return numerator / denom


def update_e(t, l_new, n_prev, e_prev, f, ptau, tau1, rho):
    """Sparse-part update: soft thresholding of the residual average.

    Solves ``min_E tau1*||E||_1 + (ptau/2)*||T - L - E - N + F/ptau||_F^2
    + (rho/2)*||E - E_prev||_F^2`` in closed form.
    """
    arg = (ptau * (t - l_new - n_prev + f / ptau) + rho * e_prev) / (ptau + rho)
    return soft_threshold(arg, tau1 / (ptau + rho))


def update_n(t, l_new, e_new, n_prev, f, ptau, tau2, rho):
    """Gaussian-part ridge update."""
    return (ptau * (t - l_new - e_new) + f + rho * n_prev) / (2.0 * tau2 + ptau + rho)


def decompose(observed, config=None, ground_truth=None, track_descent=False):
    """Split a corrupted tensor into low-rank, sparse and Gaussian parts.

    Args:
        observed: the corrupted data tensor (any number of modes >= 2).
        config: SolverConfig; package defaults when omitted.
        ground_truth: optional clean low-rank reference; adds ``rel_error``.
        track_descent: record per-sweep Lagrangian and convex-subproblem
            descent checks (meant for growth=1.0 runs).

    Returns:
        RecoveryReport with ``tensors['L']``, ``tensors['E']``,
        ``tensors['N']``.
    """
    cfg = (config or SolverConfig()).validate()
    t = np.asarray(observed, dtype=float)
    if t.ndim < 2:
        raise ValueError("decomposition needs at least a 2-way tensor")
    if not np.all(np.isfinite(t)):
        raise ValueError("observed tensor must be finite")
    tau1, tau2 = cfg.resolve_tau(t.shape)

    l = t.copy()
    e = np.zeros_like(t)
    n = np.zeros_like(t)
    f = np.zeros_like(t)
    states = [
        PairState(pair, beta, unfold_mode_pair(l, pair[0], pair[1]))
        for pair, beta in cfg.pair_weights(t.ndim)
    ]

    trace = []
    notes = {"descent_violations": 0, "subproblem_violations": 0, "strict_flips": 0}
    mu, rho, ptau = cfg.mu0, cfg.rho0, cfg.penalty_tau
    converged = False
    started = time.perf_counter()

    iterations = 0
    for it in range(1, cfg.max_iter + 1):
        iterations = it
        rho1 = cfg.gamma1 * mu
        monitor = {"subproblems": {}} if track_descent else None
        if track_descent:
            monitor["lag_before"] = _lagrangian(
                t, l, e, n, f, states, mu, ptau, tau1, tau2, cfg.gamma, cfg.epsilon
            )

        updates = {}
        for st in states:
            w_new = update_weights(st.sigma, st.weights, cfg.gamma, rho, cfg.epsilon)
            l_unf = unfold_mode_pair(l, st.pair[0], st.pair[1])
            g_new, sigma_new, sigma_arg = update_m_pair(
                st.m, l_unf, st.q, w_new, mu, rho1, cfg.epsilon,
                strict=cfg.strict_prox, basis=st.basis,
            )
            lam_new = update_lambda_bar(w_new, st.weights.lam_bar, cfg.gamma, rho)
            updates[st.label] = (g_new, sigma_new, w_new, lam_new)
            if cfg.strict_prox:
                default_vals = shrink_singular_values(
                    sigma_arg, w_new, rho1 / st.m.shape[2], cfg.epsilon
                )
                notes["strict_flips"] += int(np.count_nonzero(default_vals != sigma_new))
            if track_descent:
                t_star = np.log1p(st.sigma / cfg.epsilon)
                before_w = float(np.sum(st.weights.w * t_star)) + 0.5 * cfg.gamma * float(
                    np.sum((st.weights.w - st.weights.lam_bar) ** 2)
                )
                after_w = (
                    float(np.sum(w_new * t_star))
                    + 0.5 * cfg.gamma * float(np.sum((w_new - st.weights.lam_bar) ** 2))
                    + 0.5 * rho * float(np.sum((w_new - st.weights.w) ** 2))
                )
                monitor["subproblems"][st.label] = {
                    "w": (before_w, after_w),
                    "lam": (
                        0.5 * cfg.gamma * float(np.sum((w_new - st.weights.lam_bar) ** 2)),
                        0.5 * cfg.gamma * float(np.sum((w_new - lam_new) ** 2))
                        + 0.5 * rho * float(np.sum((lam_new - st.weights.lam_bar) ** 2)),
                    ),
                }

        pairs = [st.pair for st in states]
        betas = [st.beta for st in states]
        g_list = [updates[st.label][0] for st in states]
        r_list = [st.q for st in states]
        l_new = update_l(t, e, n, f, l, pairs, betas, g_list, r_list, mu, ptau, rho)
        e_new = update_e(t, l_new, n, e, f, ptau, tau1, rho)
        n_new = update_n(t, l_new, e_new, n, f, ptau, tau2, rho)

        if track_descent:
            _monitor_blocks(
                monitor, t, l, e, n, l_new, e_new, n_new, f, states, g_list,
                mu, ptau, tau1, tau2, rho, betas,
            )
            lag_after = _lagrangian_staged(
                t, l_new, e_new, n_new, f, states, updates, mu, ptau, tau1, tau2,
                cfg.gamma, cfg.epsilon,
            )
            monitor["lag_after"] = lag_after
            if lag_after > monitor["lag_before"] * (1 + DESCENT_RTOL) + 1e-12:
                notes["descent_violations"] += 1
            _count_violations(notes, monitor["subproblems"])

        diff = float(np.max(np.abs(l_new - l)))

        for st in states:
            g_new, sigma_new, w_new, lam_new = updates[st.label]
            l_new_unf = unfold_mode_pair(l_new, st.pair[0], st.pair[1])
            st.q = update_multiplier(st.q, l_new_unf, g_new, mu)
            st.m = g_new
            st.sigma = _sorted_desc(sigma_new)
            st.weights = WeightState(w_new, lam_new)
        l, e, n = l_new, e_new, n_new
        f = f + ptau * (t - l - e - n)

        residual = t - l - e - n
        row = {
            "iter": it,
            "inf_norm_diff": diff,
            "lagrangian": _lagrangian(
                t, l, e, n, f, states, mu, ptau, tau1, tau2, cfg.gamma, cfg.epsilon
            ),
            "seconds": time.perf_counter() - started,
            "E_l1": float(np.sum(np.abs(e))),
            "N_fro": float(np.linalg.norm(n)),
            "residual_fro": float(np.linalg.norm(residual)),
        }
        if track_descent:
            row.update(monitor)
        trace.append(row)

        mu *= cfg.growth
        rho *= cfg.growth
        ptau *= cfg.growth
        if diff <= cfg.tol:
            converged = True
            break

    metrics = {}
    if ground_truth is not None:
        ref = np.asarray(ground_truth, dtype=float)
        denom = max(float(np.linalg.norm(ref)), 1e-300)
        metrics["rel_error"] = float(np.linalg.norm(l - ref)) / denom

    return RecoveryReport(
        tensors={"L": l, "E": e, "N": n},
        trace=trace,
        metrics=metrics,
        converged=converged,
        iterations=iterations,
        wall_seconds=time.perf_counter() - started,
        notes=notes,
    )


def _lagrangian(t, l, e, n, f, states, mu, ptau, tau1, tau2, gamma, epsilon):
    """Pair-weighted augmented Lagrangian; non-increasing across one sweep
    (multipliers and penalty scalars held fixed)."""
    total = tau1 * float(np.sum(np.abs(e))) + tau2 * float(np.sum(n**2))
    total += 0.5 * ptau * float(np.sum((t - l - e - n + f / ptau) ** 2))
    for st in states:
        l_unf = unfold_mode_pair(l, st.pair[0], st.pair[1])
        quad = 0.5 * mu * float(np.sum((l_unf - st.m + st.q / mu) ** 2))
        total += st.beta * (
            _penalty_energy(st.sigma, st.weights.w, st.weights.lam_bar, gamma, epsilon) + quad
        )
    return total


def _lagrangian_staged(t, l, e, n, f, states, updates, mu, ptau, tau1, tau2, gamma, epsilon):
    total = tau1 * float(np.sum(np.abs(e))) + tau2 * float(np.sum(n**2))
    total += 0.5 * ptau * float(np.sum((t - l - e - n + f / ptau) ** 2))
    for st in states:
        g_new, sigma_new, w_new, lam_new = updates[st.label]
        l_unf = unfold_mode_pair(l, st.pair[0], st.pair[1])
        quad = 0.5 * mu * float(np.sum((l_unf - g_new + st.q / mu) ** 2))
        total += st.beta * (_penalty_energy(sigma_new, w_new, lam_new, gamma, epsilon) + quad)
    return total


def _monitor_blocks(monitor, t, l, e, n, l_new, e_new, n_new, f, states, g_list,
                    mu, ptau, tau1, tau2, rho, betas):
    def l_obj(x, anchor):
        value = 0.5 * ptau * float(np.sum((t - x - e - n + f / ptau) ** 2))
        for st, g, beta in zip(states, g_list, betas):
            x_unf = unfold_mode_pair(x, st.pair[0], st.pair[1])
            value += beta * 0.5 * mu * float(np.sum((x_unf - g + st.q / mu) ** 2))
        if anchor is not None:
            value += 0.5 * rho * float(np.sum((x - anchor) ** 2))
        return value

    def e_obj(x, anchor):
        value = tau1 * float(np.sum(np.abs(x)))
        value += 0.5 * ptau * float(np.sum((t - l_new - x - n + f / ptau) ** 2))
        if anchor is not None:
            value += 0.5 * rho * float(np.sum((x - anchor) ** 2))
        return value

    def n_obj(x, anchor):
        value = tau2 * float(np.sum(x**2))
        value += 0.5 * ptau * float(np.sum((t - l_new - e_new - x + f / ptau) ** 2))
        if anchor is not None:
            value += 0.5 * rho * float(np.sum((x - anchor) ** 2))
        return value

    monitor["subproblems"]["l"] = (l_obj(l, None), l_obj(l_new, l))
    monitor["subproblems"]["e"] = (e_obj(e, None), e_obj(e_new, e))
    monitor["subproblems"]["n"] = (n_obj(n, None), n_obj(n_new, n))


def _count_violations(notes, subproblems):
    for label, entry in subproblems.items():
        checks = [entry] if label in ("l", "e", "n") else [entry["w"], entry["lam"]]
        for before, after in checks:
            if after > before * (1 + SUBPROBLEM_RTOL) + 1e-12:
                notes["subproblem_violations"] += 1
