"""Low-rank tensor completion by proximal alternating linearized updates.

The model couples every mode-pair unfolding of the estimate to an
auxiliary low-rank surrogate through an augmented Lagrangian.  One sweep
updates, per pair: the singular-value weights, the surrogate (a weighted
log-penalty shrinkage), and the weight targets; then the estimate itself
(observed entries are copied from the data, unobserved entries take a
penalty-weighted average of the surrogates), and finally the multipliers.
The constraint penalties may grow geometrically between sweeps.
"""

from __future__ import annotations

import time

import numpy as np

from .algebra import fold_mode_pair, fourier_singular_values, unfold_mode_pair
from .config import SolverConfig
from .penalty import (
    SliceBasis,
    WeightState,
    shrink_singular_values,
    update_lambda_bar,
    update_weights,
    weighted_log_prox,
)
from .report import RecoveryReport

DESCENT_RTOL = 1e-8
SUBPROBLEM_RTOL = 1e-9


class PairState:
    """Per-mode-pair variables: surrogate, multiplier, weights, target,
    and the warm start of the surrogate's shrinkage."""

    def __init__(self, pair, beta, m):
        self.pair = pair
        self.label = f"{pair[0] + 1}{pair[1] + 1}"
        self.beta = beta
        self.m = m
        self.q = np.zeros_like(m)
        r = min(m.shape[0], m.shape[1])
        self.weights = WeightState.ones(r, m.shape[2])
        # Fourier-slice singular values of m, sorted per column; carried
        # between sweeps so only the shrinkage step has to factor slices.
        self.sigma = fourier_singular_values(m)
        self.basis = SliceBasis()


def update_m_pair(m, z_unf, q, w_new, mu, rho1, epsilon, strict=False, basis=None):
    """Shrinkage step on one pair's surrogate.

    The argument ``m + (mu*z + q - mu*m)/rho1`` is the proximal-linearized
    point; its Fourier-slice singular values are shrunk under the fixed
    weights ``w_new`` with quadratic scale ``rho1``.  ``basis`` is the
    pair's :class:`~tenrec.penalty.SliceBasis` warm start, or None.

    Returns (m_new, sigma_new, sigma_arg).  After a truncated
    factorization ``sigma_arg`` is NaN past the values it computed (see
    :func:`~tenrec.penalty.weighted_log_prox`); the solvers read it only
    to count strict-mode flips, and a NaN never counts as one.
    """
    arg = m + (mu * z_unf + q - mu * m) / rho1
    return weighted_log_prox(arg, w_new, rho1, epsilon, strict=strict, basis=basis)


def update_z(observed, mask, z_prev, pairs, m_new, q_old, mu, rho):
    """Closed-form estimate update.

    Observed entries are fixed to the data; unobserved entries average the
    folded surrogates minus multipliers, anchored to the previous iterate.
    """
    shape = observed.shape
    numerator = rho * z_prev
    total_mu = 0.0
    for pair, m, q in zip(pairs, m_new, q_old):
        numerator = numerator + fold_mode_pair(mu * m - q, pair[0], pair[1], shape)
        total_mu += mu
    fill = numerator / (total_mu + rho)
    return np.where(mask, observed, fill)


def update_multiplier(q, z_new_unf, m_new, mu):
    """Ascent step on one pair's multiplier."""
    return q + mu * (z_new_unf - m_new)


def _penalty_energy(sigma, w, lam_bar, gamma, epsilon):
    # One pair's penalty block: weighted log term plus target tether.
    t = np.log1p(sigma / epsilon)
    return float(np.sum(w * t) + 0.5 * gamma * np.sum((w - lam_bar) ** 2))


def _sorted_desc(sigma):
    return -np.sort(-sigma, axis=0)


def lagrangian_value(z, states, mu, gamma, epsilon):
    """Pair-weighted augmented Lagrangian at the current variables.

    Each pair contributes beta * (penalty block + constraint quadratic);
    the indicator of the observation constraint is zero by construction.
    With uniform beta this value is non-increasing across one sweep of the
    updates (multipliers and penalty scalars held fixed).
    """
    total = 0.0
    for st in states:
        z_unf = unfold_mode_pair(z, st.pair[0], st.pair[1])
        quad = 0.5 * mu * float(np.sum((z_unf - st.m + st.q / mu) ** 2))
        total += st.beta * (
            _penalty_energy(st.sigma, st.weights.w, st.weights.lam_bar, gamma, epsilon) + quad
        )
    return total


def complete(observed, mask, config=None, ground_truth=None, track_descent=False):
    """Recover missing entries of a partially observed tensor.

    Args:
        observed: data tensor; only entries under ``mask`` are trusted.
        mask: boolean tensor of observed positions, same shape.
        config: SolverConfig; package defaults when omitted.
        ground_truth: optional reference; adds a ``rel_error`` metric.
        track_descent: record per-sweep Lagrangian and convex-subproblem
            descent checks in the report (meant for growth=1.0 runs).

    Returns:
        RecoveryReport with the completed tensor under ``tensors['Z']``.
    """
    cfg = (config or SolverConfig()).validate()
    observed = np.asarray(observed, dtype=float)
    mask = np.asarray(mask)
    if mask.dtype != bool:
        raise ValueError("mask must be boolean")
    if mask.shape != observed.shape:
        raise ValueError(f"mask shape {mask.shape} does not match data {observed.shape}")
    if observed.ndim < 2:
        raise ValueError("completion needs at least a 2-way tensor")
    if not np.all(np.isfinite(observed[mask])):
        raise ValueError("observed entries must be finite")

    z = np.where(mask, observed, 0.0)
    states = [
        PairState(pair, beta, unfold_mode_pair(z, pair[0], pair[1]))
        for pair, beta in cfg.pair_weights(observed.ndim)
    ]

    trace = []
    notes = {"descent_violations": 0, "subproblem_violations": 0, "strict_flips": 0}
    mu, rho = cfg.mu0, cfg.rho0
    converged = False
    started = time.perf_counter()

    iterations = 0
    for it in range(1, cfg.max_iter + 1):
        iterations = it
        rho1 = cfg.gamma1 * mu
        monitor = {"subproblems": {}} if track_descent else None
        if track_descent:
            monitor["lag_before"] = lagrangian_value(z, states, mu, cfg.gamma, cfg.epsilon)

        updates = {}
        for st in states:
            w_new = update_weights(st.sigma, st.weights, cfg.gamma, rho, cfg.epsilon)
            z_unf = unfold_mode_pair(z, st.pair[0], st.pair[1])
            m_new, sigma_new, sigma_arg = update_m_pair(
                st.m, z_unf, st.q, w_new, mu, rho1, cfg.epsilon,
                strict=cfg.strict_prox, basis=st.basis,
            )
            lam_new = update_lambda_bar(w_new, st.weights.lam_bar, cfg.gamma, rho)
            updates[st.label] = (m_new, sigma_new, w_new, lam_new)
            if cfg.strict_prox:
                default_vals = shrink_singular_values(
                    sigma_arg, w_new, rho1 / st.m.shape[2], cfg.epsilon
                )
                notes["strict_flips"] += int(np.count_nonzero(default_vals != sigma_new))
            if track_descent:
                t_star = np.log1p(st.sigma / cfg.epsilon)
                w_obj = lambda w: float(np.sum(w * t_star)) + 0.5 * cfg.gamma * float(
                    np.sum((w - st.weights.lam_bar) ** 2)
                )
                monitor["subproblems"][st.label] = {
                    "w": (
                        w_obj(st.weights.w),
                        w_obj(w_new) + 0.5 * rho * float(np.sum((w_new - st.weights.w) ** 2)),
                    ),
                    "lam": (
                        0.5 * cfg.gamma * float(np.sum((w_new - st.weights.lam_bar) ** 2)),
                        0.5 * cfg.gamma * float(np.sum((w_new - lam_new) ** 2))
                        + 0.5 * rho * float(np.sum((lam_new - st.weights.lam_bar) ** 2)),
                    ),
                }

        pairs = [st.pair for st in states]
        m_list = [updates[st.label][0] for st in states]
        q_list = [st.q for st in states]
        z_new = update_z(observed, mask, z, pairs, m_list, q_list, mu, rho)

        if track_descent:
            z_before = sum(
                0.5 * mu * float(np.sum((unfold_mode_pair(z, *st.pair) - m + st.q / mu) ** 2))
                for st, m in zip(states, m_list)
            )
            z_after = sum(
                0.5 * mu * float(np.sum((unfold_mode_pair(z_new, *st.pair) - m + st.q / mu) ** 2))
                for st, m in zip(states, m_list)
            ) + 0.5 * rho * float(np.sum((z_new - z) ** 2))
            monitor["subproblems"]["z"] = (z_before, z_after)
            lag_after = 0.0
            for st in states:
                m_new, sigma_new, w_new, lam_new = updates[st.label]
                quad = 0.5 * mu * float(
                    np.sum((unfold_mode_pair(z_new, *st.pair) - m_new + st.q / mu) ** 2)
                )
                lag_after += st.beta * (
                    _penalty_energy(sigma_new, w_new, lam_new, cfg.gamma, cfg.epsilon) + quad
                )
            monitor["lag_after"] = lag_after
            if lag_after > monitor["lag_before"] * (1 + DESCENT_RTOL) + 1e-12:
                notes["descent_violations"] += 1
            _count_subproblem_violations(notes, monitor["subproblems"])

        diff = float(np.max(np.abs(z_new - z))) if z.size else 0.0

        for st in states:
            m_new, sigma_new, w_new, lam_new = updates[st.label]
            z_new_unf = unfold_mode_pair(z_new, st.pair[0], st.pair[1])
            st.q = update_multiplier(st.q, z_new_unf, m_new, mu)
            st.m = m_new
            st.sigma = _sorted_desc(sigma_new)
            st.weights = WeightState(w_new, lam_new)
        z = z_new

        row = {
            "iter": it,
            "inf_norm_diff": diff,
            "lagrangian": lagrangian_value(z, states, mu, cfg.gamma, cfg.epsilon),
            "seconds": time.perf_counter() - started,
        }
        if track_descent:
            row.update(monitor)
        trace.append(row)

        mu *= cfg.growth
        rho *= cfg.growth
        if diff <= cfg.tol:
            converged = True
            break

    metrics = {}
    if ground_truth is not None:
        ref = np.asarray(ground_truth, dtype=float)
        denom = max(float(np.linalg.norm(ref)), 1e-300)
        metrics["rel_error"] = float(np.linalg.norm(z - ref)) / denom

    return RecoveryReport(
        tensors={"Z": z},
        trace=trace,
        metrics=metrics,
        converged=converged,
        iterations=iterations,
        wall_seconds=time.perf_counter() - started,
        notes=notes,
    )


def _count_subproblem_violations(notes, subproblems):
    for label, entry in subproblems.items():
        checks = [entry] if label == "z" else [entry["w"], entry["lam"]]
        for before, after in checks:
            if after > before * (1 + SUBPROBLEM_RTOL) + 1e-12:
                notes["subproblem_violations"] += 1
