"""Low-rank tensor completion, and the sweep both solvers share.

The model couples every mode-pair unfolding of the estimate to an
auxiliary low-rank surrogate through an augmented Lagrangian.  One sweep
(:func:`run_sweeps`) runs in PALM order, each step writing its own
variables once: the pair steps (per pair: singular-value weights,
surrogate shrinkage, weight targets), the data step, the multiplier
ascent, the trace row, and the geometric growth of the penalties.  Only
the sweep reads the pairs: it hands the data block their pull
(:func:`pair_pull`) and adds their part of the Lagrangian
(:func:`lagrangian_value`).  For completion the data block is the
estimate itself: observed entries are copied from the data, unobserved
entries take a beta-weighted average of the surrogates.  Robust PCA
(:mod:`tenrec.rpca`) runs the same sweep with its L/E/N block:
completion is robust PCA with E = N = 0 plus a mask projection.

The model itself is stated by the test suite's ``palm_complete`` (and
``palm_decompose``), a dense transcription of the sweep that the tests
hold this one to, sweep by sweep.  A change to the model edits that
reference in the same diff.
"""

from __future__ import annotations

import time
from functools import reduce

import numpy as np

from .algebra import _mirror_count, fold_mode_pair, fourier_singular_values, unfold_mode_pair
from .config import SolverConfig
from .penalty import shrink_singular_values, update_lambda_bar, update_weights, weighted_log_prox
from .report import RecoveryReport

# rho1 = GAMMA1 * mu is the surrogate step's proximal scalar.  PALM needs
# rho1 > mu (Bolte, Sabach & Teboulle 2014); every shipped config used 1.1.
GAMMA1 = 1.1


class PairState:
    """Per-mode-pair variables, as plain arrays: surrogate ``m``, multiplier
    ``q``, weights ``w``, their target ``lam_bar`` and singular values
    ``sigma`` (R x (I3 // 2 + 1): per half-spectrum slice, which a sum over
    the spectrum counts ``count`` times), and the warm start ``basis`` of
    the shrinkage (``None`` until the prox returns one)."""

    def __init__(self, pair, beta, m):
        self.pair = pair
        self.beta = beta
        self.m = m
        self.q = np.zeros_like(m)
        self.count = _mirror_count(m.shape[2])
        self.w = np.ones((min(m.shape[0], m.shape[1]), self.count.size))
        self.lam_bar = np.ones_like(self.w)
        # Fourier-slice singular values of m, non-increasing per column;
        # carried between sweeps so only the shrinkage step has to factor
        # slices.
        self.sigma = fourier_singular_values(m)
        self.basis = None


def update_m_pair(m, z_unf, q, w_new, mu, rho1, epsilon, strict=False, basis=None):
    """Shrinkage step on one pair's surrogate.

    The argument ``m + (mu*z + q - mu*m)/rho1`` is the proximal-linearized
    point; its Fourier-slice singular values are shrunk under the fixed
    weights ``w_new`` (as :class:`PairState` holds them) with quadratic
    scale ``rho1``.  ``basis`` is the ``next_basis`` this pair's previous
    step returned, or None.

    Returns (m_new, sigma_new, sigma_arg, next_basis), as
    :func:`~tenrec.penalty.weighted_log_prox` returns them.  After a
    truncated factorization ``sigma_arg`` is NaN past the values it
    computed; the solvers read it only to count strict-mode flips, and a
    NaN never counts as one.  ``next_basis`` is the warm start of the
    pair's next step.
    """
    arg = m + (mu * z_unf + q - mu * m) / rho1
    return weighted_log_prox(arg, w_new, rho1, epsilon, strict=strict, basis=basis)


def pair_pull(states, mu, shape):
    """The pairs' pull on a data block's estimate of ``shape``:
    ``(sum(beta * fold(mu*M - Q)), sum(beta*mu))``.  The sum starts from
    the first pair's term, so one pair's pull is that term exactly."""
    pull = reduce(np.add, (st.beta * fold_mode_pair(mu * st.m - st.q, *st.pair, shape)
                           for st in states))
    return pull, sum(st.beta * mu for st in states)


def update_z(observed, index, z_prev, pull, weight, rho):
    """Closed-form estimate update.

    Observed entries are fixed to the data; unobserved entries average the
    pairs' pull (see :func:`pair_pull`) with the previous iterate.  This is
    the exact minimiser of the beta-weighted Lagrangian
    (:func:`lagrangian_value`) plus the proximal term ``(rho/2)*||z -
    z_prev||^2`` over the unobserved entries.

    ``observed`` holds the observed values and ``index`` their flat C-order
    indices.
    """
    z = (rho * z_prev + pull) / (rho + weight)
    np.put(z, index, observed)
    return z


def update_multiplier(q, z_new_unf, m_new, mu):
    """Ascent step on one pair's multiplier."""
    return q + mu * (z_new_unf - m_new)


def lagrangian_value(x, states, mu, gamma, epsilon):
    """The pairs' part of the augmented Lagrangian at the estimate ``x``:
    per pair, beta * (its weighted log term and target tether, summed over
    the whole spectrum, and ``(mu/2)*||unfold(x) - M + Q/mu||^2``)."""
    total = 0.0
    for st in states:
        energy = np.sum(st.count * (st.w * np.log1p(st.sigma / epsilon)
                                    + 0.5 * gamma * (st.w - st.lam_bar) ** 2))
        quad = 0.5 * mu * np.sum((unfold_mode_pair(x, *st.pair) - st.m + st.q / mu) ** 2)
        total += st.beta * float(energy + quad)
    return total


class _MaskedEstimate:
    """Completion's data block for :func:`run_sweeps`: the masked z step."""

    def __init__(self, observed, mask):
        # The observed entries and their flat C-order indices, read once per
        # solve in any memory order.
        self.index = np.flatnonzero(mask)
        if self.index.size == 0:
            raise ValueError("mask observes no entry")
        self.values = observed[mask]
        if not np.all(np.isfinite(self.values)):
            raise ValueError("observed entries must be finite")
        self.x = np.zeros(observed.shape)
        np.put(self.x, self.index, self.values)

    def lagrangian(self):
        return 0.0  # the indicator of the observation constraint

    def step(self, pull, weight, rho):
        self.x = update_z(self.values, self.index, self.x, pull, weight, rho)

    def ascend(self):
        return {}

    def grow(self, growth):
        pass

    def tensors(self):
        return {"Z": self.x}


def complete(observed, mask, config=None):
    """Recover missing entries of a partially observed tensor.

    Args:
        observed: data tensor; only entries under ``mask`` are trusted.
        mask: boolean tensor of observed positions, same shape.
        config: SolverConfig; package defaults when omitted.

    Returns:
        RecoveryReport with the completed tensor under ``tensors['Z']``, which
        :mod:`tenrec.metrics` scores against a ground truth.

    Raises:
        ValueError: on a mask or data it cannot use: a mask that is not
            boolean, of another shape, or that observes no entry, or an
            observed entry that is not finite.
        FloatingPointError: on a floating-point overflow or invalid
            operation during the sweeps (see :func:`run_sweeps`).
    """
    observed = np.asarray(observed, dtype=float)
    mask = np.asarray(mask)
    if mask.dtype != bool:
        raise ValueError("mask must be boolean")
    if mask.shape != observed.shape:
        raise ValueError(f"mask shape {mask.shape} does not match data {observed.shape}")
    if observed.ndim < 2:
        raise ValueError("completion needs at least a 2-way tensor")
    block = _MaskedEstimate(observed, mask)
    del observed, mask  # the block keeps the observed entries only
    return run_sweeps(config or SolverConfig(), block)


@np.errstate(over="raise", divide="raise", invalid="raise")
def run_sweeps(cfg, block):
    """The sweeps of both solvers, until no entry of the estimate moves more
    than ``cfg.tol``.

    A sweep runs the pair steps, the data step, the ascent, the trace row
    and the penalty growth.  ``block`` is the solver's data block.  It
    holds the estimate ``x`` and provides ``step(pull, weight, rho)`` (its
    primal update, given the pairs' pull on ``x`` from
    :func:`pair_pull`), ``lagrangian()`` (its own part of the Lagrangian,
    to which the sweep adds the pairs' part, :func:`lagrangian_value`),
    ``ascend()`` (its own multiplier step; returns extra trace columns),
    ``grow(growth)`` and ``tensors()``.  Only the sweep reads the pairs'
    states and ``mu``.

    Raises:
        FloatingPointError: where a floating-point overflow, division by
            zero or invalid operation happens (data too large in magnitude,
            say).  Underflow is left as the caller set it, and the caller's
            error state returns after the sweeps.
    """
    states = [
        PairState(pair, beta, unfold_mode_pair(block.x, pair[0], pair[1]))
        for pair, beta in cfg.pair_weights(block.x.ndim)
    ]
    trace = []
    notes = {"strict_flips": 0}
    mu, rho = cfg.mu0, cfg.rho0
    converged = False
    started = time.perf_counter()

    iterations = 0
    for it in range(1, cfg.max_iter + 1):
        iterations = it
        x = block.x
        for st in states:
            notes["strict_flips"] += _pair_step(st, x, mu, rho, cfg)
        block.step(*pair_pull(states, mu, x.shape), rho)

        diff = float(np.max(np.abs(block.x - x))) if x.size else 0.0

        for st in states:
            st.q = update_multiplier(st.q, unfold_mode_pair(block.x, *st.pair), st.m, mu)
        columns = block.ascend()

        trace.append({
            "iter": it,
            "inf_norm_diff": diff,
            "lagrangian": block.lagrangian() + lagrangian_value(
                block.x, states, mu, cfg.gamma, cfg.epsilon),
            "seconds": time.perf_counter() - started,
            **columns,
        })

        mu *= cfg.growth
        rho *= cfg.growth
        block.grow(cfg.growth)
        if diff <= cfg.tol:
            converged = True
            break

    return RecoveryReport(tensors=block.tensors(), trace=trace, converged=converged,
                          iterations=iterations, notes=notes)


def _pair_step(st, x, mu, rho, cfg):
    """Weights, surrogate shrinkage (with its next warm start) and weight
    targets of one pair, each written into ``st``; the multiplier is left
    to the ascent.  Returns the number of values that strict mode zeroes
    and the default rule keeps (0 outside strict mode)."""
    rho1 = GAMMA1 * mu
    m_old = st.m
    st.w = update_weights(st.sigma, st.w, st.lam_bar, cfg.gamma, rho, cfg.epsilon)
    st.m, st.sigma, sigma_arg, st.basis = update_m_pair(
        m_old, unfold_mode_pair(x, st.pair[0], st.pair[1]), st.q, st.w, mu, rho1, cfg.epsilon,
        strict=cfg.strict_prox, basis=st.basis,
    )
    st.lam_bar = update_lambda_bar(st.w, st.lam_bar, cfg.gamma, rho)
    if not cfg.strict_prox:
        return 0
    default_vals = shrink_singular_values(sigma_arg, st.w, rho1 / m_old.shape[2], cfg.epsilon)
    return int(np.sum(st.count * (default_vals != st.sigma)))
