"""Robust tensor PCA under mixed noise: T = L + E + N.

Decomposes an observation into a low-rank part L (coupled to mode-pair
surrogates exactly as in the completion solver), an entrywise-sparse part
E handled by soft thresholding, and a dense Gaussian part N handled by a
ridge step.  All three terms live in one augmented Lagrangian whose
penalties may grow geometrically between sweeps.

The sweep is :func:`tenrec.completion.run_sweeps`; this module supplies
its data block: the L, E and N steps, their part of the Lagrangian and
the ascent on the residual multiplier F.  The sweep hands the L step the
pairs' pull as two arrays and adds the pairs' part of the Lagrangian.
Each step runs over row blocks, as the sweep's own do, and writes its
value over the one it replaces: L over the pull, E and N over their last
values, F in place.

The model itself is stated by the test suite's ``palm_decompose``, a
dense transcription of the sweep that the tests hold this one to, sweep
by sweep.  A change to the model edits that reference in the same diff.
"""

from __future__ import annotations

import numpy as np

from .completion import _row_blocks, _sum_sq, _write_blocks, run_sweeps
from .config import SolverConfig


def soft_threshold(x, lam):
    """Elementwise shrinkage toward zero: 0 inside [-lam, lam], else |x|-lam."""
    if not np.all(np.asarray(lam) >= 0):
        raise ValueError("threshold must be non-negative")
    x = np.asarray(x, dtype=float)
    out = np.maximum(np.abs(x) - lam, 0.0)
    out *= np.sign(x)  # after the maximum: one temporary fewer alive at once
    if out.ndim == 0:
        return float(out)
    return out


def update_l(t, e, n, f, l_prev, pull, weight, ptau, rho):
    """Closed-form low-rank update.

    Averages the pairs' pull (``pull`` of total weight ``weight``, see
    :func:`tenrec.completion.pair_pull`) with the data residual and the
    proximal anchor, and writes it over ``pull``, whose buffer is returned.
    """
    return _write_blocks(pull, lambda r: (ptau * (t[r] - e[r] - n[r]) + f[r] + rho * l_prev[r]
                                          + pull[r]) / (ptau + rho + weight))


def update_e(t, l_new, n_prev, e_prev, f, ptau, tau1, rho):
    """Sparse-part update: soft thresholding of the residual average.

    Solves ``min_E tau1*||E||_1 + (ptau/2)*||T - L - E - N + F/ptau||_F^2
    + (rho/2)*||E - E_prev||_F^2`` in closed form and writes it over
    ``e_prev``, whose buffer is returned.
    """
    return _write_blocks(e_prev, lambda r: soft_threshold(
        (ptau * (t[r] - l_new[r] - n_prev[r] + f[r] / ptau) + rho * e_prev[r]) / (ptau + rho),
        tau1 / (ptau + rho)))


def update_n(t, l_new, e_new, n_prev, f, ptau, tau2, rho):
    """Gaussian-part ridge update, written over ``n_prev``, whose buffer is
    returned."""
    return _write_blocks(n_prev, lambda r: (ptau * (t[r] - l_new[r] - e_new[r]) + f[r]
                                            + rho * n_prev[r]) / (2.0 * tau2 + ptau + rho))


def _lagrangian(t, l, e, n, f, ptau, tau1, tau2):
    """The data block's part of the augmented Lagrangian: the sparse and
    Gaussian penalties and the residual quadratic, summed block by block."""
    return sum(tau1 * _sum_abs(e[r]) + tau2 * _sum_sq(n[r])
               + 0.5 * ptau * _sum_sq(t[r] - l[r] - e[r] - n[r] + f[r] / ptau)
               for r in _row_blocks(t))


def _sum_abs(a):
    """Sum of the magnitudes of the entries of ``a``."""
    return float(np.sum(np.abs(a)))


class _LowRankSparseNoise:
    """Robust PCA's data block for :func:`tenrec.completion.run_sweeps`."""

    def __init__(self, t, cfg):
        self.t = t
        self.tau1, self.tau2 = cfg.resolve_tau(t.shape)
        self.ptau = cfg.penalty_tau
        self.x = t.copy()
        self.e = np.zeros_like(t)
        self.n = np.zeros_like(t)
        self.f = np.zeros_like(t)

    def lagrangian(self):
        return _lagrangian(self.t, self.x, self.e, self.n, self.f, self.ptau, self.tau1, self.tau2)

    def step(self, pull, weight, rho):
        t, f, ptau = self.t, self.f, self.ptau
        self.x = update_l(t, self.e, self.n, f, self.x, pull, weight, ptau, rho)
        self.e = update_e(t, self.x, self.n, self.e, f, ptau, self.tau1, rho)
        self.n = update_n(t, self.x, self.e, self.n, f, ptau, self.tau2, rho)

    def ascend(self):
        """``F += ptau*(t - L - E - N)`` in place, block by block; returns
        the trace columns."""
        r_sq = e_l1 = 0.0
        for r in _row_blocks(self.t):
            residual = self.t[r] - self.x[r] - self.e[r] - self.n[r]
            r_sq += _sum_sq(residual)
            e_l1 += _sum_abs(self.e[r])
            self.f[r] += self.ptau * residual
            del residual  # not held while the next block is made
        return {"E_l1": e_l1, "N_fro": float(np.sqrt(_sum_sq(self.n))),
                "residual_fro": float(np.sqrt(r_sq))}

    def grow(self, growth):
        self.ptau *= growth

    def tensors(self):
        return {"L": self.x, "E": self.e, "N": self.n}


def decompose(observed, config=None):
    """Split a corrupted tensor into low-rank, sparse and Gaussian parts.

    Args:
        observed: the corrupted data tensor (any number of modes >= 2).
        config: SolverConfig; package defaults when omitted.

    Returns:
        RecoveryReport with ``tensors['L']``, ``tensors['E']``, ``tensors['N']``;
        :mod:`tenrec.metrics` scores L against a ground truth.

    Raises:
        ValueError: on a tensor of fewer than 2 modes, with a zero extent,
            or with an entry that is not finite.
        FloatingPointError: on a floating-point overflow or invalid
            operation during the sweeps (see
            :func:`tenrec.completion.run_sweeps`).
    """
    cfg = config or SolverConfig()
    # A C-ordered copy of an input held in another memory order, so every
    # pass of the sweep runs on one layout.
    t = np.ascontiguousarray(observed, dtype=float)
    if t.ndim < 2:
        raise ValueError("decomposition needs at least a 2-way tensor")
    if 0 in t.shape:
        raise ValueError(f"tensor of shape {t.shape} has a zero extent")
    if not np.all(np.isfinite(t)):
        raise ValueError("observed tensor must be finite")
    return run_sweeps(cfg, _LowRankSparseNoise(t, cfg))
