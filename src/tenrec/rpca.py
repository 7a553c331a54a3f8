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

The model itself is stated by the test suite's ``palm_decompose``, a
dense transcription of the sweep that the tests hold this one to, sweep
by sweep.  A change to the model edits that reference in the same diff.
"""

from __future__ import annotations

import numpy as np

from .completion import run_sweeps
from .config import SolverConfig


def soft_threshold(x, lam):
    """Elementwise shrinkage toward zero: 0 inside [-lam, lam], else |x|-lam."""
    if not np.all(np.asarray(lam) >= 0):
        raise ValueError("threshold must be non-negative")
    x = np.asarray(x, dtype=float)
    out = np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def update_l(t, e, n, f, l_prev, pull, weight, ptau, rho):
    """Closed-form low-rank update.

    Averages the pairs' pull (``pull`` of total weight ``weight``, see
    :func:`tenrec.completion.pair_pull`) with the data residual and the
    proximal anchor.
    """
    return (ptau * (t - e - n) + f + rho * l_prev + pull) / (ptau + rho + weight)


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


def _lagrangian(t, l, e, n, f, ptau, tau1, tau2):
    """The data block's part of the augmented Lagrangian: the sparse and
    Gaussian penalties and the residual quadratic."""
    total = tau1 * float(np.sum(np.abs(e))) + tau2 * float(np.sum(n**2))
    return total + 0.5 * ptau * float(np.sum((t - l - e - n + f / ptau) ** 2))


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
        residual = self.t - self.x - self.e - self.n
        self.f = self.f + self.ptau * residual
        # einsum, not a threaded BLAS dot that can stall on a large array
        n, r = self.n.ravel(), residual.ravel()
        return {
            "E_l1": float(np.sum(np.abs(self.e))),
            "N_fro": float(np.sqrt(np.einsum("i,i->", n, n))),
            "residual_fro": float(np.sqrt(np.einsum("i,i->", r, r))),
        }

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
    if not np.all(np.isfinite(t)):
        raise ValueError("observed tensor must be finite")
    return run_sweeps(cfg, _LowRankSparseNoise(t, cfg))
