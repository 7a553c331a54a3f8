"""Capped logarithmic penalty family and its singular-value proximal step.

The scalar penalty grows like ``lam * log(|z|/eps + 1)`` near zero, bends
below that log curve by a quadratic correction in the log, and saturates
at the constant ``gamma * lam**2 / 2`` once the log term reaches
``gamma * lam``.  The same value can be written as a minimisation over an
auxiliary non-negative weight ``w``:

    min_w  w * log(|z|/eps + 1) + (gamma / 2) * (w - lam)**2

which is the form the solvers use: the weight has a closed-form minimiser
and, with the weight held fixed, the remaining singular-value subproblem
has a closed-form shrinkage.

Unlike the l1 or nuclear norms, none of the penalties here satisfy the
triangle inequality; "norm" is used loosely throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _mirror_index, fourier_singular_values, _require_3way


def _validate_params(lam, gamma, epsilon):
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if np.any(np.asarray(lam) < 0):
        raise ValueError("lam must be non-negative")


def mlcp(z, lam, gamma, epsilon):
    """Capped log penalty, elementwise; symmetric in ``z``.

    Equals ``lam*t - t**2/(2*gamma)`` with ``t = log(|z|/eps + 1)`` while
    ``t <= gamma*lam`` and the constant ``gamma*lam**2/2`` beyond.  Accepts
    scalars or arrays; ``lam`` broadcasts against ``z``.
    """
    _validate_params(lam, gamma, epsilon)
    z = np.asarray(z, dtype=float)
    lam = np.asarray(lam, dtype=float)
    t = np.log1p(np.abs(z) / epsilon)
    value = np.where(
        t <= gamma * lam,
        lam * t - t**2 / (2.0 * gamma),
        gamma * lam**2 / 2.0,
    )
    if value.ndim == 0:
        return float(value)
    return value


def mlcp_tensor(z, lam_bar, gamma, epsilon):
    """Sum of the capped log penalty over all entries with per-entry lam."""
    z = np.asarray(z, dtype=float)
    lam_bar = np.asarray(lam_bar, dtype=float)
    if z.shape != lam_bar.shape:
        raise ValueError(
            f"value and weight-target shapes differ: {z.shape} vs {lam_bar.shape}"
        )
    return float(np.sum(mlcp(z, lam_bar, gamma, epsilon)))


def mlcp_weight_minimizer(z, lam, gamma, epsilon):
    """Minimiser of ``w*log(|z|/eps + 1) + (gamma/2)*(w - lam)**2`` over w >= 0."""
    _validate_params(lam, gamma, epsilon)
    w = np.maximum(lam - np.log1p(np.abs(np.asarray(z, dtype=float)) / epsilon) / gamma, 0.0)
    if w.ndim == 0:
        return float(w)
    return w


@dataclass
class WeightState:
    """Per-unfolding weight matrix and its quadratic target, both R x I3."""

    w: np.ndarray
    lam_bar: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.lam_bar = np.asarray(self.lam_bar, dtype=float)
        if self.w.shape != self.lam_bar.shape:
            raise ValueError(
                f"weight and target shapes differ: {self.w.shape} vs {self.lam_bar.shape}"
            )
        if np.any(self.w < 0) or np.any(self.lam_bar < 0):
            raise ValueError("weights and targets must be non-negative")

    @classmethod
    def ones(cls, r, i3):
        return cls(np.ones((r, i3)), np.ones((r, i3)))


def log_weighted_norm(z, w, epsilon):
    """Weighted log norm of Fourier-slice singular values.

    ``sum_{j,i} w[j, i] * log(sigma_j(slice i)/eps + 1)`` with the singular
    values of each Fourier-domain frontal slice sorted non-increasing.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    sigma = fourier_singular_values(z)
    w = np.asarray(w, dtype=float)
    if w.shape != sigma.shape:
        raise ValueError(f"weight shape {w.shape} does not match {sigma.shape}")
    return float(np.sum(w * np.log1p(sigma / epsilon)))


def lgamma_norm(z, lam_bar, gamma, epsilon):
    """Weighted singular-value capped-log norm.

    Evaluates ``min_W { log_weighted_norm(z, W, eps) +
    (gamma/2)*||W - lam_bar||_F^2 }`` through the closed-form minimiser,
    one decoupled weight per Fourier-slice singular value.
    """
    _validate_params(lam_bar, gamma, epsilon)
    sigma = fourier_singular_values(z)
    lam_bar = np.asarray(lam_bar, dtype=float)
    if lam_bar.shape != sigma.shape:
        raise ValueError(f"target shape {lam_bar.shape} does not match {sigma.shape}")
    t = np.log1p(sigma / epsilon)
    w = np.maximum(lam_bar - t / gamma, 0.0)
    return float(np.sum(w * t + 0.5 * gamma * (w - lam_bar) ** 2))


def shrink_singular_values(y, w, rho, epsilon, strict=False):
    """Shrink non-negative values under a fixed-weight log penalty.

    Minimises ``(rho/2)*(x - y)**2 + w*log(x/eps + 1)`` over ``x >= 0``.
    With ``alpha = w/rho`` the rule returns 0 when
    ``y <= 2*sqrt(alpha) - eps`` and otherwise the larger stationary point
    ``(y - eps + sqrt((y + eps)**2 - 4*alpha)) / 2`` clamped at zero.

    The stationary point is a local minimum but in a narrow band just
    above the threshold the objective at 0 can still be lower; pass
    ``strict=True`` to resolve that band by comparing the two candidates
    explicitly.

    Accepts scalars or arrays (``w`` broadcasts against ``y``).
    """
    scalar_in = np.ndim(y) == 0 and np.ndim(w) == 0
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.any(y < 0):
        raise ValueError("values to shrink must be non-negative")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    alpha = w / rho
    above = y > 2.0 * np.sqrt(alpha) - epsilon
    disc = np.where(above, (y + epsilon) ** 2 - 4.0 * alpha, 0.0)
    cand = np.maximum(0.5 * (y - epsilon + np.sqrt(disc)), 0.0)
    out = np.where(above, cand, 0.0)
    if strict:
        at_zero = 0.5 * rho * y**2
        at_cand = 0.5 * rho * (cand - y) ** 2 + w * np.log1p(cand / epsilon)
        out = np.where(above & (at_cand <= at_zero), cand, 0.0)
    if scalar_in:
        return float(out)
    return out


def weighted_log_prox(y, w, rho, epsilon, strict=False):
    """Singular-value shrinkage of a 3-way array under fixed weights.

    Solves ``argmin_L (rho/2)*||L - Y||_F^2 + sum_{j,i} w[j,i] *
    log(sigma_j(L_bar_i)/eps + 1)`` exactly: the spatial Frobenius
    quadratic is ``1/I3`` times the Fourier-domain one, so each Fourier
    singular value is shrunk with quadratic scale ``rho/I3``.
    Conjugate-mirror slices share their singular values, so a real result
    only depends on ``w`` through the mean of each mirror pair of
    columns; the pair means are what the shrinkage uses.

    Only the ``I3 // 2 + 1`` half-spectrum slices of the real FFT are
    factored.  Each is rebuilt from its singular triplets up to the last
    index kept in any slice, and ``irfft`` returns the result to real
    space, which fills in the mirror slices.

    Returns
    -------
    (l, sigma_new, sigma_old)
        The shrunk array and the R x I3 matrices of shrunk and original
        Fourier-slice singular values.
    """
    y = np.asarray(y, dtype=float)
    y = _require_3way(y)
    if not np.all(np.isfinite(y)):
        raise ValueError("prox input must be finite")
    i1, i2, i3 = y.shape
    r = min(i1, i2)
    w = np.asarray(w, dtype=float)
    if w.shape != (r, i3):
        raise ValueError(f"weight shape {w.shape} does not match ({r}, {i3})")
    w_sym = 0.5 * (w + w[:, (-np.arange(i3)) % i3])

    ybar = np.fft.rfft(y, axis=2)
    half = ybar.shape[2]
    u, s, vh = np.linalg.svd(np.moveaxis(ybar, 2, 0), full_matrices=False)
    s_new = shrink_singular_values(s, w_sym[:, :half].T, rho / i3, epsilon, strict=strict)
    # The weights vary per index, so the kept set need not be a prefix:
    # rebuild through the last index kept in any slice.
    kept = np.flatnonzero(s_new.any(axis=0))
    k = kept[-1] + 1 if kept.size else 0
    lbar = (u[:, :, :k] * s_new[:, None, :k]) @ vh[:, :k, :]
    l = np.fft.irfft(np.moveaxis(lbar, 0, 2), n=i3, axis=2)

    mirror = _mirror_index(i3)
    return l, s_new.T[:, mirror], s.T[:, mirror]


def prox_lgamma_norm(y, lam_bar, gamma, rho, epsilon, strict=False):
    """Proximal map of :func:`lgamma_norm` scaled by ``rho``.

    Solves ``argmin_L (rho/2)*||L - Y||_F^2 + lgamma_norm(L, lam_bar)`` by
    shrinking the Fourier-slice singular values of ``Y`` with weights
    ``lam_bar``, then re-evaluating the closed-form weights at the shrunk
    values.

    Returns
    -------
    (l, w)
        The shrunk tensor and the R x I3 weight matrix.
    """
    _validate_params(lam_bar, gamma, epsilon)
    l, sigma_new, _ = weighted_log_prox(y, lam_bar, rho, epsilon, strict=strict)
    w = np.maximum(np.asarray(lam_bar, dtype=float) - np.log1p(sigma_new / epsilon) / gamma, 0.0)
    return l, w


def update_weights(sigma, state, gamma, rho, epsilon):
    """One proximal step on the weight block.

    Minimises ``sum w*t + (gamma/2)*||w - lam_bar||^2 + (rho/2)*||w - w_old||^2``
    over ``w >= 0`` with ``t = log(sigma/eps + 1)``; the solution is the
    clamped weighted average ``max((gamma*lam_bar + rho*w_old - t) / (gamma + rho), 0)``.
    """
    _validate_params(state.lam_bar, gamma, epsilon)
    if rho < 0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    sigma = np.asarray(sigma, dtype=float)
    t = np.log1p(sigma / epsilon)
    return np.maximum((gamma * state.lam_bar + rho * state.w - t) / (gamma + rho), 0.0)


def update_lambda_bar(w_new, lam_bar, gamma, rho):
    """Proximal step on the weight target: ``(gamma*w + rho*lam_bar)/(gamma + rho)``."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if rho < 0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    return (gamma * np.asarray(w_new, dtype=float) + rho * np.asarray(lam_bar, dtype=float)) / (
        gamma + rho
    )
