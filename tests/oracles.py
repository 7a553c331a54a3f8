"""Reference implementations that the tests compare the package against.

The solvers only evaluate the weight form of the penalty
(``penalty.update_weights``, ``penalty.weighted_log_prox``,
``penalty.update_lambda_bar``); the equivalence results of the model are
what make that enough.  The direct forms of the penalty and the t-SVD
toolkit below state those results in code: the tests check the weight
form and the prox against them.  The band-loop forms of the error
scores are the references of ``tenrec.metrics``' one-reduction scores.
None of it is part of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tenrec.algebra import (
    _require_3way,
    fourier_singular_values,
    mode_pairs,
    t_product,
    unfold_mode_pair,
)
from tenrec.metrics import _as_bands
from tenrec.penalty import _validate_params, mlcp, weighted_log_prox
from tenrec.simulate import gen_mask, make_rng

# A singular tube/value counts as nonzero when it exceeds this fraction of
# the largest singular value of the whole tensor.
RANK_RTOL = 1e-8


# -- Instances ---------------------------------------------------------------


def cp_tensor(shape, rank, seed):
    """A 3-way tensor of CP rank at most ``rank``, low rank in every
    mode-pair unfolding.

    The sum of ``rank`` outer products of standard normal factor
    columns, the factors drawn mode by mode from ``make_rng(seed)``.
    """
    rng = make_rng(seed)
    factors = [rng.standard_normal((n, rank)) for n in shape]
    return np.einsum("ir,jr,kr->ijk", *factors)


def cp_completion_instance(seed):
    """A9's completion instance: a 30 x 30 x 20 CP-rank-3 tensor at unit
    peak, low rank in every mode-pair unfolding, 30 % observed.

    Returns (ground truth, mask, observed with zeros off the mask).
    """
    gt = cp_tensor((30, 30, 20), 3, seed)
    gt = gt / np.max(np.abs(gt))
    mask = gen_mask(gt.shape, 0.3, seed).mask
    return gt, mask, np.where(mask, gt, 0.0)


# -- t-SVD toolkit -----------------------------------------------------------


def dft_mode3(z):
    """Unnormalised DFT along the third mode (tube direction)."""
    return np.fft.fft(_require_3way(z), axis=2)


def idft_mode3(zbar):
    """Inverse of :func:`dft_mode3` (scaled by 1/I3); output is complex."""
    return np.fft.ifft(_require_3way(zbar), axis=2)


def conj_transpose(a):
    """Transpose each frontal slice and reverse the order of slices 2..I3."""
    a = _require_3way(a)
    out = np.empty((a.shape[1], a.shape[0], a.shape[2]), dtype=a.dtype)
    out[:, :, 0] = a[:, :, 0].conj().T
    if a.shape[2] > 1:
        out[:, :, 1:] = a[:, :, :0:-1].conj().transpose(1, 0, 2)
    return out


def identity_tensor(n, tubes):
    """Identity for the tube-wise product: eye in slice 0, zeros elsewhere."""
    out = np.zeros((n, n, tubes))
    out[:, :, 0] = np.eye(n)
    return out


@dataclass
class TubalFactorization:
    """Orthogonal-diagonal-orthogonal factorization under the tube product.

    ``u`` is I1 x I1 x I3, ``s`` is I1 x I2 x I3 with diagonal frontal
    slices in both domains, ``v`` is I2 x I2 x I3, and the original array
    is ``u * s * conj_transpose(v)``.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def compose(self):
        """Multiply the factors back together."""
        return t_product(t_product(self.u, self.s), conj_transpose(self.v))


def t_svd(z):
    """Factor a real 3-way array as ``u * s * v^H``.

    Each half-spectrum slice of the real FFT along the third mode is
    factored by a complex SVD with singular values sorted non-increasing;
    ``irfft`` returns the factors to real space, which fills in the
    conjugate-mirror slices without factoring them again.

    Raises
    ------
    ValueError
        If the input is not 3-way or contains non-finite entries.
    """
    z = np.asarray(z, dtype=float)
    z = _require_3way(z)
    if not np.all(np.isfinite(z)):
        raise ValueError("t_svd input must be finite")
    i1, i2, i3 = z.shape
    ubar, s, vhbar = np.linalg.svd(np.moveaxis(np.fft.rfft(z, axis=2), 2, 0))
    sbar = np.zeros((s.shape[0], i1, i2))
    diag = np.arange(s.shape[1])
    sbar[:, diag, diag] = s
    vbar = vhbar.conj().transpose(0, 2, 1)
    return TubalFactorization(
        *(np.moveaxis(np.fft.irfft(f, n=i3, axis=0), 0, 2) for f in (ubar, sbar, vbar))
    )


def tubal_rank(z, rtol=None):
    """Number of nonzero singular tubes of a 3-way array."""
    sigma = fourier_singular_values(z)
    thresh = (rtol if rtol is not None else RANK_RTOL) * sigma.max(initial=0.0)
    return int(np.count_nonzero(sigma.max(axis=1) > thresh))


def multi_rank(z, rtol=None):
    """Vector of Fourier-slice matrix ranks, one entry per tube index."""
    sigma = fourier_singular_values(z)
    thresh = (rtol if rtol is not None else RANK_RTOL) * sigma.max(initial=0.0)
    return (sigma > thresh).sum(axis=0).astype(int)


def tnn(z):
    """Sum of singular values over all Fourier-domain frontal slices."""
    return float(fourier_singular_values(z).sum())


def n_tubal_rank(t, rtol=None):
    """Tubal rank of every mode-pair unfolding, in lexicographic pair order."""
    t = np.asarray(t)
    if t.ndim < 2:
        raise ValueError("n_tubal_rank needs at least a 2-way array")
    return [
        tubal_rank(unfold_mode_pair(t, m1, m2), rtol=rtol)
        for m1, m2 in mode_pairs(t.ndim)
    ]


# -- Direct forms of the penalty ---------------------------------------------


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


def prox_lgamma_norm(y, lam_bar, gamma, rho, epsilon, strict=False):
    """One alternating step on ``(rho/2)*||L - Y||_F^2 + lgamma_norm(L, lam_bar)``.

    Shrinks the Fourier-slice singular values of ``Y`` with weights
    ``lam_bar`` (the global minimiser in ``L`` only with ``strict=True``,
    see :func:`weighted_log_prox`), then re-evaluates the closed-form
    weights at the shrunk values.

    Returns
    -------
    (l, w)
        The shrunk tensor and the R x I3 weight matrix.
    """
    _validate_params(lam_bar, gamma, epsilon)
    l, sigma_new, _, _ = weighted_log_prox(y, lam_bar, rho, epsilon, strict=strict)
    w = np.maximum(np.asarray(lam_bar, dtype=float) - np.log1p(sigma_new / epsilon) / gamma, 0.0)
    return l, w


# -- Error scores, one band at a time ------------------------------------------


def loop_rel_error(x, ref):
    """``||x - ref|| / max(||ref||, 1e-300)`` by NumPy's Frobenius norm."""
    xb, rb = _as_bands(x, ref)
    return float(np.linalg.norm(xb - rb)) / max(float(np.linalg.norm(rb)), 1e-300)


def loop_psnr(x, ref, peak=1.0):
    """Mean over bands of 10*log10(peak^2 / MSE), one band at a time; +inf
    as soon as a band has zero error."""
    xb, rb = _as_bands(x, ref)
    values = []
    for b in range(xb.shape[2]):
        mse = float(np.mean((xb[:, :, b] - rb[:, :, b]) ** 2))
        if mse == 0.0:
            return float("inf")
        values.append(10.0 * np.log10(peak**2 / mse))
    return float(np.mean(values))


def loop_ergas(x, ref):
    """``100 * sqrt(mean_b((RMSE_b / mean_b)^2))``, one band at a time."""
    xb, rb = _as_bands(x, ref)
    terms = []
    for b in range(xb.shape[2]):
        band_mean = float(np.mean(rb[:, :, b]))
        if band_mean == 0.0:
            raise ValueError(f"reference band {b} has zero mean; ERGAS undefined")
        rmse = float(np.sqrt(np.mean((xb[:, :, b] - rb[:, :, b]) ** 2)))
        terms.append((rmse / band_mean) ** 2)
    return float(100.0 * np.sqrt(np.mean(terms)))
