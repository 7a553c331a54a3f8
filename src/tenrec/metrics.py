"""Recovery quality metrics: relative error, PSNR, single-scale SSIM, ERGAS.

N-way inputs are scored per frontal slice of the first two modes and the
per-slice values are averaged, so a hyperspectral cube is treated as a
stack of bands.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


def _as_bands(x, ref):
    x, ref = np.asarray(x, dtype=float), np.asarray(ref, dtype=float)
    if x.shape != ref.shape:
        raise ValueError(f"shapes differ: {x.shape} vs {ref.shape}")
    if x.ndim < 2:
        raise ValueError("metrics need at least a 2-way array")
    if not (np.isfinite(x).all() and np.isfinite(ref).all()):
        raise ValueError("cannot score an array or a reference that holds NaN or inf")
    return x.reshape(x.shape[0], x.shape[1], -1), ref.reshape(x.shape[0], x.shape[1], -1)


def _band_sq(d):
    """Each band's sum of squares of an ``(I1, I2, B)`` stack, by an einsum: it calls
    no BLAS, whose threaded dot of a large array stalls while its threads wake."""
    return np.einsum("ijb,ijb->b", d, d)


def rel_error(x, ref):
    """``||x - ref|| / ||ref||`` in the Frobenius norm, ``||ref||`` floored at 1e-300."""
    xb, rb = _as_bands(x, ref)
    ref_norm = float(np.sqrt(np.sum(_band_sq(rb))))
    return float(np.sqrt(np.sum(_band_sq(xb - rb)))) / max(ref_norm, 1e-300)


def psnr(x, ref, peak=1.0):
    """Mean over bands of 10*log10(peak^2 / MSE); +inf when any band is exact."""
    xb, rb = _as_bands(x, ref)
    mse = _band_sq(xb - rb) / (xb.shape[0] * xb.shape[1])
    if np.any(mse == 0.0):
        return float("inf")
    return float(np.mean(10.0 * np.log10(peak**2 / mse)))


def _gaussian_window(size, sigma):
    x = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(x**2) / (2.0 * sigma**2))
    return g / g.sum()


def _filter(x, g):
    """Valid-mode filtering of each band of an ``(I1, I2, B)`` stack by ``outer(g, g)``.

    One pass of ``g`` per axis gives the separable window's sum; ``g`` is
    symmetric, so this correlation equals the convolution.
    """
    x = sliding_window_view(x, g.size, axis=0) @ g
    return sliding_window_view(x, g.size, axis=1) @ g


def ssim(x, ref, peak=1.0):
    """Mean over bands of the single-scale structural similarity index."""
    xb, rb = _as_bands(x, ref)
    size = min(SSIM_WINDOW, xb.shape[0], xb.shape[1])
    if size % 2 == 0:
        size -= 1
    g = _gaussian_window(size, SSIM_SIGMA)
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2

    mu1 = _filter(xb, g)
    mu2 = _filter(rb, g)
    s11 = _filter(xb * xb, g) - mu1**2
    s22 = _filter(rb * rb, g) - mu2**2
    s12 = _filter(xb * rb, g) - mu1 * mu2
    num = (2 * mu1 * mu2 + c1) * (2 * s12 + c2)
    den = (mu1**2 + mu2**2 + c1) * (s11 + s22 + c2)
    return float(np.mean(num / den))


def ergas(x, ref):
    """Band-relative global RMSE error; zero only for a perfect match.

    ``100 * sqrt(mean_b((RMSE_b / mean_b)^2))`` where ``mean_b`` is the
    reference band mean: the resolution ratio of the pan-sharpening form
    is 1.  Not symmetric in its arguments.
    """
    xb, rb = _as_bands(x, ref)
    means = np.mean(rb, axis=(0, 1))
    if not np.all(means):
        raise ValueError(f"reference band {np.argmax(means == 0.0)} has zero mean; ERGAS undefined")
    mse = _band_sq(xb - rb) / (xb.shape[0] * xb.shape[1])
    return float(100.0 * np.sqrt(np.mean(mse / means**2)))


def evaluate_all(x, ref):
    """rel_error/psnr/ssim/ergas of ``x`` against a reference of its shape, as a dict.

    This is the metric set of every score the CLI reports, in its order.
    PSNR and SSIM take the reference's largest magnitude as the peak, 1
    for an all-zero reference.
    """
    rel = rel_error(x, ref)  # refuses a reference of another shape first
    peak = float(np.max(np.abs(ref))) or 1.0
    return {"rel_error": rel, "psnr": psnr(x, ref, peak), "ssim": ssim(x, ref, peak),
            "ergas": ergas(x, ref)}
