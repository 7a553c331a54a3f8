"""Recovery quality metrics: relative error, PSNR, single-scale SSIM, ERGAS.

N-way inputs are scored per frontal slice of the first two modes and the
per-slice values are averaged, so a hyperspectral cube is treated as a
stack of bands.  Every public score raises ``FloatingPointError`` where a
step overflows (a recovery far larger than its reference, say), rather
than returning an infinite or NaN score.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


def _as_bands(x, ref, for_ergas=False):
    """Both arrays as ``(I1, I2, B)`` band stacks, divided by the reference's
    peak: its largest magnitude, 1 for an all-zero reference.

    This is the one place that reads the reference's scale.  Every score
    runs on these unit-peak bands, so PSNR and SSIM are taken at that peak,
    and a pair of normal floats of like magnitude (1e-200 or 1e300) scores
    as it does at unit peak.  ``for_ergas`` also refuses a reference band
    whose mean is exactly zero, where ERGAS is undefined.  That is decided
    before the division, whose rounding can leave a residue in place of the
    zero; a band sum beyond the float range is no zero.
    """
    x, ref = np.asarray(x, dtype=float), np.asarray(ref, dtype=float)
    if x.shape != ref.shape:
        raise ValueError(f"shapes differ: {x.shape} vs {ref.shape}")
    if x.ndim < 2:
        raise ValueError("metrics need at least a 2-way array")
    if not (np.isfinite(x).all() and np.isfinite(ref).all()):
        raise ValueError("cannot score an array or a reference that holds NaN or inf")
    x, ref = x.reshape(*x.shape[:2], -1), ref.reshape(*x.shape[:2], -1)
    if for_ergas:
        with np.errstate(over="ignore", invalid="ignore"):
            zero = np.mean(ref, axis=(0, 1)) == 0.0
        if np.any(zero):
            raise ValueError(f"reference band {np.argmax(zero)} has zero mean; ERGAS undefined")
    peak = np.max(np.abs(ref)) or 1.0
    return x / peak, ref / peak


def _band_sq(d):
    """Each band's sum of squares of an ``(I1, I2, B)`` stack, by an einsum: it calls
    no BLAS, whose threaded dot of a large array stalls while its threads wake.

    The einsum sets no floating-point flag, so ``np.errstate`` cannot see it
    overflow; of a finite stack, an infinite sum is one that did.
    """
    sq = np.einsum("ijb,ijb->b", d, d)
    if not np.isfinite(sq).all():
        raise FloatingPointError("overflow encountered in a band's sum of squares")
    return sq


def _rel_error(xb, rb):
    ref_norm = float(np.sqrt(np.sum(_band_sq(rb))))
    return float(np.sqrt(np.sum(_band_sq(xb - rb)))) / max(ref_norm, 1e-300)


@np.errstate(over="raise")
def rel_error(x, ref):
    """``||x - ref|| / ||ref||`` in the Frobenius norm, ``||ref||`` floored at 1e-300."""
    return _rel_error(*_as_bands(x, ref))


def _psnr(xb, rb):
    mse = _band_sq(xb - rb) / (xb.shape[0] * xb.shape[1])
    if np.any(mse == 0.0):
        return float("inf")
    return float(np.mean(-10.0 * np.log10(mse)))


@np.errstate(over="raise")
def psnr(x, ref):
    """Mean over bands of -10*log10(MSE) of the unit-peak bands, i.e. of
    10*log10(peak^2 / MSE) at the reference's peak; +inf when any band is exact."""
    return _psnr(*_as_bands(x, ref))


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


def _ssim(xb, rb):
    size = min(SSIM_WINDOW, xb.shape[0], xb.shape[1])
    if size % 2 == 0:
        size -= 1
    g = _gaussian_window(size, SSIM_SIGMA)
    c1, c2 = 0.01**2, 0.03**2

    mu1 = _filter(xb, g)
    mu2 = _filter(rb, g)
    s11 = _filter(xb * xb, g) - mu1**2
    s22 = _filter(rb * rb, g) - mu2**2
    s12 = _filter(xb * rb, g) - mu1 * mu2
    num = (2 * mu1 * mu2 + c1) * (2 * s12 + c2)
    den = (mu1**2 + mu2**2 + c1) * (s11 + s22 + c2)
    return float(np.mean(num / den))


@np.errstate(over="raise")
def ssim(x, ref):
    """Mean over bands of the single-scale structural similarity index of the
    unit-peak bands, with the constants ``0.01**2`` and ``0.03**2``."""
    return _ssim(*_as_bands(x, ref))


def _ergas(xb, rb):
    # The ratio before its square: a band mean far below the peak makes the
    # square overflow, which raises, where the mean's square would underflow
    # to a zero divisor.  A mean that underflows itself, at unit peak, raises
    # at the division.
    rmse = np.sqrt(_band_sq(xb - rb) / (xb.shape[0] * xb.shape[1]))
    with np.errstate(divide="raise", invalid="raise"):
        ratio = rmse / np.mean(rb, axis=(0, 1))
    return float(100.0 * np.sqrt(np.mean(ratio**2)))


@np.errstate(over="raise")
def ergas(x, ref):
    """Band-relative global RMSE error; zero only for a perfect match.

    ``100 * sqrt(mean_b((RMSE_b / mean_b)^2))`` where ``mean_b`` is the
    reference band mean: the resolution ratio of the pan-sharpening form
    is 1.  Not symmetric in its arguments.  A reference band whose mean is
    exactly zero leaves it undefined and raises ``ValueError``; one whose
    mean is too far below the peak for the band's squared ratio to be a
    float raises ``FloatingPointError``.
    """
    return _ergas(*_as_bands(x, ref, for_ergas=True))


@np.errstate(over="raise")
def evaluate_all(x, ref):
    """rel_error/psnr/ssim/ergas of ``x`` against a reference of its shape, as a dict.

    This is the metric set of every score the CLI reports, in its order.
    Both arrays are checked and divided by the reference's peak once (see
    ``_as_bands``), and the four scores run on those bands, so the values
    do not depend on the data's scale.
    """
    xb, rb = _as_bands(x, ref, for_ergas=True)
    return {"rel_error": _rel_error(xb, rb), "psnr": _psnr(xb, rb), "ssim": _ssim(xb, rb),
            "ergas": _ergas(xb, rb)}
