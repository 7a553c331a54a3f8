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

The singular-value proximal step, :func:`weighted_log_prox`, factors the
half-spectrum Fourier slices of its argument.  A solver calls it once per
mode pair and sweep, and the shrinkage usually keeps only a few values per
slice.  Given the previous call's leading left singular vectors, the prox
computes only the leading triplets, by warm-started block power steps
and then one Rayleigh-Ritz step.  It takes that result only when a
certificate proves it exact to rounding: the Ritz triplets up to the last
kept one have converged, and a bound on the part of each slice outside
the basis shows that every value left out would have been shrunk to
zero.  Otherwise it falls back to the full SVD of every slice.  Each call
returns, with its result, the vectors that seed the next call.

Unlike the l1 or nuclear norms, none of the penalties here satisfy the
triangle inequality; "norm" is used loosely throughout.
"""

from __future__ import annotations

import numpy as np

from .algebra import _mirror_index, _require_3way


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
    above = y > _shrink_threshold(w, rho, epsilon)
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


def weighted_log_prox(y, w, rho, epsilon, strict=False, basis=None):
    """Singular-value shrinkage of a 3-way array under fixed weights.

    Targets ``argmin_L (rho/2)*||L - Y||_F^2 + sum_{j,i} w[j,i] *
    log(sigma_j(L_bar_i)/eps + 1)``: the spatial Frobenius quadratic is
    ``1/I3`` times the Fourier-domain one, so each Fourier singular value
    is shrunk with quadratic scale ``rho/I3`` by
    :func:`shrink_singular_values`.  Only ``strict=True`` takes each
    value's global minimiser, i.e. the proximal map that PALM's
    convergence result under the KL property assumes.  The default rule
    keeps the larger stationary point for every value above its
    threshold, although zero is lower in a narrow band just above it.
    Conjugate-mirror slices share their singular values, so a real result
    only depends on ``w`` through the mean of each mirror pair of
    columns; the pair means are what the shrinkage uses.

    Only the ``I3 // 2 + 1`` half-spectrum slices of the real FFT are
    factored.  Each is rebuilt from its singular triplets up to the last
    index kept in any slice, and ``irfft`` returns the result to real
    space, which fills in the mirror slices.

    A call on the full-SVD path holds at its peak three stacks of
    ``I3 // 2 + 1`` complex ``I1 x I2`` slices while the SVD runs: the
    slices and the full factors ``u`` and ``vh``.  Then it frees the
    slices and keeps only the factor columns that the rebuild and the next
    basis read.  The rebuild holds one stack plus the ``k`` kept columns
    of ``u``, ``vh`` and their product, which stays below three stacks
    while ``k`` is at most about two thirds of ``R``.

    ``basis`` is ``None`` or the ``next_basis`` of the previous call on
    this sequence: a ``(I3 // 2 + 1, I1, p)`` array of leading left
    singular vectors of the half-spectrum slices.  With one, only the
    leading ``p`` triplets are computed: block power steps from it, as
    many as the first step predicts, and then one Rayleigh-Ritz step.
    Every Ritz triplet up to the last kept one must have a residual
    ``||A v - s u|| <= RITZ_RTOL * sigma_max``, and a certificate then
    proves that those Ritz values are the leading singular values to
    rounding and that every value the shrinkage zeroes, including the
    uncomputed ones past ``p``, lies at or below its threshold (see
    :func:`_certified`).  If the residual test or the certificate fails,
    every slice is factored in full instead.  The truncated result agrees
    with the full factorization to rounding, not bit for bit.  Without a
    basis, or with one of another shape, every slice is factored in full.

    Returns
    -------
    (l, sigma_new, sigma_old, next_basis)
        The shrunk array and the R x I3 matrices of shrunk and original
        Fourier-slice singular values.  After a truncated factorization,
        ``sigma_old`` holds the ``p`` Ritz values of each slice and NaN
        past them, where no value was computed; ``sigma_new`` is zero
        there, as the certificate proves.  ``next_basis`` holds the
        leading vectors to pass as ``basis`` to the next call, or is
        ``None`` where truncation would not pay or could not be certified
        (see :func:`_next_basis`).
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

    half = i3 // 2 + 1
    # One C-contiguous stack of slices; the FFT output is freed here.
    a = np.ascontiguousarray(np.moveaxis(np.fft.rfft(y, axis=2), 2, 0))
    w_half = w_sym[:, :half].T
    thr = _shrink_threshold(w_half, rho / i3, epsilon)
    factors = None
    if basis is not None and basis.shape[:2] == (half, i1) and basis.shape[2] < r:
        factors = _ritz_triplets(a, basis, thr)
    truncated = factors is not None
    if not truncated:
        factors = np.linalg.svd(a, full_matrices=False)
    u, s, vh = factors
    # Free the slices and the factor tuple: only u, s and vh are read on.
    del a, factors
    p = s.shape[1]
    s_new = shrink_singular_values(s, w_half[:, :p], rho / i3, epsilon, strict=strict)
    # The weights vary per index, so the kept set need not be a prefix:
    # rebuild through the last index kept in any slice.
    kept = np.flatnonzero(s_new.any(axis=0))
    k = kept[-1] + 1 if kept.size else 0
    # Keep only the columns that the rebuild and _next_basis read, so the
    # full factors are freed before the rebuild.
    u = u[:, :, :k + OVERSAMPLE].copy()
    vh = vh[:, :k, :].copy()
    lbar = (u[:, :, :k] * s_new[:, None, :k]) @ vh
    del vh
    # Transform along the slice axis, then transpose once, so that the
    # solver's elementwise passes and pair-(0, 1) fold run on C-contiguous
    # memory.
    l = np.fft.irfft(lbar, n=i3, axis=0)
    del lbar
    l = np.ascontiguousarray(l.transpose(1, 2, 0))

    sigma_new = np.zeros((half, r))
    sigma_new[:, :p] = s_new
    sigma_old = np.full((half, r), np.nan)
    sigma_old[:, :p] = s
    mirror = _mirror_index(i3)
    next_basis = _next_basis(u, s, k, thr, truncated)
    return l, sigma_new.T[:, mirror], sigma_old.T[:, mirror], next_basis


# Columns kept past the last kept index: the subspace iteration converges
# at the rate sigma_{p+1}/sigma_k and the certificate needs the gap.
OVERSAMPLE = 5
# The most block power steps one truncated factorization takes from its
# warm start.
POWER_STEPS = 5
# Truncation is tried only while the basis spans at most this fraction of
# the slice rank.  Measured per call with a warm basis on 2 cores, the
# truncated prox beats the full one up to about p/R = 0.3 on slices from
# 30 x 30 to 200 x 200 and loses beyond it (at p/R >= 0.5 it takes 1.3-3.7x
# as long on the slices of a 16 x 16 x 12 x 8 tensor).
MAX_WIDTH_FRACTION = 0.3
# Ritz triplets count as converged at this residual, relative to the
# largest singular value of any slice.
RITZ_RTOL = 1e-13


def _shrink_threshold(w, rho, epsilon):
    """Values at or below ``2*sqrt(w/rho) - eps`` shrink to zero."""
    return 2.0 * np.sqrt(w / rho) - epsilon


def _kept_end(s, thr):
    """Per slice, one past the last index whose value exceeds its threshold."""
    above = s > thr[:, :s.shape[1]]
    return np.where(above.any(axis=1), s.shape[1] - np.argmax(above[:, ::-1], axis=1), 0)


def _ritz_triplets(a, q, thr):
    """Leading ``p`` singular triplets of each slice of ``a``, or ``None``.

    ``a`` is the C-contiguous ``half x I1 x I2`` stack of slices.  Starts
    from the orthonormal columns ``q`` (``half x I1 x p``) and
    takes bare block power steps ``q <- qr(A A^H q)``, as many as
    :func:`_power_steps` predicts from the first one, without rotating
    the basis in between (randomized subspace iteration, Halko, Martinsson
    & Tropp 2011, Alg. 4.4).  Then it takes one Rayleigh-Ritz step, the
    SVD of ``B = Q^H A``, and checks the residuals ``A v_j - s_j u_j`` of
    the triplets up to the last kept one against ``RITZ_RTOL`` times the
    largest value of any slice.  Returns ``(u, s, vh)`` when those
    triplets have converged and :func:`_certified` holds for every slice,
    with the Schatten-4 or -8 bound where the Frobenius one fails;
    ``None`` when the residual test or the certificate fails.
    """
    half, i1, i2 = a.shape
    p = q.shape[2]
    # Squared Frobenius norm per slice, over the interleaved real and
    # imaginary parts.
    parts = a.reshape(half, -1).view(float)
    a_sq = np.einsum("ij,ij->i", parts, parts)
    # Rounding in ||A||^2 - ||B||^2, in R and in the orthonormality of Q.
    margin = 16 * (i1 + i2) * np.finfo(float).eps * a_sq
    ah = a.conj().transpose(0, 2, 1)
    y = a @ (ah @ q)
    for _ in range(_power_steps(q, y, thr) - 1):
        y = a @ (ah @ np.linalg.qr(y)[0])
    q = np.linalg.qr(y)[0]
    ub, s, vh = np.linalg.svd(q.conj().transpose(0, 2, 1) @ a, full_matrices=False)
    u = q @ ub
    res = np.linalg.norm(a @ vh.conj().transpose(0, 2, 1) - u * s[:, None, :], axis=1)
    res[np.arange(p) >= _kept_end(s, thr)[:, None]] = 0.0
    if res.max() > RITZ_RTOL * s[:, 0].max():
        return None
    # ||R||_F^2 = ||A||_F^2 - ||B||_F^2 for R = (I - QQ^H) A.
    tail_sq = np.maximum(a_sq - np.sum(s**2, axis=1), 0.0) + margin
    for i in np.flatnonzero(~_certified(s, res, tail_sq, thr)):
        # Tighter bounds from the Schatten-4 and -8 norms of R:
        # ||R||_2^2 <= ||(R R^H)^m||_F^(1/m) for m = 1, 2.
        resid = a[i] - (u[i] * s[i]) @ vh[i]
        gram = resid @ resid.conj().T if i1 <= i2 else resid.conj().T @ resid
        for m in (1, 2):
            tail_sq[i] = np.linalg.norm(gram) ** (1 / m) * (1 + 1e-10) + margin[i]
            if _certified(s[i:i + 1], res[i:i + 1], tail_sq[i:i + 1], thr[i:i + 1])[0]:
                break
            gram = gram @ gram
        else:  # neither bound certifies slice i
            return None
    return u, s, vh


def _power_steps(q, y, thr):
    """Block power steps, from 1 to ``POWER_STEPS``, that the Ritz
    triplets up to the last kept one need to meet ``RITZ_RTOL``.

    ``y = A A^H q`` is the first step's product.  Column ``j`` has
    ``||y_j|| ~ s_j^2`` and deviates from ``q_j`` by ``d_j = ||y_j - q_j
    q_j^H y_j||``; each step contracts that deviation by about
    ``||y_last|| / ||y_j||``, and it must fall to ``RITZ_RTOL * s_max * s_j``,
    which is the residual test's bound relative to ``s_j`` times
    ``||y_j||``.  ``y_last`` is the slice's last column with ``||y_last||
    > eps * ||y_0||``: a basis column in the slice's null space contracts
    nothing.  A column that does not contract asks for every step.
    """
    norm = np.linalg.norm(y, axis=1)
    dev = np.linalg.norm(y - q * np.sum(q.conj() * y, axis=1)[:, None, :], axis=1)
    s = np.sqrt(norm)
    goal = RITZ_RTOL * s.max() * s
    lagging = (np.arange(s.shape[1]) < _kept_end(s, thr)[:, None]) & (dev > goal)
    if not lagging.any():
        return 1
    last = _kept_end(norm, np.finfo(float).eps * norm[:, :1]) - 1
    rate = norm[np.arange(len(norm)), last][np.nonzero(lagging)[0]] / norm[lagging]
    if rate.max() >= 1.0:
        return POWER_STEPS
    rate = np.maximum(rate, np.finfo(float).tiny)
    need = np.log(goal[lagging] / dev[lagging]) / np.log(rate)
    return int(np.clip(np.ceil(need.max()), 1, POWER_STEPS))


def _certified(s, res, tail_sq, thr):
    """Per slice: do the Ritz values decide the shrinkage exactly?

    ``s`` holds the ``p < R`` Ritz values of each slice and ``tail_sq`` an
    upper bound ``b^2`` on ``||R||_2^2``, ``R = (I - QQ^H) A``.  ``res``
    holds the residual norms of the triplets below ``k``, one past the
    last kept index, and zero from ``k`` on; ``e`` is their Frobenius
    norm.  In the basis of the first ``k`` right Ritz vectors and their
    complement, ``A^H A`` has diagonal blocks with eigenvalues in
    ``[s_j^2, s_j^2 + e^2]`` and at most ``h = s_k^2 + b^2``, and an
    off-diagonal block of norm at most ``e*b``.  So:

    - every singular value outside the first ``k`` has
      ``sigma^2 <= h + e*b``, which must not exceed any threshold from
      ``k`` on;
    - when ``s_{k-1}^2`` clears ``h`` by ``2*e*b``, the first ``k``
      singular values are the Ritz values to within ``e^2 + e*b``, and
      each one not kept must stay at or below its threshold.

    Ritz values never exceed the singular values, so a kept Ritz value is
    kept by the full factorization too.  Strict mode only zeroes more
    values.
    """
    half, p = s.shape
    k = _kept_end(s, thr)
    s_full = np.zeros(thr.shape)
    s_full[:, :p] = s
    rows = np.arange(half)
    below = np.arange(thr.shape[1]) < k[:, None]
    e_sq = np.sum(res**2, axis=1)
    cross = np.sqrt(e_sq * tail_sq)
    hidden = s_full[rows, k] ** 2 + tail_sq
    separated = (k == 0) | (s_full[rows, k - 1] ** 2 >= hidden + 2 * cross)
    bound_sq = np.where(below, s_full**2 + (e_sq + cross)[:, None], (hidden + cross)[:, None])
    proven = (thr >= 0) & (bound_sq <= thr**2)
    return separated & np.all((below & (s_full > thr)) | proven, axis=1)


def _next_basis(u, s, k, thr, truncated):
    """``u``, the leading left vectors for the next call, or ``None`` for
    a full SVD.

    ``u`` holds the first ``k + OVERSAMPLE`` left vectors, or all ``p``
    of a truncated factorization if fewer.  Truncation is tried only
    while ``k + OVERSAMPLE`` is at most ``MAX_WIDTH_FRACTION`` of the
    slice rank.  After a full SVD the exact spectrum must also pass the
    certificate with the Schatten-8 norm of its tail, the best bound a
    perfect subspace would give: a slice whose values past the basis sit
    too close to their thresholds would fail the certificate again and
    pay for both paths.
    """
    width = k + OVERSAMPLE
    if width > MAX_WIDTH_FRACTION * thr.shape[1]:
        return None
    if not truncated:
        tail_sq = np.sum(s[:, width:] ** 8, axis=1) ** 0.25
        head = s[:, :width]
        if not _certified(head, np.zeros(head.shape), tail_sq, thr).all():
            return None
    return u


def update_weights(sigma, w, lam_bar, gamma, rho, epsilon):
    """One proximal step on the weight block.

    Minimises ``sum w*t + (gamma/2)*||w - lam_bar||^2 + (rho/2)*||w - w_old||^2``
    over ``w >= 0`` with ``t = log(sigma/eps + 1)``; the solution is the
    clamped weighted average ``max((gamma*lam_bar + rho*w_old - t) / (gamma + rho), 0)``.
    ``w`` (the old weights) and ``lam_bar`` must be non-negative and of one shape.
    """
    w = np.asarray(w, dtype=float)
    lam_bar = np.asarray(lam_bar, dtype=float)
    if w.shape != lam_bar.shape:
        raise ValueError(f"weight and target shapes differ: {w.shape} vs {lam_bar.shape}")
    if np.any(w < 0) or np.any(lam_bar < 0):
        raise ValueError("weights and targets must be non-negative")
    _validate_params(lam_bar, gamma, epsilon)
    if rho < 0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    sigma = np.asarray(sigma, dtype=float)
    t = np.log1p(sigma / epsilon)
    return np.maximum((gamma * lam_bar + rho * w - t) / (gamma + rho), 0.0)


def update_lambda_bar(w_new, lam_bar, gamma, rho):
    """Proximal step on the weight target: ``(gamma*w + rho*lam_bar)/(gamma + rho)``."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if rho < 0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    return (gamma * np.asarray(w_new, dtype=float) + rho * np.asarray(lam_bar, dtype=float)) / (
        gamma + rho
    )
