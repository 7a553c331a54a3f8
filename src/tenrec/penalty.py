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
half-spectrum Fourier slices of its argument by one of four routes, each
certified exact to rounding, and shrinks and rebuilds them in one place.
A solver calls it once per mode pair and sweep; each call returns, with
its result, the vectors that seed the next call.

Unlike the l1 or nuclear norms, none of the penalties here satisfy the
triangle inequality; "norm" is used loosely throughout.
"""

from __future__ import annotations

import numpy as np

from .algebra import _require_3way


# The range checks are written so that NaN fails them.
def _validate_params(lam, gamma, epsilon):
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not np.all(np.asarray(lam) >= 0):
        raise ValueError("lam must be non-negative")


def _validate_shrink(w, rho, epsilon):
    if not np.all(w >= 0):
        raise ValueError("weights must be non-negative")
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")


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

    Accepts scalars or arrays (``w`` broadcasts against ``y``).  A NaN
    value of ``y``, which stands for one a truncated factorization did not
    compute, shrinks to zero.
    """
    scalar_in = np.ndim(y) == 0 and np.ndim(w) == 0
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.any(y < 0):
        raise ValueError("values to shrink must be non-negative")
    _validate_shrink(w, rho, epsilon)

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


def weighted_log_prox(y, w, rho, epsilon, strict=False, basis=None, overwrite_y=False):
    """Singular-value shrinkage of a 3-way array under fixed weights.

    Targets ``argmin_L (rho/2)*||L - Y||_F^2 + sum_{j,i} w[j,k(i)] *
    log(sigma_j(L_bar_i)/eps + 1)`` over all ``I3`` Fourier slices ``i``.
    ``w`` is ``R x (I3 // 2 + 1)``, one column per half-spectrum slice:
    slice ``i`` and its conjugate mirror ``I3 - i`` have the same singular
    values and take the same column ``k(i) = min(i, I3 - i)``.  The
    spatial Frobenius quadratic is ``1/I3`` times the Fourier-domain one,
    so each Fourier singular value is shrunk with quadratic scale
    ``rho/I3`` by :func:`shrink_singular_values`.  Only ``strict=True``
    takes each value's global minimiser, i.e. the proximal map that PALM's
    convergence result under the KL property assumes.  The default rule
    keeps the larger stationary point for every value above its threshold,
    although zero is lower in a narrow band just above it.

    Only the ``I3 // 2 + 1`` half-spectrum slices ``A`` of the real FFT
    are factored, by one of four routes; when ``I1 > I2`` their
    transposes are, through a view of the same buffer, so every route
    sees ``R x max(I1, I2)`` slices, ``R = min(I1, I2)``.  A route only
    returns singular triplets; :func:`_rebuild` then shrinks the values
    and writes each slice, rebuilt from its kept triplets, back in its
    place, and ``irfft`` returns the result to real space, which fills in
    the mirror slices.  The routes agree with a batched SVD of every
    slice to rounding, not bit for bit.

    - Ritz step (:func:`_ritz_triplets`), given ``basis``: the
      ``next_basis`` of the previous call on this sequence, a ``(I3 // 2
      + 1, R, p)`` array, ``0 < p < R``, of leading left singular vectors
      of the slices as factored.  Only the leading ``p`` triplets are
      computed, by block power steps from the basis and one Rayleigh-Ritz
      step, and they are taken when they have converged and a
      certificate proves that every value left out shrinks to zero
      (:func:`_certified`).  Otherwise, or when ``basis`` is not of this
      shape or has an entry above 1 in magnitude (no orthonormal column
      has), the call takes the full path, one of:
    - Gram route (:func:`_gram_triplets`), one slice at a time when ``R
      >= GRAM_MIN_RANK``: the ``eigh`` of the slice's Gram matrix, taken
      when it decides the kept set exactly and the kept triplets have
      converged.  A value of ``sigma_old`` is then resolved only down to
      about ``sqrt(16 (I1 + I2) eps) ||A||_F``; a kept value to the
      residual test.
    - Per-slice SVD, for a slice that the Gram route does not take or
      whose last threshold is negative (it keeps values that the Gram
      matrix does not resolve).
    - Batched SVD of every slice, for ``R < GRAM_MIN_RANK``, through the
      ``max(I1, I2) x R`` view of non-square slices.

    The shrink rule chooses no route: every route certifies the values
    that the default rule keeps, and ``strict`` only zeroes some of them.

    The slices live in one buffer, one stack of ``I3 // 2 + 1`` complex
    ``I1 x I2`` slices, and the real result overwrites it (see
    :func:`_irfft_over_slices`).  A full-path call on the Gram route,
    under either rule, holds at its peak the buffer, the Gram matrix and
    factors of one slice, and ``MAX_WIDTH_FRACTION * R`` left vectors per
    slice for the next basis: 1.5-1.9 stacks on 60 x 60 x 16, 80 x 60 x 9
    and 100 x 100 x 20 inputs, where the batched SVD holds three.  A tall
    argument holds what its transpose does: 1.3 stacks on a 200 x 100 x
    20 input of tubal rank 5.  The returned array is a view of the buffer,
    which is ``2 * (I3 // 2 + 1) / I3`` times its size.

    ``overwrite_y=True`` lets the call take the buffer that ``y`` starts,
    as scipy's ``overwrite_a`` does: when ``y`` is a writeable,
    C-contiguous float64 array at the start of a C-contiguous float64
    buffer of at least ``2 * I1 * (I3 // 2 + 1) * I2`` entries (every
    array this function returns is one), the slices are transformed over
    it, in row blocks, and ``y`` and that buffer are lost.  Any other
    ``y`` is left as it is and the slices go to a new buffer, as they do
    by default.

    Returns
    -------
    (l, sigma_new, sigma_old, next_basis)
        The shrunk array and the ``R x (I3 // 2 + 1)`` matrices of shrunk
        and original half-spectrum singular values, laid out as ``w``.
        After a truncated factorization, ``sigma_old`` holds the ``p``
        Ritz values of each slice and NaN past them, where no value was
        computed; ``sigma_new`` is zero there, as the certificate proves.
        ``next_basis`` holds the leading vectors to pass as ``basis`` to
        the next call, or is ``None`` where truncation would not pay or
        could not be certified (see :func:`_next_basis`, the only judge
        of it).  A ``basis`` that is malformed, or has an entry above 1
        in magnitude (so also a NaN or inf one), is not used: the call
        takes the full path.
    """
    y = _require_3way(np.asarray(y, dtype=float))
    if not np.all(np.isfinite(y)):
        raise ValueError("prox input must be finite")
    i1, i2, i3 = y.shape
    r, half = min(i1, i2), i3 // 2 + 1
    w = np.asarray(w, dtype=float)
    if w.shape != (r, half):
        raise ValueError(f"weight shape {w.shape} does not match ({r}, {half}), "
                         "one column per half-spectrum slice")
    _validate_shrink(w, rho, epsilon)
    w_half = w.T
    thr = _shrink_threshold(w_half, rho / i3, epsilon)
    # One buffer holds the slices, row-major over I1, so that the inverse
    # transform can write the real result over them.  a[j] is slice j, or
    # its transpose when I1 > I2, a view either way: every route factors
    # R x max(I1, I2) slices and rebuilds them in place.
    buf = _slice_buffer(y, 2 * i1 * half * i2, overwrite_y)
    rows = buf.view(complex).reshape(i1, half, i2)
    _rfft_into_rows(y, rows)
    a = rows.transpose(1, 2, 0) if i1 > i2 else rows.transpose(1, 0, 2)
    factors = None
    # An orthonormal column has no entry above 1; the margin is rounding.
    if (np.ndim(basis) == 3 and np.shape(basis)[:2] == (half, r) and 0 < np.shape(basis)[2] < r
            and np.abs(basis).max() <= 1 + 1e-12):
        factors = _ritz_triplets(a, basis, thr)
    if factors is not None:
        u, s, _ = factors
        s_new = _rebuild(a, *factors, w_half, rho / i3, epsilon, strict)
    else:
        u, s, s_new = _shrink_slices(a, w_half, rho / i3, epsilon, thr, strict)
    l = _irfft_over_slices(rows, buf, i3)

    sigma_new, sigma_old = np.zeros((half, r)), np.full((half, r), np.nan)
    sigma_new[:, :s.shape[1]], sigma_old[:, :s.shape[1]] = s_new, s
    return l, sigma_new.T, sigma_old.T, _next_basis(u, s, s_new, thr)


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
# The full path factors slices of rank R from this up one at a time from
# their Gram matrices, and smaller ones by one batched SVD: below it the
# per-slice loop costs more than the eigendecomposition saves.  Measured
# on 2 cores, the 11 slices of a 30 x 30 x 20 argument took 3.6 ms against
# 2.7 ms, of 48 x 48 x 20 8.6 against 9.0, of 100 x 100 x 20 39 against 54.
GRAM_MIN_RANK = 48
# The inverse transform writes the real result over the slices in row
# blocks of about this many bytes; NumPy copies each block's input first,
# because the two overlap.
IRFFT_BLOCK_BYTES = 1 << 18


def _rounding_band(a_sq, i1, i2):
    """Rounding in a slice's Gram matrix or Ritz block, relative to its
    squared Frobenius norm ``a_sq``."""
    return 16 * (i1 + i2) * np.finfo(float).eps * a_sq


def _shrink_slices(a, w_half, rho, epsilon, thr, strict):
    """Factor each slice of ``a`` and shrink and rebuild it in its place:
    the full path.

    Slices of rank ``R >= GRAM_MIN_RANK`` are factored one at a time, by
    :func:`_gram_triplets` or else by their SVD, so the factors of only one
    slice are held at once.  Smaller slices are factored by one batched
    SVD, of ``n x R`` views when ``n > R``.  The route depends on ``R``
    alone; ``strict`` reaches only :func:`_rebuild`.

    Returns ``(u, s, s_new)``: the values of every slice before and after
    the shrinkage, and ``u``, the first ``MAX_WIDTH_FRACTION * R`` left
    singular vectors of every slice, the most :func:`_next_basis` hands
    on; it decides whether to.
    """
    half, r, _ = a.shape
    cap = int(MAX_WIDTH_FRACTION * r)
    if r < GRAM_MIN_RANK:
        # LAPACK factors an n x R slice 2-22 % faster than its R x n
        # transpose (measured on 2 cores, n x R from 12 x 8 to 120 x 60)
        if a.shape[2] > r:
            vt, s, ut = np.linalg.svd(a.mT, full_matrices=False)
            u, vh = ut.mT, vt.mT
        else:
            u, s, vh = np.linalg.svd(a, full_matrices=False)
        return u[:, :, :cap], s, _rebuild(a, u, s, vh, w_half, rho, epsilon, strict)
    u = np.empty((half, r, cap), dtype=complex)
    s = np.empty((half, r))
    s_new = np.empty((half, r))
    for j in range(half):
        # a negative last threshold keeps values that the Gram matrix cannot resolve
        gram = thr[j, -1] >= 0 and _gram_triplets(a[j], thr[j], s[:j, 0].max(initial=0.0))
        left, s[j], vh = gram or np.linalg.svd(a[j], full_matrices=False)
        s_new[j] = _rebuild(a[j], left, s[j], vh, w_half[j], rho, epsilon, strict)
        u[j] = left[:, :cap]
        del left, vh  # not held while the next slice is factored
    return u, s, s_new


def _rebuild(a, u, s, vh, w, rho, epsilon, strict):
    """Shrink the values ``s`` of slice ``a``, or of a stack, under weights
    ``w`` (cut to their number), write the slices rebuilt from the kept
    triplets over ``a``, and return the shrunk values."""
    s_new = shrink_singular_values(s, w[..., :s.shape[-1]], rho, epsilon, strict=strict)
    k = _kept_end(s_new).max()
    np.matmul(u[..., :k] * s_new[..., None, :k], vh[..., :k, :], out=a)
    return s_new


def _gram_triplets(x, thr, s_top):
    """Singular triplets ``(u, s, vh)`` of slice ``x``, which has no more
    rows than columns, from the Hermitian eigendecomposition of its Gram
    matrix ``x x^H``, or ``None`` where that is not exact.

    The eigenvectors are the left singular vectors of ``x``, and the rows
    of ``U^H x`` divided by ``s`` its right ones.  The eigenvalues match
    the squared singular values to within ``delta``
    (:func:`_rounding_band`), so the kept set is exact when no eigenvalue
    lies within ``delta`` of its squared non-negative threshold.  The
    first ``k`` triplets, up to the last value above its threshold, must
    pass the residual test of :func:`_ritz_triplets` against ``s_top``,
    the largest value of the slices before this one, or this slice's own.
    Every left vector is returned, and the right vectors of those ``k``.
    """
    if not x.imag.any():  # the DC slice, and the Nyquist slice of an even I3
        x = np.ascontiguousarray(x.real)
    gram = x @ x.conj().T
    band = _rounding_band(np.trace(gram).real, *x.shape)
    lam, vec = np.linalg.eigh(gram)
    del gram
    lam, vec = lam[::-1], vec[:, ::-1]
    if np.any((thr >= 0) & (np.abs(lam - thr**2) <= band)):
        return None
    s = np.sqrt(np.maximum(lam, 0.0))
    k = _kept_end(s, thr)
    b = vec[:, :k].conj().T @ x
    # ||A v_j - s_j u_j|| <= RITZ_RTOL * sigma_max, times s_j
    res = np.linalg.norm(x @ b.conj().T - vec[:, :k] * s[:k] ** 2, axis=0)
    if np.any(res > RITZ_RTOL * max(s_top, s[0]) * s[:k]):
        return None
    # b's rows over s, on its real view: the right vectors of x (a zero
    # value that passed the residual test gets a zero row)
    parts = b.view(float)
    np.multiply(parts, np.divide(1.0, s[:k], out=np.zeros(k), where=s[:k] > 0)[:, None],
                out=parts)
    return vec, s, b


def prox_buffer(shape):
    """A new C-contiguous float64 array of ``shape`` (``I1 x I2 x I3``) at
    the start of a buffer with room for its half-spectrum slices, which
    :func:`weighted_log_prox` can transform it over (``overwrite_y``)."""
    i1, i2, i3 = shape
    return np.empty(2 * i1 * (i3 // 2 + 1) * i2)[:i1 * i2 * i3].reshape(shape)


def _slice_buffer(y, size, overwrite_y):
    """A float64 buffer of ``size`` entries for the slices of ``y`` (a
    float64 array): with ``overwrite_y``, the start of the buffer that
    ``y`` starts when ``y`` is writeable, C-contiguous and at the start of
    a C-contiguous float64 buffer that long; else a new one."""
    base = y if y.base is None else y.base
    if (overwrite_y and isinstance(base, np.ndarray) and base.dtype == float
            and base.flags.c_contiguous and y.flags.c_contiguous and y.flags.writeable
            and base.size >= size and y.ctypes.data == base.ctypes.data):
        return base.reshape(-1)[:size]
    return np.empty(size)


def _rfft_into_rows(y, rows):
    """Transform ``y`` (``I1 x I2 x I3``) along its tubes into ``rows``
    (``I1 x half x I2``), which may start where ``y`` does: a row of the
    slices is longer than a row of ``y``, so transforming blocks of rows
    last first never overwrites a row of ``y`` not yet read."""
    step = max(1, IRFFT_BLOCK_BYTES // rows[0].nbytes)
    for i in reversed(range(0, len(rows), step)):
        np.fft.rfft(y[i:i + step], axis=2, out=rows[i:i + step].transpose(0, 2, 1))


def _irfft_over_slices(rows, buf, i3):
    """Inverse-transform the slices held in ``rows`` (``I1 x half x I2``,
    a view of ``buf``) and write the real ``I1 x I2 x I3`` result,
    C-contiguous, over the start of ``buf``.

    Row ``i`` of the result ends before row ``i + 1`` of the slices
    begins, so transforming the rows in order never overwrites a row not
    yet read.
    """
    i1, half, i2 = rows.shape
    out = buf[:i1 * i2 * i3].reshape(i1, i2, i3)
    step = max(1, IRFFT_BLOCK_BYTES // rows[0].nbytes)
    for i in range(0, i1, step):
        np.fft.irfft(rows[i:i + step].transpose(1, 0, 2), n=i3, axis=0,
                     out=out[i:i + step].transpose(2, 0, 1))
    return out


def _shrink_threshold(w, rho, epsilon):
    """Values at or below ``2*sqrt(w/rho) - eps`` shrink to zero."""
    return 2.0 * np.sqrt(w / rho) - epsilon


def _kept_end(s, thr=0.0):
    """Per slice (row of the last axis), one past the last index where
    ``s`` exceeds ``thr`` (cut to the width of ``s``), or 0; ``.max()``
    gives it for a whole stack."""
    n = s.shape[-1]
    kept = s > np.atleast_1d(thr)[..., :n]
    return np.where(kept.any(axis=-1), n - np.argmax(kept[..., ::-1], axis=-1), 0)


def _ritz_triplets(a, q, thr):
    """Leading ``p`` singular triplets of each slice of ``a``, or ``None``.

    ``a`` is the ``half x R x n`` stack of slices, ``n >= R``, a view of
    any strides.  Starts from the orthonormal columns ``q`` (``half x R x
    p``) and takes bare block power steps ``q <- qr(A A^H q)``, as many
    as :func:`_power_steps` predicts from the first one, without rotating
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
    # Squared Frobenius norm per slice (vecdot conjugates its first factor).
    a_sq = np.vecdot(a, a).real.sum(axis=1)
    # Rounding in ||A||^2 - ||B||^2, in R and in the orthonormality of Q.
    margin = _rounding_band(a_sq, i1, i2)
    # A^H q is formed as conj(A^T conj(q)): no conjugate copy of the stack.
    at = a.transpose(0, 2, 1)
    y = a @ (at @ q.conj()).conj()
    for _ in range(_power_steps(q, y, thr) - 1):
        y = a @ (at @ np.linalg.qr(y)[0].conj()).conj()
    q = np.linalg.qr(y)[0]
    # each p-wide block is released once it is dead: a solve's peak can sit here
    del y
    ub, s, vh = np.linalg.svd(q.conj().transpose(0, 2, 1) @ a, full_matrices=False)
    u = q @ ub
    del q
    res = a @ vh.conj().transpose(0, 2, 1)
    res -= u * s[:, None, :]
    res = np.linalg.norm(res, axis=1)
    res[np.arange(p) >= _kept_end(s, thr)[:, None]] = 0.0
    if res.max() > RITZ_RTOL * s[:, 0].max():
        return None
    # ||R||_F^2 = ||A||_F^2 - ||B||_F^2 for R = (I - QQ^H) A.
    tail_sq = np.maximum(a_sq - np.sum(s**2, axis=1), 0.0) + margin
    for i in np.flatnonzero(~_certified(s, res, tail_sq, thr)):
        # Tighter bounds from the Schatten-4 and -8 norms of R, ||R||_2^2 <=
        # ||(R R^H)^m||_F^(1/m) for m = 1, 2 (||.||_F by rows, not a BLAS dot).
        resid = a[i] - (u[i] * s[i]) @ vh[i]
        gram = resid @ resid.conj().T
        del resid
        for m in (1, 2):
            fro = np.sqrt(np.vecdot(gram, gram).real.sum())
            tail_sq[i] = fro ** (1 / m) * (1 + 1e-10) + margin[i]
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


def _next_basis(u, s, s_new, thr):
    """The leading left vectors for the next call, or ``None`` for a full
    factorization: the only place that decides the warm start.

    ``u`` holds the ``p`` left vectors of a truncated factorization, or
    the first ``MAX_WIDTH_FRACTION * R`` of the full path, and ``s`` and
    ``s_new`` the values before and after the shrinkage.  The basis is the
    first ``k + OVERSAMPLE`` columns of ``u`` (all of them if fewer), with
    ``k`` one past the last index any slice keeps, and truncation is tried
    only while that width is at most ``MAX_WIDTH_FRACTION`` of the slice
    rank.  When ``s`` holds every value, after the full path, the exact
    spectrum must also pass the certificate with the Schatten-8 norm of
    its tail, the best bound a perfect subspace would give: a slice whose
    values past the basis sit too close to their thresholds would fail
    the certificate again and pay for both paths.
    """
    width = _kept_end(s_new).max() + OVERSAMPLE
    if width > MAX_WIDTH_FRACTION * thr.shape[1]:
        return None
    if s.shape[1] == thr.shape[1]:
        tail_sq = np.sum(s[:, width:] ** 8, axis=1) ** 0.25
        head = s[:, :width]
        if not _certified(head, np.zeros(head.shape), tail_sq, thr).all():
            return None
    return u[:, :, :width].copy()


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
    if not np.all(w >= 0):
        raise ValueError("weights must be non-negative")
    _validate_params(lam_bar, gamma, epsilon)
    if not rho >= 0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    sigma = np.asarray(sigma, dtype=float)
    t = np.log1p(sigma / epsilon)
    return np.maximum((gamma * lam_bar + rho * w - t) / (gamma + rho), 0.0)


def update_lambda_bar(w_new, lam_bar, gamma, rho):
    """Proximal step on the weight target: ``(gamma*w + rho*lam_bar)/(gamma + rho)``."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not rho >= 0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    return (gamma * np.asarray(w_new, dtype=float) + rho * np.asarray(lam_bar, dtype=float)) / (
        gamma + rho
    )
