"""Dense tensor algebra built on the tube-wise circular convolution product.

A 3-way array ``A`` is treated as a stack of frontal slices ``A[:, :, k]``
whose third index runs along "tubes".  The tube-wise product of two such
arrays equals independent matrix products between the frontal slices of
their DFTs along the third mode, which is how every product here is
evaluated.  Arrays are real in the spatial domain; the Fourier-domain
slices come in conjugate pairs, so decompositions take the real FFT
(``rfft``), factor its ``I3 // 2 + 1`` half-spectrum slices and return to
real space with ``irfft``.

N-way arrays enter through mode-pair unfolding: two chosen modes become
the slice axes and the remaining modes are flattened into tubes with the
earliest remaining mode varying fastest (column-major order).
"""

from __future__ import annotations

import itertools
import numpy as np

def _require_3way(a, name="input"):
    a = np.asarray(a)
    if a.ndim != 3:
        raise ValueError(f"{name} must be a 3-way array, got shape {a.shape}")
    return a


def _check_mode_pair(ndim, mode1, mode2):
    if not (0 <= mode1 < mode2 < ndim):
        raise ValueError(
            f"mode pair ({mode1}, {mode2}) is invalid for a {ndim}-way array; "
            "need 0 <= mode1 < mode2 < ndim"
        )


def mode_pairs(ndim):
    """All mode pairs (m1, m2) with m1 < m2, in lexicographic order."""
    return list(itertools.combinations(range(ndim), 2))


def unfold_mode_pair(t, mode1, mode2):
    """Unfold an N-way array into a 3-way array for one mode pair.

    Element ``(i_1, ..., i_N)`` of ``t`` lands at position
    ``(i_mode1, i_mode2, j)`` where ``j`` enumerates the remaining modes
    with the earliest remaining mode varying fastest.

    Parameters
    ----------
    t : ndarray
        N-way array, N >= 2.
    mode1, mode2 : int
        Zero-based modes, ``mode1 < mode2``.

    Returns
    -------
    ndarray of shape (I_mode1, I_mode2, prod of remaining extents)
        A read-only view of ``t`` when the unfolding needs no data
        movement (pair (0, 1) of a C-contiguous 3-way array), otherwise a
        new C-contiguous array.
    """
    t = np.asarray(t)
    _check_mode_pair(t.ndim, mode1, mode2)
    rest = [m for m in range(t.ndim) if m not in (mode1, mode2)]
    moved = np.transpose(t, (mode1, mode2, *rest))
    return _view_or_copy(moved.reshape((t.shape[mode1], t.shape[mode2], -1), order="F"), t)


def fold_mode_pair(t3, mode1, mode2, shape):
    """Invert :func:`unfold_mode_pair` back to the original shape.

    Like the unfolding, returns a read-only view of ``t3`` when no data
    has to move and a new C-contiguous array otherwise.
    """
    shape = tuple(int(s) for s in shape)
    _check_mode_pair(len(shape), mode1, mode2)
    t3 = _require_3way(t3, "unfolded input")
    rest = [m for m in range(len(shape)) if m not in (mode1, mode2)]
    rest_extents = [shape[m] for m in rest]
    expected = (shape[mode1], shape[mode2], int(np.prod(rest_extents, dtype=np.int64)))
    if t3.shape != expected:
        raise ValueError(
            f"unfolded shape {t3.shape} is inconsistent with target shape "
            f"{shape} and pair ({mode1}, {mode2}); expected {expected}"
        )
    moved = t3.reshape((expected[0], expected[1], *rest_extents), order="F")
    inverse = np.argsort((mode1, mode2, *rest))
    return _view_or_copy(np.transpose(moved, inverse), t3)


def _view_or_copy(arr, source):
    """``arr`` as a read-only view when it is a C-contiguous view of
    ``source``, else as a C-contiguous copy.

    A caller that writes into the result then fails instead of writing
    into ``source``.
    """
    arr = np.ascontiguousarray(arr)
    if np.may_share_memory(arr, source):
        arr = arr.view()
        arr.flags.writeable = False
    return arr


def t_product(a, b):
    """Tube-wise circular convolution product of two 3-way arrays.

    Parameters
    ----------
    a : ndarray, shape (I1, I2, I3)
    b : ndarray, shape (I2, J, I3)

    Returns
    -------
    ndarray, shape (I1, J, I3)
        Real when both inputs are real.
    """
    a = _require_3way(a, "a")
    b = _require_3way(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner extents do not match: {a.shape} vs {b.shape}")
    if a.shape[2] != b.shape[2]:
        raise ValueError(f"tube lengths do not match: {a.shape} vs {b.shape}")
    abar = np.fft.fft(a, axis=2)
    bbar = np.fft.fft(b, axis=2)
    cbar = np.einsum("ijk,jlk->ilk", abar, bbar)
    c = np.fft.ifft(cbar, axis=2)
    if np.isrealobj(a) and np.isrealobj(b):
        return c.real
    return c


def _mirror_count(i3):
    """How many of the ``I3`` Fourier slices each half-spectrum slice
    stands for: slice ``k`` and slice ``I3 - k`` are conjugate mirrors with
    the same singular values, so 2 for every slice but slice 0 and the
    Nyquist slice of an even ``I3``, which stand for themselves."""
    count = np.ones(i3 // 2 + 1, dtype=int)
    count[1:(i3 + 1) // 2] = 2
    return count


def fourier_singular_values(z):
    """Per-Fourier-slice singular values of a real 3-way array.

    Returns an ``(R, I3 // 2 + 1)`` matrix with ``R = min(I1, I2)``, one
    non-increasing column per half-spectrum slice of the real FFT; the
    other slices are conjugate mirrors with the same singular values.
    """
    z = _require_3way(z)
    return np.linalg.svd(np.moveaxis(np.fft.rfft(z, axis=2), 2, 0), compute_uv=False).T
