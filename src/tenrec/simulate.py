"""Synthetic instances: low-rank ground truth, sampling masks, mixed noise.

Every generator is a pure function of its parameters and a seed.  Streams
come from the Philox (4x64, 10 rounds) counter-based generator keyed by
the seed, so identical seeds reproduce identical arrays across platforms
and runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import t_product


def make_rng(seed):
    """Counter-based generator; the portable seed contract for the package."""
    return np.random.Generator(np.random.Philox(int(seed)))


def gen_lowrank(shape, rank, seed):
    """Random 3-way tensor of tubal rank at most ``rank``.

    Built as the tube-wise product of I1 x r x I3 and r x I2 x I3 factor
    tensors with standard normal entries.
    """
    i1, i2, i3 = (int(s) for s in shape)
    rank = int(rank)
    if rank < 0 or rank > min(i1, i2):
        raise ValueError(f"rank must lie in [0, {min(i1, i2)}], got {rank}")
    rng = make_rng(seed)
    a = rng.standard_normal((i1, rank, i3))
    b = rng.standard_normal((rank, i2, i3))
    return t_product(a, b)


@dataclass
class SamplingMask:
    """Boolean observation mask."""

    mask: np.ndarray


def gen_mask(shape, sampling_rate, seed):
    """Uniform random mask observing exactly round(rate * numel) entries."""
    if not 0 < sampling_rate <= 1:
        raise ValueError(f"sampling rate must lie in (0, 1], got {sampling_rate}")
    shape = tuple(int(s) for s in shape)
    numel = int(np.prod(shape, dtype=np.int64))
    count = int(np.floor(sampling_rate * numel + 0.5))
    rng = make_rng(seed)
    flat = np.zeros(numel, dtype=bool)
    flat[rng.permutation(numel)[:count]] = True
    return SamplingMask(flat.reshape(shape))


@dataclass(frozen=True)
class NoiseSpec:
    """Mixed-noise parameters.

    ``sp_fraction`` of the entries are overwritten by 0 or 1 with equal
    probability (salt and pepper); ``gaussian_sigma`` scales additive
    Gaussian noise applied everywhere first.  ``noniid``, when set to a
    ``(lo, hi)`` range, draws an independent salt-and-pepper fraction per
    frontal slice instead of using ``sp_fraction``.  Checked when built
    and frozen after.
    """

    sp_fraction: float = 0.0
    gaussian_sigma: float = 0.0
    noniid: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.sp_fraction < 1:
            raise ValueError(f"sp_fraction must lie in [0, 1), got {self.sp_fraction}")
        if not 0 <= self.gaussian_sigma < np.inf:
            raise ValueError(
                f"gaussian_sigma must be non-negative and finite, got {self.gaussian_sigma}")
        if self.noniid is not None:
            lo, hi = self.noniid
            if not (0 <= lo <= hi < 1):
                raise ValueError(f"noniid range must satisfy 0 <= lo <= hi < 1, got {self.noniid}")

    def describe(self):
        if self.noniid is not None:
            sp = f"sp~U({self.noniid[0]},{self.noniid[1]})"
        else:
            sp = f"sp={self.sp_fraction}"
        return f"{sp} nu={self.gaussian_sigma}"


def add_mixed_noise(z, spec):
    """Corrupt a tensor (expected scaled to [0, 1]) with mixed noise.

    Gaussian noise is added to every entry, then a fraction of entries is
    overwritten with 0 or 1.  Input is not modified.
    """
    z = np.asarray(z, dtype=float)
    rng = make_rng(spec.seed)
    out = z.copy()
    if spec.gaussian_sigma > 0:
        out = out + spec.gaussian_sigma * rng.standard_normal(z.shape)
    if spec.noniid is not None:
        lo, hi = spec.noniid
        bands = out.reshape(z.shape[0], z.shape[1], -1)
        fractions = rng.uniform(lo, hi, size=bands.shape[2])
        sp = np.broadcast_to(fractions, bands.shape).reshape(z.shape)
    elif spec.sp_fraction > 0:
        sp = np.full(z.shape, spec.sp_fraction)
    else:
        return out
    flip = rng.random(z.shape) < sp
    salt = rng.random(z.shape) < 0.5
    out[flip] = salt[flip].astype(float)
    return out
