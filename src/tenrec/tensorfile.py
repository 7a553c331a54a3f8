"""Flat binary tensor files.

Layout: magic ``TNS1``, one version byte (1), one byte with the number of
modes, that many little-endian unsigned 64-bit extents, then the payload
as little-endian 64-bit floats with the first index varying fastest
(column-major).  Chosen so any language can parse it with a few reads.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"TNS1"
VERSION = 1
# Refuse absurd headers before trying to allocate the payload.
MAX_ELEMENTS = 1 << 40


class TensorFormatError(ValueError):
    """Malformed tensor file; ``offset`` is the failing byte position."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def save_tensor(path, t):
    t = np.asarray(t, dtype="<f8")
    if t.ndim < 1 or t.ndim > 255:
        raise ValueError(f"cannot store a {t.ndim}-way tensor")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BB", VERSION, t.ndim))
        fh.write(struct.pack(f"<{t.ndim}Q", *t.shape))
        fh.write(t.tobytes(order="F"))


def load_tensor(path):
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != MAGIC:
        raise TensorFormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}", 0)
    if len(data) < 5 or data[4] != VERSION:
        raise TensorFormatError(f"unsupported version {data[4] if len(data) > 4 else None}", 4)
    if len(data) < 6:
        raise TensorFormatError("truncated header: missing mode count", 5)
    ndim = data[5]
    if ndim == 0:
        raise TensorFormatError("tensor must have at least one mode", 5)
    header_end = 6 + 8 * ndim
    if len(data) < header_end:
        raise TensorFormatError("truncated header: missing extents", len(data))
    shape = struct.unpack(f"<{ndim}Q", data[6:header_end])
    numel = 1
    for k, extent in enumerate(shape):
        if extent == 0:
            raise TensorFormatError(f"extent {k} is zero", 6 + 8 * k)
        numel *= extent
        if numel > MAX_ELEMENTS:
            raise TensorFormatError(f"extents overflow ({numel} elements)", 6 + 8 * k)
    expected = header_end + 8 * numel
    if len(data) != expected:
        raise TensorFormatError(
            f"payload has {len(data) - header_end} bytes, expected {8 * numel}",
            min(len(data), expected),
        )
    flat = np.frombuffer(data, dtype="<f8", offset=header_end)
    return flat.reshape(shape, order="F").copy()
