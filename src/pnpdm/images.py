"""Image container helpers and bit-exact file IO.

In memory an image is a 2-D float64 ``numpy.ndarray`` (rows, cols); 64-bit
precision is kept regardless of the file precision: the sampler accumulates
many small updates per pixel, and tests compare it to dense oracles at 1e-10.

On disk every image is PNPI, whatever the file name: magic ``PNPI``, u32
height, u32 width, u32 reserved (zero), then height*width little-endian finite
f32 values row-major, and nothing after them.  It round-trips bit-exactly at
32-bit precision.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

FLOAT_MAGIC = b"PNPI"
_FLOAT_HEADER = struct.Struct("<4sIII")

# Caps height/width so height*width*4 cannot overflow or exhaust memory on
# a malformed header.
MAX_DIM = 1 << 16


class ImageFormatError(ValueError):
    """Malformed image file; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def as_image(data) -> np.ndarray:
    """Coerce to a validated 2-D float64 image array."""
    img = np.asarray(data, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {img.shape}")
    if img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError(f"image dims must be >= 1, got {img.shape}")
    return img


def check_finite(img: np.ndarray, what: str) -> None:
    """``ValueError`` naming the (row, col) of the first NaN or infinite pixel."""
    finite = np.isfinite(img)
    if not finite.all():
        index = np.unravel_index(int(np.argmin(finite)), img.shape)
        raise ValueError(f"{what} has a non-finite pixel at {tuple(map(int, index))}")


def write_image(path, img) -> None:
    """Write ``img`` to ``path`` as PNPI, its pixels cast to C-ordered
    little-endian f32; ``ValueError``, with nothing written, for what
    ``read_image`` refuses: a side above MAX_DIM, or a pixel that is not
    finite once cast to f32."""
    img = as_image(img)
    if max(img.shape) > MAX_DIM:
        raise ValueError(f"image dims must be <= {MAX_DIM}, got {img.shape}")
    with np.errstate(over="ignore"):  # a finite value beyond the f32 range becomes inf
        pixels = img.astype("<f4", order="C")
    check_finite(pixels, "image as f32")
    Path(path).write_bytes(_FLOAT_HEADER.pack(FLOAT_MAGIC, *pixels.shape, 0)
                           + memoryview(pixels).cast("B"))


def read_image(path) -> np.ndarray:
    """Read a PNPI file; ``ImageFormatError`` names the offset of its first defect."""
    raw = Path(path).read_bytes()
    if raw[:4] != FLOAT_MAGIC:
        raise ImageFormatError("unrecognized magic bytes", 0)
    if len(raw) < _FLOAT_HEADER.size:
        raise ImageFormatError("truncated header", len(raw))
    _, h, w, reserved = _FLOAT_HEADER.unpack_from(raw)
    if reserved != 0:
        raise ImageFormatError("reserved word must be zero", 12)
    if h < 1 or w < 1 or h > MAX_DIM or w > MAX_DIM:
        raise ImageFormatError(f"dimensions {h}x{w} out of range", 4)
    expected = _FLOAT_HEADER.size + 4 * h * w
    if len(raw) < expected:
        raise ImageFormatError("truncated payload", len(raw))
    if len(raw) > expected:
        raise ImageFormatError(f"{len(raw) - expected} bytes after the pixels", expected)
    data = np.frombuffer(raw, dtype="<f4", count=h * w, offset=_FLOAT_HEADER.size)
    finite = np.isfinite(data)
    if not finite.all():
        index = int(np.argmin(finite))
        raise ImageFormatError("non-finite pixel", _FLOAT_HEADER.size + 4 * index)
    return data.astype(np.float64).reshape(h, w)
