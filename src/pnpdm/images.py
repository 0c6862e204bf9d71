"""Image container helpers and bit-exact file IO.

In memory an image is a 2-D float64 ``numpy.ndarray`` (rows, cols); 64-bit
precision is kept regardless of the file precision: the sampler accumulates
many small updates per pixel, and tests compare it to dense oracles at 1e-10.

Two on-disk formats are supported:

* native float format -- magic ``PNPI``, u32 height, u32 width, u32 reserved
  (zero), then height*width little-endian finite f32 values row-major, and
  nothing after them.
  Round-trips bit-exactly at 32-bit precision.
* binary 8-bit portable graymap (``P5``) with maxval 255; values map linearly
  to [0, 1].  Lossy (1/255 quantization), meant for viewers.
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


def write_image(path, img) -> None:
    """Write ``img`` to ``path``; ``.pgm`` selects the graymap format."""
    img = as_image(img)
    path = Path(path)
    if path.suffix.lower() == ".pgm":
        data = _encode_pgm(img)
    else:
        data = _encode_float(img)
    path.write_bytes(data)


def read_image(path) -> np.ndarray:
    """Read either supported format, sniffing the magic bytes."""
    raw = Path(path).read_bytes()
    if raw[:4] == FLOAT_MAGIC:
        return _decode_float(raw)
    if raw[:2] == b"P5":
        return _decode_pgm(raw)
    raise ImageFormatError("unrecognized magic bytes", 0)


def _encode_float(img: np.ndarray) -> bytes:
    h, w = img.shape
    header = _FLOAT_HEADER.pack(FLOAT_MAGIC, h, w, 0)
    return header + img.astype("<f4").tobytes()


def _decode_float(raw: bytes) -> np.ndarray:
    if len(raw) < _FLOAT_HEADER.size:
        raise ImageFormatError("truncated header", len(raw))
    magic, h, w, reserved = _FLOAT_HEADER.unpack_from(raw)
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


def _encode_pgm(img: np.ndarray) -> bytes:
    h, w = img.shape
    quantized = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    return f"P5\n{w} {h}\n255\n".encode("ascii") + quantized.tobytes()


def _decode_pgm(raw: bytes) -> np.ndarray:
    tokens, payload_offset = _pgm_header_tokens(raw)
    w, h, maxval = tokens
    if w < 1 or h < 1 or w > MAX_DIM or h > MAX_DIM:
        raise ImageFormatError(f"dimensions {h}x{w} out of range", 2)
    if not 0 < maxval <= 255:
        raise ImageFormatError(f"unsupported maxval {maxval}", 2)
    expected = payload_offset + h * w
    if len(raw) < expected:
        raise ImageFormatError("truncated payload", len(raw))
    data = np.frombuffer(raw, dtype=np.uint8, count=h * w, offset=payload_offset)
    return data.astype(np.float64).reshape(h, w) / float(maxval)


def _pgm_header_tokens(raw: bytes) -> tuple[tuple[int, int, int], int]:
    """Parse width/height/maxval tokens after the P5 magic, honoring # comments."""
    pos = 2
    tokens: list[int] = []
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if pos == start:
            raise ImageFormatError("truncated graymap header", pos)
        try:
            tokens.append(int(raw[start:pos]))
        except ValueError:
            raise ImageFormatError("non-numeric graymap header token", start) from None
    if pos >= len(raw):
        raise ImageFormatError("truncated graymap header", pos)
    # exactly one whitespace byte separates maxval from the payload
    return (tokens[0], tokens[1], tokens[2]), pos + 1
