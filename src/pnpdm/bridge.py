"""Framed stdio protocol for serving the denoiser interface out-of-process.

An external program (e.g. a trained diffusion-network runner) reads request
frames on stdin and writes response frames on stdout, so learned priors plug
in without binding this package to a deep-learning stack.

Wire format, little-endian throughout:

* request:  magic ``PNPD``, u32 frame-type=1, f64 sigma (finite, > 0),
  u32 height, u32 width, then height*width f32 pixels row-major
* response: magic ``PNPD``, u32 frame-type=2, u32 height, u32 width, pixels
* error:    magic ``PNPD``, u32 frame-type=3, u32 byte-length, UTF-8 message

Pixels cross the wire at 32-bit precision (quantization <= 1e-6 on [-2, 2]);
a frame holding a NaN or infinite pixel, or a bad sigma, is malformed.
``read_frame`` is the one decoder, for servers and client alike.  A bridge
instance is exclusive: strictly one request in flight.  Threads that share one
instance take turns; each call holds a lock for its round trip.  A timeout or
a malformed reply leaves the stream out of step, so the client then kills the
server process.  Every failure, a command that cannot start included, raises
a ``BridgeError``; nothing restarts a server that has gone.
"""

from __future__ import annotations

import os
import select
import struct
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import BinaryIO, Sequence

import numpy as np

from pnpdm.images import MAX_DIM, as_encodable, as_image

MAGIC = b"PNPD"
FRAME_REQUEST = 1
FRAME_RESPONSE = 2
FRAME_ERROR = 3

_PREFIX = struct.Struct("<4sI")
_DIMS = struct.Struct("<II")


class BridgeError(RuntimeError):
    """Base class for bridge failures."""


class BridgeTimeoutError(BridgeError):
    """No complete response within the configured timeout."""


class BridgeProcessError(BridgeError):
    """External process exited or its pipes closed."""


class BridgeFrameError(BridgeError):
    """Malformed frame on the wire."""


class BridgeShapeError(BridgeError):
    """Response image dimensions differ from the request."""


class BridgeRemoteError(BridgeError):
    """Server answered with an error frame; carries its message."""


def encode_request(x: np.ndarray, sigma: float) -> bytes:
    x = as_encodable(x)
    h, w = x.shape
    return (_PREFIX.pack(MAGIC, FRAME_REQUEST) + struct.pack("<d", float(sigma))
            + _DIMS.pack(h, w) + x.astype("<f4").tobytes())


def encode_response(img: np.ndarray) -> bytes:
    img = as_encodable(img)
    h, w = img.shape
    return _PREFIX.pack(MAGIC, FRAME_RESPONSE) + _DIMS.pack(h, w) \
        + img.astype("<f4").tobytes()


def encode_error(message: str) -> bytes:
    payload = message.encode("utf-8")
    return _PREFIX.pack(MAGIC, FRAME_ERROR) + struct.pack("<I", len(payload)) + payload


def read_frame(stream: BinaryIO):
    """Read one frame from a blocking stream; None on clean EOF at a boundary.

    Returns (FRAME_REQUEST, image, sigma), (FRAME_RESPONSE, image) or
    (FRAME_ERROR, message).
    """
    prefix = stream.read(_PREFIX.size)
    if not prefix:
        return None
    if len(prefix) < _PREFIX.size:
        raise BridgeFrameError("truncated frame prefix")
    magic, frame_type = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise BridgeFrameError(f"bad magic {magic!r}")
    if frame_type == FRAME_REQUEST:
        head = _read_exact(stream, 8 + _DIMS.size)
        (sigma,) = struct.unpack_from("<d", head)
        if not 0.0 < sigma < float("inf"):
            raise BridgeFrameError(f"request sigma {sigma} is not finite and > 0")
        h, w = _DIMS.unpack_from(head, 8)
        return FRAME_REQUEST, _read_pixels(stream, h, w), sigma
    if frame_type == FRAME_RESPONSE:
        h, w = _DIMS.unpack(_read_exact(stream, _DIMS.size))
        return FRAME_RESPONSE, _read_pixels(stream, h, w)
    if frame_type == FRAME_ERROR:
        (length,) = struct.unpack("<I", _read_exact(stream, 4))
        if length > 1 << 20:
            raise BridgeFrameError(f"unreasonable error-message length {length}")
        return FRAME_ERROR, _read_exact(stream, length).decode("utf-8", "replace")
    raise BridgeFrameError(f"unknown frame type {frame_type}")


def _read_exact(stream: BinaryIO, count: int) -> bytes:
    data = stream.read(count)
    if data is None or len(data) < count:
        raise BridgeFrameError("truncated frame body")
    return data


def _read_pixels(stream: BinaryIO, h: int, w: int) -> np.ndarray:
    if h < 1 or w < 1 or h > MAX_DIM or w > MAX_DIM:
        raise BridgeFrameError(f"frame dimensions {h}x{w} out of range")
    pixels = np.frombuffer(_read_exact(stream, 4 * h * w), dtype="<f4")
    if not np.isfinite(pixels).all():
        raise BridgeFrameError("non-finite pixel in frame")
    return pixels.astype(np.float64).reshape(h, w)


class _PipeReader:
    """Blocking-stream view of a child's stdout for ``read_frame``.

    ``read(count)`` returns exactly ``count`` bytes, waiting with ``select``
    against one deadline per reader, and never reads past them.
    """

    def __init__(self, proc: subprocess.Popen, timeout: float):
        self._proc = proc
        self._timeout = timeout
        self._deadline = time.monotonic() + timeout

    def read(self, count: int) -> bytearray:
        fd = self._proc.stdout.fileno()
        data = bytearray()
        while len(data) < count:
            remaining = self._deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise BridgeTimeoutError(f"no response within {self._timeout} s")
            chunk = os.read(fd, count - len(data))
            if not chunk:
                # stdout closes as the child exits, a moment before it can be reaped
                try:
                    code = self._proc.wait(timeout=max(self._deadline - time.monotonic(), 0.0))
                except subprocess.TimeoutExpired:
                    code = None
                raise BridgeProcessError(f"external process closed stdout (exit code {code})")
            data += chunk
        return data


@dataclass(frozen=True)
class BridgeConfig:
    command: Sequence[str]
    timeout: float = 30.0

    def __post_init__(self):
        # select() rejects a wait longer than the platform's largest timeout
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"timeout must be > 0 and <= {threading.TIMEOUT_MAX:g} s, got {self.timeout}")
        if not self.command:
            raise ValueError("command must be non-empty")


class BridgeDenoiser:
    """Client side of the protocol; spawns and talks to the external process."""

    def __init__(self, config: BridgeConfig):
        self.config = config
        self._proc: subprocess.Popen | None = None
        self._lock = threading.Lock()
        self._start()

    def _start(self):
        try:
            self._proc = subprocess.Popen(list(self.config.command),
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as exc:
            raise BridgeProcessError(f"cannot start external process: {exc}") from exc

    def denoise(self, x: np.ndarray, sigma: float) -> np.ndarray:
        x = as_image(x)
        with self._lock:
            self._ensure_alive()
            try:
                self._proc.stdin.write(encode_request(x, sigma))
                self._proc.stdin.flush()
            except (BrokenPipeError, OSError) as exc:
                raise BridgeProcessError(f"external process closed stdin: {exc}") from exc
            try:
                frame = read_frame(_PipeReader(self._proc, self.config.timeout))
                if frame[0] == FRAME_REQUEST:
                    raise BridgeFrameError(f"unexpected frame type {frame[0]} from server")
            except BridgeError:
                # a partial or unread reply would answer the next request
                self._proc.kill()
                self._proc.wait()
                raise
        if frame[0] == FRAME_ERROR:
            raise BridgeRemoteError(frame[1])
        response = frame[1]
        if response.shape != x.shape:
            raise BridgeShapeError(
                f"response shape {response.shape} != request shape {x.shape}"
            )
        return response

    def _ensure_alive(self):
        if self._proc is None or self._proc.poll() is not None:
            code = None if self._proc is None else self._proc.returncode
            raise BridgeProcessError(f"external process not running (exit code {code})")

    def close(self):
        if self._proc is None:
            return
        try:
            if self._proc.stdin:
                self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
