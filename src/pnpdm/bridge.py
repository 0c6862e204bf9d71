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
``read_frame`` is the one decoder, for servers and client alike; the encoders
raise ``ValueError`` for what it refuses, as ``write_image`` does.  A bridge
instance serves one request at a time; threads that share it take turns.  The
timeout covers the whole round trip, sending the request and reading the
reply.  When it passes, or a malformed reply leaves the stream out of step,
the client kills the server's process group, so a wrapper command (``sh -c``,
``uv run``) goes with the child that holds its pipes.  Every failure, a
command that cannot start included, raises a ``BridgeError``; nothing
restarts a server that has gone.
"""

from __future__ import annotations

import os
import signal
import struct
import subprocess
import threading
from dataclasses import dataclass
from typing import BinaryIO, Sequence

import numpy as np

from pnpdm.images import MAX_DIM, as_image, encodable_pixels

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


def _sigma_ok(sigma: float) -> bool:
    return 0.0 < sigma < float("inf")


def encode_request(x: np.ndarray, sigma: float) -> bytes:
    sigma = float(sigma)
    if not _sigma_ok(sigma):
        raise ValueError(f"request sigma must be finite and > 0, got {sigma}")
    pixels = encodable_pixels(x)
    return (_PREFIX.pack(MAGIC, FRAME_REQUEST) + struct.pack("<d", sigma)
            + _DIMS.pack(*pixels.shape) + memoryview(pixels).cast("B"))


def encode_response(img: np.ndarray) -> bytes:
    pixels = encodable_pixels(img)
    return (_PREFIX.pack(MAGIC, FRAME_RESPONSE) + _DIMS.pack(*pixels.shape)
            + memoryview(pixels).cast("B"))


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
        if not _sigma_ok(sigma):
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
    """``read_frame``'s view of a child's stdout: a short read is the child
    closing it, reported with the exit code of the reaped child."""

    def __init__(self, proc: subprocess.Popen):
        self._proc = proc

    def read(self, count: int) -> bytes:
        data = self._proc.stdout.read(count)
        if len(data) < count:
            raise BridgeProcessError(
                f"external process closed stdout (exit code {self._proc.wait()})")
        return data


def _kill(proc: subprocess.Popen):
    """Kill the server's process group: a wrapper's child holds the pipes too."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # the group is gone already
        pass


@dataclass(frozen=True)
class BridgeConfig:
    command: Sequence[str]
    timeout: float = 30.0

    def __post_init__(self):
        # the watchdog's timer, like any lock wait, rejects a longer timeout
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
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                          start_new_session=True)
        except OSError as exc:
            raise BridgeProcessError(f"cannot start external process: {exc}") from exc

    def denoise(self, x: np.ndarray, sigma: float) -> np.ndarray:
        x = as_image(x)
        with self._lock:
            self._ensure_alive()
            proc = self._proc
            expired = threading.Event()
            # one deadline per round trip: the kill ends a blocked write or read
            watchdog = threading.Timer(self.config.timeout, lambda: (expired.set(), _kill(proc)))
            watchdog.start()
            try:
                try:
                    # unbound, so the request is freed before the reply is read:
                    # holding it made a 1024² round trip about half again slower
                    proc.stdin.write(encode_request(x, sigma))
                    proc.stdin.flush()
                    frame = read_frame(_PipeReader(proc))
                finally:
                    watchdog.cancel()
                    watchdog.join()  # no kill lands after this line
                if frame[0] == FRAME_REQUEST:
                    raise BridgeFrameError(f"unexpected frame type {frame[0]} from server")
            except (BridgeError, OSError) as exc:
                # a partial or unread reply would answer the next request
                _kill(proc)
                proc.wait()
                if expired.is_set():
                    raise BridgeTimeoutError(
                        f"no response within {self.config.timeout} s") from exc
                if isinstance(exc, OSError):
                    raise BridgeProcessError(f"external process closed stdin: {exc}") from exc
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
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            _kill(self._proc)
            self._proc.wait()
        self._proc.stdout.close()
        self._proc = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
