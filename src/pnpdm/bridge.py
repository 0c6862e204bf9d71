"""Framed stdio protocol for serving the denoiser interface out-of-process.

An external program (e.g. a trained diffusion-network runner) reads request
frames on stdin and writes response frames on stdout, so learned priors plug
in without binding this package to a deep-learning stack.

Frames, little-endian throughout, carry no pixels:

* request:  magic ``PNPD``, u32 frame-type=1, f64 sigma (finite, > 0),
  u32 height, u32 width, u32 factor (1 asks for the denoiser's Tweedie
  factor d estimate/dx with the estimate, 0 does not)
* response: magic ``PNPD``, u32 frame-type=2, u32 height, u32 width,
  u32 factor-height, u32 factor-width; the factor is 0x0 when none was
  asked, else 1x1 (one value for every pixel) or height x width
* error:    magic ``PNPD``, u32 frame-type=3, u32 byte-length, UTF-8 message

The pixels sit in one shared memory file per bridge, the region: height*width
little-endian f64 values row-major from offset 0, so they cross exactly; the
factor follows them.  The client creates the file (a memfd, or an unlinked
temporary file where the platform has no memfd), hands its descriptor to the
server at start and names it in the ``PNPD_SHM_FD`` environment variable.
It writes the request image into the region before it sends the request
frame; the server overwrites it with its reply before it sends the response
frame.  The client grows the file with ``ftruncate`` to 8*height*width bytes
before a request, 16*height*width before one that asks for a factor, and
never shrinks it, so a server maps the whole file and maps it again when
``fstat`` reports it larger after a request frame.  A NaN or infinite pixel,
a bad sigma, a factor field other than 0 or 1, a factor below 0, factor
dimensions of another shape, and factor dimensions that do not answer the
request (0x0 when a factor was asked, others when it was not) are malformed.

``read_frame`` is the one decoder, for servers and client alike; the encoders
take the image's shape and raise ``ValueError`` for a frame the other side
refuses, and the client refuses a non-finite pixel before it sends anything.
``serve`` is the server loop around a denoise function.  A bridge instance
serves one request at a time; threads that share it take turns.  The timeout
covers reading the whole reply.  When it passes, or a malformed reply leaves
the two sides out of step, the client kills the server's process group, so a
wrapper command (``sh -c``, ``uv run``) goes with the child that holds its
pipes.  Every failure, a command that cannot start included, raises a
``BridgeError``; nothing restarts a server that has gone.
"""

from __future__ import annotations

import mmap
import os
import select
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import BinaryIO, Callable, Sequence

import numpy as np

from pnpdm.images import MAX_DIM, as_image
from pnpdm.prior_step import exact_tweedie, probe_tweedie

MAGIC = b"PNPD"
FRAME_REQUEST = 1
FRAME_RESPONSE = 2
FRAME_ERROR = 3
SHM_FD_ENV = "PNPD_SHM_FD"

_PREFIX = struct.Struct("<4sI")
_REQUEST = struct.Struct("<dIII")  # sigma, height, width, factor
_RESPONSE = struct.Struct("<IIII")  # height, width, factor-height, factor-width
_POLL_MAX_MS = 2**31 - 1  # poll(2) takes a C int of milliseconds


class BridgeError(RuntimeError):
    """Base class for bridge failures."""


class BridgeTimeoutError(BridgeError):
    """No complete response within the configured timeout."""


class BridgeProcessError(BridgeError):
    """External process exited or its pipes closed."""


class BridgeFrameError(BridgeError):
    """Malformed frame or pixels."""


class BridgeShapeError(BridgeError):
    """Response image dimensions differ from the request."""


class BridgeRemoteError(BridgeError):
    """Server answered with an error frame; carries its message."""


def _sigma_ok(sigma: float) -> bool:
    return 0.0 < sigma < float("inf")


def encode_request(shape: tuple[int, int], sigma: float, factor: bool = False) -> bytes:
    """The request frame for an image of ``shape``, whose pixels go through
    the region; ``factor`` asks for the Tweedie factor with the estimate."""
    sigma = float(sigma)
    if not _sigma_ok(sigma):
        raise ValueError(f"request sigma must be finite and > 0, got {sigma}")
    return (_PREFIX.pack(MAGIC, FRAME_REQUEST)
            + _REQUEST.pack(sigma, *_dims(shape, ValueError), 1 if factor else 0))


def encode_response(shape: tuple[int, int], factor_shape: tuple[int, int] = (0, 0)) -> bytes:
    """The response frame for an estimate of ``shape`` and a Tweedie factor
    of ``factor_shape``: (0, 0) for none, else (1, 1) or ``shape``."""
    shape = _dims(shape, ValueError)
    return (_PREFIX.pack(MAGIC, FRAME_RESPONSE)
            + _RESPONSE.pack(*shape, *_factor_dims(shape, factor_shape, ValueError)))


def encode_error(message: str) -> bytes:
    payload = message.encode("utf-8")
    return _PREFIX.pack(MAGIC, FRAME_ERROR) + struct.pack("<I", len(payload)) + payload


def read_frame(stream: BinaryIO):
    """Read one frame from a blocking stream; None on clean EOF at a boundary.

    Returns (FRAME_REQUEST, (height, width), sigma, factor asked: bool),
    (FRAME_RESPONSE, (height, width), (factor-height, factor-width)) or
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
        sigma, h, w, factor = _REQUEST.unpack(_read_exact(stream, _REQUEST.size))
        if not _sigma_ok(sigma):
            raise BridgeFrameError(f"request sigma {sigma} is not finite and > 0")
        if factor > 1:
            raise BridgeFrameError(f"request factor field {factor} is neither 0 nor 1")
        return FRAME_REQUEST, _dims((h, w)), sigma, factor == 1
    if frame_type == FRAME_RESPONSE:
        h, w, fh, fw = _RESPONSE.unpack(_read_exact(stream, _RESPONSE.size))
        return FRAME_RESPONSE, _dims((h, w)), _factor_dims((h, w), (fh, fw))
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


def _dims(shape: tuple[int, int],
          error: type[Exception] = BridgeFrameError) -> tuple[int, int]:
    h, w = shape
    if h < 1 or w < 1 or h > MAX_DIM or w > MAX_DIM:
        raise error(f"frame dimensions {h}x{w} out of range (1 <= side <= {MAX_DIM})")
    return shape


def _factor_dims(shape: tuple[int, int], factor_shape: tuple[int, int],
                 error: type[Exception] = BridgeFrameError) -> tuple[int, int]:
    factor_shape = tuple(factor_shape)
    if factor_shape not in ((0, 0), (1, 1), tuple(shape)):
        raise error(f"factor dimensions {factor_shape} are neither (0, 0), (1, 1) nor "
                    f"the estimate's {tuple(shape)}")
    return factor_shape


def _check_pixels(img: np.ndarray, what: str, error: type[Exception] = BridgeFrameError):
    if not np.isfinite(img).all():
        raise error(f"non-finite pixel in the {what}")


def _fill(dst: np.ndarray, src: np.ndarray, what: str,
          error: type[Exception] = BridgeFrameError):
    """Copy ``src`` into ``dst`` a block of rows at a time, checking each block
    of ``dst`` right after it is copied: the check reads it from cache, and a
    later write to ``src`` cannot change what was checked."""
    rows = max(1, (1 << 18) // (8 * src.shape[1]))
    for i in range(0, src.shape[0], rows):
        dst[i:i + rows] = src[i:i + rows]
        _check_pixels(dst[i:i + rows], what, error)


def _fill_factor(dst: np.ndarray, factor, error: type[Exception]):
    """``_fill`` for a Tweedie factor, which must be >= 0 as well."""
    _fill(dst, np.reshape(factor, dst.shape), "Tweedie factor", error)
    if dst.min() < 0:
        raise error("negative value in the Tweedie factor")


class _Region:
    """The shared pixel region of one bridge, mapped whole."""

    def __init__(self, fd: int):
        self.fd = fd
        self._map: mmap.mmap | None = None

    def values(self, count: int, grow: bool = False) -> np.ndarray:
        """A view of the region's first ``count`` f64 values; ``grow`` (the
        client's side) makes the file large enough first."""
        need = 8 * count
        size = os.fstat(self.fd).st_size
        if grow and size < need:
            os.ftruncate(self.fd, need)
            size = need
        if size < need:
            raise BridgeFrameError(f"the shared region holds {size} bytes, "
                                   f"the frame needs {need}")
        if self._map is None or len(self._map) < size:
            # a map still viewed stays open until its last view goes
            self._map = mmap.mmap(self.fd, size)
        return np.frombuffer(self._map, "<f8", count)

    def close(self):
        # unmapped now, or, while an exception's traceback still holds a
        # view, when that goes: mmap.close() would raise BufferError
        self._map = None
        os.close(self.fd)


def _region_from_env() -> _Region:
    value = os.environ.get(SHM_FD_ENV, "")
    if not value.isdigit():
        raise BridgeError(f"{SHM_FD_ENV} does not name the shared region's descriptor: "
                          f"{value!r}; the server must be started by a bridge client")
    return _Region(int(value))


def serve(denoise: Callable[[np.ndarray, float], np.ndarray]) -> int:
    """Answer request frames on stdin with ``denoise(image, sigma)`` until EOF.

    A request that asks for a factor is answered with the estimate and its
    Tweedie factor, as ``prior_refine`` would get them in process: from the
    ``denoise_with_tweedie`` of the object ``denoise`` is bound to, where it
    offers one, else from ``probe_tweedie``'s two calls, whose estimate comes
    back clipped as ``prior_refine`` clips it.  ``image`` is a view of the
    region, which the reply then overwrites; a result of another shape than
    the request's is answered with its shape and no pixels, a shape mismatch
    for the client.  A malformed request, or a region that cannot hold it,
    is answered with an error frame and ends the loop with 1; a clean EOF
    ends it with 0.  A result with a non-finite pixel, or a factor that is
    negative or not 1x1 or the estimate's shape, raises ``ValueError``.
    """
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    exact = exact_tweedie(denoise)
    region = None
    while True:
        try:
            frame = read_frame(stdin)
            if frame is None:
                return 0
            if frame[0] != FRAME_REQUEST:
                raise BridgeFrameError(f"expected a request frame, got type {frame[0]}")
            _, shape, sigma, factor = frame
            region = region or _region_from_env()
            image = region.values(shape[0] * shape[1]).reshape(shape)
            _check_pixels(image, "request")
        except (BridgeError, OSError) as exc:
            stdout.write(encode_error(str(exc)))
            stdout.flush()
            return 1
        if not factor:
            result, tweedie = denoise(image, sigma), None
        elif exact is not None:
            result, tweedie = exact(image, sigma)
        else:
            try:
                result, tweedie = probe_tweedie(denoise, image, sigma, np.empty(shape),
                                                np.empty(shape))
            except ValueError:  # the probe refuses another shape, which the reply names
                result, tweedie = as_image(denoise(image, sigma)), 1.0
                if result.shape == shape:
                    raise
        result = as_image(result)
        factor_shape = ((0, 0) if tweedie is None
                        else (1, 1) if np.ndim(tweedie) == 0 else np.shape(tweedie))
        reply = encode_response(result.shape, factor_shape)
        if result.shape == shape:  # the region holds it, and the client reads it
            n = result.size
            values = region.values(n + factor_shape[0] * factor_shape[1])
            if tweedie is not None:
                _fill_factor(values[n:].reshape(factor_shape), tweedie, ValueError)
            _fill(values[:n].reshape(shape), result, "reply", ValueError)
        stdout.write(reply)
        stdout.flush()


class _PipeReader:
    """``read_frame``'s view of a child's stdout, bounded by one deadline: a
    short read is the child closing it, reported with the exit code of the
    reaped child."""

    def __init__(self, proc: subprocess.Popen, timeout: float):
        self._proc = proc
        self._timeout = timeout
        self._deadline = time.monotonic() + timeout
        self._poll = select.poll()
        self._poll.register(proc.stdout, select.POLLIN)

    def read(self, count: int) -> bytes:
        data = b""
        while len(data) < count:
            wait = self._deadline - time.monotonic()
            if wait <= 0:
                raise BridgeTimeoutError(f"no response within {self._timeout} s")
            if not self._poll.poll(min(1e3 * wait, _POLL_MAX_MS)):
                continue
            chunk = self._proc.stdout.read(count - len(data))
            if not chunk:
                raise BridgeProcessError(
                    f"external process closed stdout (exit code {self._proc.wait()})")
            data += chunk
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
        # longer than any wait Python's threads allow (about 292 years) is a typo
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
        if hasattr(os, "memfd_create"):
            fd = os.memfd_create("pnpd-region")
        else:  # an unlinked file, which may sit on disk
            with tempfile.TemporaryFile() as file:
                fd = os.dup(file.fileno())
        self._region = _Region(fd)
        try:
            self._proc = subprocess.Popen(
                list(self.config.command), bufsize=0, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, start_new_session=True, pass_fds=(self._region.fd,),
                env=dict(os.environ, **{SHM_FD_ENV: str(self._region.fd)}))
        except OSError as exc:
            self._region.close()
            raise BridgeProcessError(f"cannot start external process: {exc}") from exc

    def denoise(self, x: np.ndarray, sigma: float) -> np.ndarray:
        """The server's estimate of the clean image, in a new array."""
        return self._round_trip(x, sigma, False)[0]

    def denoise_with_tweedie(self, x: np.ndarray,
                             sigma: float) -> tuple[np.ndarray, np.ndarray | float]:
        """``denoise``'s estimate and the Tweedie factor d estimate/dx, finite
        and >= 0, in one round trip: a float when the server sends one value,
        else a new array of x's shape."""
        return self._round_trip(x, sigma, True)

    def _round_trip(self, x: np.ndarray, sigma: float, factor: bool):
        x = as_image(x)
        n = x.size
        request = encode_request(x.shape, sigma, factor)
        with self._lock:
            self._ensure_alive()
            proc = self._proc
            try:
                region = self._region.values(2 * n if factor else n, grow=True)
            except OSError as exc:
                raise BridgeError(f"cannot grow the shared region: {exc}") from exc
            # refused before anything is sent, as the server refuses it
            _fill(region[:n].reshape(x.shape), x, "request", ValueError)
            try:
                # a request frame fits an empty pipe, so only the reply can stall
                proc.stdin.write(request)
                frame = read_frame(_PipeReader(proc, self.config.timeout))
                if frame[0] not in (FRAME_RESPONSE, FRAME_ERROR):
                    raise BridgeFrameError(f"unexpected frame type {frame[0]} from server")
                if frame[0] == FRAME_RESPONSE and (frame[2] != (0, 0)) != factor:
                    raise BridgeFrameError(f"factor dimensions {frame[2]} do not answer a "
                                           f"request {'for' if factor else 'without'} a factor")
                if frame[0] == FRAME_RESPONSE and frame[1] == x.shape:
                    # the copies are checked, so the server cannot change them later
                    estimate, tweedie = np.empty(x.shape), None
                    _fill(estimate, region[:n].reshape(x.shape), "reply")
                    if factor:
                        tweedie = np.empty(frame[2])
                        _fill_factor(tweedie, region[n:n + tweedie.size], BridgeFrameError)
            except (BridgeError, OSError) as exc:
                # a partial or unread reply would answer the next request
                _kill(proc)
                proc.wait()
                if isinstance(exc, OSError):
                    raise BridgeProcessError(f"external process closed stdin: {exc}") from exc
                raise
        if frame[0] == FRAME_ERROR:
            raise BridgeRemoteError(frame[1])
        if frame[1] != x.shape:
            raise BridgeShapeError(f"response shape {frame[1]} != request shape {x.shape}")
        if tweedie is not None and tweedie.size == 1:
            tweedie = float(tweedie[0, 0])
        return estimate, tweedie

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
        self._region.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
