"""Framed stdio denoiser protocol: codec, shared region, loopback, fault injection."""

import io
import os
import re
import shlex
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pnpdm.analytic import GaussianPrior, GmmPrior
from pnpdm.bridge import (
    FRAME_ERROR,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    MAGIC,
    BridgeConfig,
    BridgeDenoiser,
    BridgeFrameError,
    BridgeProcessError,
    BridgeRemoteError,
    BridgeShapeError,
    BridgeTimeoutError,
    SHM_FD_ENV,
    encode_error,
    encode_request,
    encode_response,
    read_frame,
)
from pnpdm.images import MAX_DIM
from pnpdm.likelihood import LikelihoodModel
from pnpdm.operators import SvdOperator
from pnpdm.prior_step import SdeConfig, prior_refine
from pnpdm.sgs import AnnealSchedule, RunConfig, initialize, run_chain

HELPER = [sys.executable, "-m", "pnpdm.bridge_helper"]


def _server(script: str) -> list[str]:
    return [sys.executable, "-c", script]


def test_request_frame_round_trip():
    assert encode_request((3, 5), 0.25) == encode_request((3, 5), 0.25, factor=False)
    for factor in (False, True):
        request = encode_request((3, 5), 0.25, factor)
        assert len(request) == 28  # the pixels go through the region
        assert read_frame(io.BytesIO(request)) == (FRAME_REQUEST, (3, 5), 0.25, factor)


def test_response_and_error_frame_round_trip():
    assert encode_response((4, 2)) == encode_response((4, 2), (0, 0))
    for factor_shape in [(0, 0), (1, 1), (4, 2)]:
        frame = encode_response((4, 2), factor_shape)
        assert len(frame) == 24
        assert read_frame(io.BytesIO(frame)) == (FRAME_RESPONSE, (4, 2), factor_shape)
    kind, message = read_frame(io.BytesIO(encode_error("denoiser busted")))
    assert kind == FRAME_ERROR
    assert message == "denoiser busted"


@pytest.mark.parametrize("frame,golden", [
    (encode_request((3, 5), 0.25), "504e5044 01000000 000000000000d03f 03000000 05000000 00000000"),
    (encode_request((3, 5), 0.25, True),
     "504e5044 01000000 000000000000d03f 03000000 05000000 01000000"),
    (encode_response((3, 5)), "504e5044 02000000 03000000 05000000 00000000 00000000"),
    (encode_response((3, 5), (1, 1)), "504e5044 02000000 03000000 05000000 01000000 01000000"),
    (encode_response((3, 5), (3, 5)), "504e5044 02000000 03000000 05000000 03000000 05000000"),
    (encode_error("no model"), "504e5044 03000000 08000000 6e6f206d6f64656c"),
], ids=["request", "factor-request", "response", "scalar-factor-response",
        "pixel-factor-response", "error"])
def test_frames_have_the_documented_bytes(frame, golden):
    """The exact bytes a server written in any language reads and writes: a
    round trip cannot see a layout change made in the encoder and the
    decoder together."""
    assert frame == bytes.fromhex(golden)


@pytest.mark.parametrize("encode", [
    lambda shape: encode_request(shape, 0.25),
    lambda shape: encode_request(shape, 0.25, factor=True),
    encode_response,
    lambda shape: encode_response(shape, shape),
], ids=["request", "factor-request", "response", "factor-response"])
def test_encoders_refuse_what_read_frame_refuses(encode):
    frame = read_frame(io.BytesIO(encode((MAX_DIM, 1))))
    assert frame[1] == (MAX_DIM, 1)
    for shape in [(MAX_DIM + 1, 1), (1, MAX_DIM + 1)]:
        with pytest.raises(ValueError, match=f"<= {MAX_DIM}"):
            encode(shape)


@pytest.mark.parametrize("factor_shape", [(1, 5), (3, 1), (5, 3), (2, 2), (0, 5), (3, 0)])
def test_factor_dims_are_one_by_one_or_the_estimates(factor_shape):
    with pytest.raises(ValueError, match="neither"):
        encode_response((3, 5), factor_shape)
    frame = MAGIC + struct.pack("<5I", FRAME_RESPONSE, 3, 5, *factor_shape)
    with pytest.raises(BridgeFrameError, match="neither"):
        read_frame(io.BytesIO(frame))


@pytest.mark.parametrize("field", [2, 2**32 - 1])
def test_request_factor_field_is_zero_or_one(field):
    """Any other factor field is a malformed request: ``read_frame`` refuses
    it, and a server answers it with an error frame."""
    request = MAGIC + struct.pack("<IdIII", FRAME_REQUEST, 0.1, 2, 2, field)
    with pytest.raises(BridgeFrameError, match=f"factor field {field} is neither 0 nor 1"):
        read_frame(io.BytesIO(request))
    proc = subprocess.run(HELPER, input=request, stdout=subprocess.PIPE, timeout=30)
    assert proc.returncode == 1
    assert read_frame(io.BytesIO(proc.stdout)) == (
        FRAME_ERROR, f"request factor field {field} is neither 0 nor 1")


def test_client_refuses_a_non_finite_image_before_sending():
    """A NaN or infinite pixel raises ``ValueError`` and sends no frame: the
    server fills each answer with the number of requests it has seen, and
    its first answer is to the request after them."""
    script = ("import itertools\nimport numpy as np\nfrom pnpdm.bridge import serve\n"
              "seen = itertools.count(1)\n"
              "serve(lambda image, sigma: np.full_like(image, next(seen)))\n")
    with BridgeDenoiser(BridgeConfig(command=_server(script), timeout=20.0)) as bridge:
        for img in (np.full((2, 2), np.nan), np.array([[0.0, np.inf]])):
            for call in (bridge.denoise, bridge.denoise_with_tweedie):
                with pytest.raises(ValueError, match="non-finite pixel in the request"):
                    call(img, 0.1)
        # inf as f32, but pixels cross as f64
        assert np.array_equal(bridge.denoise(np.array([[0.0, 1e39]]), 0.1), [[1.0, 1.0]])


@pytest.mark.parametrize("transpose,reply", [(True, "image"),
                                             (False, "np.asfortranarray(image)")],
                         ids=["request", "response"])
def test_transposed_image_encodes_as_its_c_ordered_copy(transpose, reply):
    """A Fortran-ordered image, sent by the client or returned by the
    server's denoiser, enters the region as its row-major copy."""
    img = np.random.default_rng(2).standard_normal((5, 7))
    sent = img.T if transpose else img
    script = ("import numpy as np\nfrom pnpdm.bridge import serve\n"
              f"serve(lambda image, sigma: {reply})\n")
    with BridgeDenoiser(BridgeConfig(command=_server(script), timeout=20.0)) as bridge:
        assert np.array_equal(bridge.denoise(sent, 0.25), sent)


def test_read_frame_eof_and_truncation():
    assert read_frame(io.BytesIO(b"")) is None
    with pytest.raises(BridgeFrameError):
        read_frame(io.BytesIO(MAGIC))  # partial prefix
    with pytest.raises(BridgeFrameError):
        read_frame(io.BytesIO(b"XXXX" + b"\x01\x00\x00\x00"))
    for frame_type in (4, 5, 99):  # 4 and 5 were the factor request and response
        with pytest.raises(BridgeFrameError, match=f"unknown frame type {frame_type}"):
            read_frame(io.BytesIO(MAGIC + struct.pack("<5I", frame_type, 3, 5, 1, 1)))
    truncated = encode_response((4, 4))[:-6]
    with pytest.raises(BridgeFrameError):
        read_frame(io.BytesIO(truncated))
    for h, w in [(0, 1), (1, MAX_DIM + 1)]:
        with pytest.raises(BridgeFrameError, match="out of range"):
            read_frame(io.BytesIO(MAGIC + struct.pack("<5I", FRAME_RESPONSE, h, w, 0, 0)))


def test_config_validation():
    with pytest.raises(ValueError):
        BridgeConfig(command=["x"], timeout=0.0)
    with pytest.raises(ValueError):
        BridgeConfig(command=[])


def test_echo_loopback():
    img = np.random.default_rng(2).random((6, 7))
    with BridgeDenoiser(BridgeConfig(command=HELPER + ["--prior", "echo"],
                                     timeout=20.0)) as bridge:
        out = bridge.denoise(img, 0.5)
        assert np.array_equal(out, img)
        # repeated round trips over the same process
        out2 = bridge.denoise(img * 2.0 - 0.5, 0.1)
        assert np.array_equal(out2, img * 2.0 - 0.5)


def test_gaussian_helper_matches_in_process_prior():
    prior = GaussianPrior(mean=0.3, variance=0.02)
    img = np.random.default_rng(3).random((8, 8))
    command = HELPER + ["--prior", "gaussian", "--mean", "0.3", "--variance", "0.02"]
    with BridgeDenoiser(BridgeConfig(command=command, timeout=20.0)) as bridge:
        for sigma in (0.05, 0.3, 1.0):
            out = bridge.denoise(img, sigma)
            assert np.array_equal(out, prior.denoise(img, sigma))


def test_region_grows_between_requests():
    """The server maps the region at its first request; a larger request
    grows the file after that, and a smaller one uses its start: for plain
    requests, then for factor requests through a second bridge.  The
    helper's Gaussian prior sends its factor as one value, a float."""
    prior = GaussianPrior(mean=0.3, variance=0.02)
    rng = np.random.default_rng(6)
    command = HELPER + ["--prior", "gaussian", "--mean", "0.3", "--variance", "0.02"]
    with BridgeDenoiser(BridgeConfig(command=command, timeout=20.0)) as bridge:
        for shape in [(8, 8), (64, 48), (8, 8)]:
            img = rng.random(shape)
            assert np.array_equal(bridge.denoise(img, 0.1), prior.denoise(img, 0.1))
    with BridgeDenoiser(BridgeConfig(command=command, timeout=20.0)) as bridge:
        for shape in [(8, 8), (64, 48), (8, 8)]:
            img = rng.random(shape)
            estimate, tweedie = bridge.denoise_with_tweedie(img, 0.1)
            want_estimate, want_tweedie = prior.denoise_with_tweedie(img, 0.1)
            assert np.array_equal(estimate, want_estimate)
            assert type(tweedie) is float and tweedie == want_tweedie


def test_results_never_alias_the_region():
    """Each reply is copied out of the region before its pixels are checked,
    so a later round trip leaves an earlier result as it was."""
    first, second = np.random.default_rng(7).random((2, 6, 7))
    with BridgeDenoiser(BridgeConfig(command=HELPER + ["--prior", "echo"],
                                     timeout=20.0)) as bridge:
        out = bridge.denoise(first, 0.1)
        bridge.denoise(second, 0.1)
    assert np.array_equal(out, first)


def test_loopback_through_a_shell_wrapper():
    """The region's descriptor and its environment variable reach a server
    started behind ``sh -c``."""
    prior = GaussianPrior(mean=0.3, variance=0.02)
    img = np.random.default_rng(8).random((9, 4))
    helper = HELPER + ["--prior", "gaussian", "--mean", "0.3", "--variance", "0.02"]
    command = ["sh", "-c", shlex.join(helper)]
    with BridgeDenoiser(BridgeConfig(command=command, timeout=20.0)) as bridge:
        assert np.array_equal(bridge.denoise(img, 0.2), prior.denoise(img, 0.2))


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc")
def test_close_releases_descriptors_and_mapping():
    before = len(os.listdir("/proc/self/fd"))
    bridge = BridgeDenoiser(BridgeConfig(command=HELPER, timeout=20.0))
    bridge.denoise(np.zeros((32, 32)), 0.1)
    assert "pnpd-region" in Path("/proc/self/maps").read_text()
    bridge.close()
    assert len(os.listdir("/proc/self/fd")) <= before
    assert "pnpd-region" not in Path("/proc/self/maps").read_text()


def test_region_without_memfd(monkeypatch):
    """Where ``os.memfd_create`` is missing the region is a temporary file."""
    monkeypatch.delattr(os, "memfd_create")
    img = np.random.default_rng(9).random((5, 3))
    with BridgeDenoiser(BridgeConfig(command=HELPER + ["--prior", "echo"],
                                     timeout=20.0)) as bridge:
        assert "memfd" not in os.readlink(f"/proc/self/fd/{bridge._region.fd}")
        assert np.array_equal(bridge.denoise(img, 0.1), img)


def test_helper_without_region_answers_with_error_frame():
    env = {k: v for k, v in os.environ.items() if k != SHM_FD_ENV}
    proc = subprocess.run(HELPER, input=encode_request((2, 2), 0.1),
                          stdout=subprocess.PIPE, env=env, timeout=30)
    assert proc.returncode == 1
    kind, message = read_frame(io.BytesIO(proc.stdout))
    assert kind == FRAME_ERROR
    assert SHM_FD_ENV in message


def test_dead_process_raises_process_error():
    with BridgeDenoiser(BridgeConfig(command=HELPER, timeout=20.0)) as bridge:
        bridge.denoise(np.zeros((2, 2)), 0.1)
        bridge._proc.kill()
        bridge._proc.wait()
        with pytest.raises(BridgeProcessError):
            bridge.denoise(np.zeros((2, 2)), 0.1)


def test_dead_server_reports_its_exit_code():
    """A server that exits before replying is reaped before the error names
    its exit code, so the code is never reported as None."""
    script = "import sys\nsys.stdin.buffer.read(8)\nsys.exit(7)\n"
    for _ in range(10):
        with BridgeDenoiser(BridgeConfig(command=_server(script), timeout=20.0)) as bridge:
            with pytest.raises(BridgeProcessError, match=r"exit code 7\)"):
                bridge.denoise(np.zeros((2, 2)), 0.1)


def test_command_that_cannot_start_raises_process_error(tmp_path):
    with pytest.raises(BridgeProcessError, match="cannot start"):
        BridgeDenoiser(BridgeConfig(command=[str(tmp_path / "missing-denoiser")]))


def test_garbage_output_raises_frame_error():
    script = (
        "import os, sys\n"
        "os.write(1, b'not a frame at all' * 4)\n"
        "sys.stdin.buffer.read()\n"
    )
    with BridgeDenoiser(BridgeConfig(command=_server(script), timeout=20.0)) as bridge:
        with pytest.raises(BridgeFrameError):
            bridge.denoise(np.zeros((2, 2)), 0.1)


def test_slow_server_raises_timeout_error():
    command = HELPER + ["--delay", "5"]
    with BridgeDenoiser(BridgeConfig(command=command, timeout=0.4)) as bridge:
        with pytest.raises(BridgeTimeoutError):
            bridge.denoise(np.zeros((2, 2)), 0.1)


_STALLED_CLIENT = """
import sys, time
import numpy as np
from pnpdm.bridge import BridgeConfig, BridgeDenoiser
with BridgeDenoiser(BridgeConfig(command=sys.argv[1:], timeout=1.0)) as bridge:
    for _ in range(2):
        start = time.monotonic()
        try:
            bridge.denoise(np.zeros((256, 256)), 0.1)
        except Exception as exc:
            print(type(exc).__name__, time.monotonic() - start)
"""


@pytest.mark.parametrize("server", [
    _server("import time; time.sleep(60)"),
    # behind a shell wrapper the server that holds the pipes is a grandchild,
    # so killing only the shell would leave the reply read blocked
    ["sh", "-c", shlex.join(_server("import sys; sys.stdin.buffer.read()")) + "; :"],
], ids=["never-reads", "wrapped-never-replies"])
def test_timeout_ends_a_stalled_round_trip(server):
    """Neither a server that never reads stdin nor a wrapped server that
    never replies answers; the timeout ends the blocked reply read, and the
    killed server stays dead.  The client runs in a subprocess, so a hang
    fails the test."""
    proc = subprocess.run([sys.executable, "-c", _STALLED_CLIENT, *server], capture_output=True,
                          text=True, timeout=30)
    (first, elapsed), (second, _) = [line.split() for line in proc.stdout.splitlines()]
    assert first == "BridgeTimeoutError" and float(elapsed) < 3.0
    assert second == "BridgeProcessError"


def test_timeout_stops_server_so_late_reply_is_not_read():
    """The late reply to a timed-out request must not answer the next one."""
    command = HELPER + ["--prior", "echo", "--delay", "0.5"]
    with BridgeDenoiser(BridgeConfig(command=command, timeout=0.4)) as bridge:
        with pytest.raises(BridgeTimeoutError):
            bridge.denoise(np.full((2, 2), 1.0), 0.1)
        with pytest.raises(BridgeProcessError):
            bridge.denoise(np.full((2, 2), 2.0), 0.1)


_REPLY_PRELUDE = (
    "import mmap, os, struct, sys, time\n"
    "import numpy as np\n"
    "from pnpdm.bridge import encode_request, encode_response, read_frame\n"
    "_, shape, sigma, _ = read_frame(sys.stdin.buffer)\n"
    "region = mmap.mmap(int(os.environ['PNPD_SHM_FD']), 0)\n"
    "img = np.frombuffer(region, '<f8', shape[0] * shape[1]).reshape(shape)\n"
    "def raw_response(img):\n"
    "    return b'PNPD' + struct.pack('<5I', 2, *img.shape, 0, 0)\n"
)


@pytest.mark.parametrize("reply,error", [
    ("data = encode_response(img.shape)\n"
     "for piece in (data[:3], data[3:13], data[13:]):\n"
     "    os.write(1, piece)\n"
     "    time.sleep(0.05)\n"
     "sys.stdin.buffer.read()\n", None),
    ("os.write(1, encode_request(img.shape, sigma))\n"
     "sys.stdin.buffer.read()\n", BridgeFrameError),
    ("os.write(1, b'PNPD' + (3).to_bytes(4, 'little') + (2 << 20).to_bytes(4, 'little'))\n"
     "sys.stdin.buffer.read()\n", BridgeFrameError),
    ("os.write(1, b'PNPD' + (2).to_bytes(4, 'little'))\n", BridgeProcessError),
    ("img[1, 2] = float('inf')\n"
     "os.write(1, raw_response(img))\n"
     "sys.stdin.buffer.read()\n", BridgeFrameError),
    ("while shape is not None:\n"
     "    img *= float('nan')\n"
     "    os.write(1, raw_response(img))\n"
     "    shape = (read_frame(sys.stdin.buffer) or (None, None))[1]\n", BridgeFrameError),
    ("os.write(1, encode_response(img.shape, (1, 1)))\n"
     "sys.stdin.buffer.read()\n", BridgeFrameError),
], ids=["response-in-pieces", "request-frame", "oversized-error", "exit-after-prefix",
        "inf-response", "nan-replies", "factor-dims"])
def test_client_decodes_replies(reply, error):
    """Each faulty reply to a plain request, factor dimensions included,
    raises its error; a frame error leaves the server killed."""
    img = np.random.default_rng(4).random((3, 5))
    config = BridgeConfig(command=_server(_REPLY_PRELUDE + reply), timeout=20.0)
    with BridgeDenoiser(config) as bridge:
        if error is None:
            assert np.array_equal(bridge.denoise(img, 0.1), img)
        else:
            with pytest.raises(error):
                bridge.denoise(img, 0.1)
            if error is BridgeFrameError:
                assert bridge._proc.returncode == -signal.SIGKILL


_FACTOR_PRELUDE = (
    "import mmap, os, sys\n"
    "import numpy as np\n"
    "from pnpdm.bridge import read_frame\n"
    "_, shape, sigma, _ = read_frame(sys.stdin.buffer)\n"
    "n = shape[0] * shape[1]\n"
    "values = np.frombuffer(mmap.mmap(int(os.environ['PNPD_SHM_FD']), 0), '<f8')\n"
)


@pytest.mark.parametrize("factor,header,error", [
    ("0.5", "2, *shape, 1, 1", None),
    ("np.linspace(0.0, 2.0, n)", "2, *shape, *shape", None),
    ("float('nan')", "2, *shape, 1, 1", "non-finite"),
    ("float('inf')", "2, *shape, 1, 1", "non-finite"),
    ("-1e-300", "2, *shape, 1, 1", "negative"),
    ("np.where(np.arange(n) == 7, np.nan, 0.5)", "2, *shape, *shape", "non-finite"),
    ("np.where(np.arange(n) == 7, -0.5, 0.5)", "2, *shape, *shape", "negative"),
    ("0.5", "2, *shape, 1, shape[1]", "neither"),
    ("0.5", "2, *shape, *shape[::-1]", "neither"),
    ("0.5", "2, *shape, 0, 0", r"dimensions \(0, 0\) do not answer a request for a factor"),
], ids=["scalar", "per-pixel", "nan", "inf", "negative", "nan-pixel", "negative-pixel",
        "row-dims", "transposed-dims", "plain-response"])
def test_client_checks_factor_replies(factor, header, error):
    """The server echoes the image and writes ``factor`` after it.  A factor
    that is not finite and >= 0, or factor dims neither 1x1 nor the image's
    (0x0 included) is a frame error, and the client kills the server."""
    img = np.random.default_rng(5).random((3, 5))
    script = (_FACTOR_PRELUDE + f"values[n:2 * n] = {factor}\n"
              f"os.write(1, b'PNPD' + np.array([{header}], '<u4').tobytes())\n"
              "sys.stdin.buffer.read()\n")
    with BridgeDenoiser(BridgeConfig(command=_server(script), timeout=20.0)) as bridge:
        if error is None:
            estimate, tweedie = bridge.denoise_with_tweedie(img, 0.1)
            assert np.array_equal(estimate, img)
            if np.ndim(tweedie):
                assert np.array_equal(tweedie, np.linspace(0.0, 2.0, img.size).reshape(3, 5))
            else:
                assert tweedie == 0.5
        else:
            with pytest.raises(BridgeFrameError, match=error):
                bridge.denoise_with_tweedie(img, 0.1)
            assert bridge._proc.returncode == -signal.SIGKILL


_GMM = {"weights": [0.6, 0.4], "means": [0.2, 0.6], "variances": [0.002, 0.003]}
_GMM_SERVER = (
    "import numpy as np\nfrom pnpdm.analytic import GmmPrior\nfrom pnpdm.bridge import serve\n"
    f"prior = GmmPrior(**{{k: np.array(v) for k, v in {_GMM!r}.items()}})\n"
)


@pytest.mark.parametrize("served", ["helper-gaussian", "gmm", "gmm-lambda"])
def test_bridged_chain_equals_in_process_chain(served):
    """A chain run through the bridge gives the in-process chain's bits: the
    helper's Gaussian sends a 1x1 factor, ``serve(prior.denoise)`` with a
    mixture an h x w one, and a plain function's server the factor of the
    probe that ``prior_refine`` runs for that function in process."""
    if served == "helper-gaussian":
        denoise = GaussianPrior(mean=0.45, variance=0.09).denoise
        command = HELPER + ["--prior", "gaussian", "--mean", "0.45", "--variance", "0.09"]
    else:
        prior = GmmPrior(**{k: np.array(v) for k, v in _GMM.items()})
        denoise = prior.denoise
        script = _GMM_SERVER + "serve(prior.denoise)\n"
        if served == "gmm-lambda":
            denoise = lambda x, sigma: prior.denoise(x, sigma)  # noqa: E731
            script = _GMM_SERVER + "serve(lambda x, sigma: prior.denoise(x, sigma))\n"
        command = _server(script)
    op = SvdOperator(2, 16, 12)
    model = LikelihoodModel(operator=op, noise_sigma=0.05,
                            measurement=np.random.default_rng(9).random(op.out_shape))
    run = (AnnealSchedule(rho0=1.0, rho_min=0.1), SdeConfig(num_steps=4, sigma_floor=0.01),
           RunConfig(iterations=6, burn_in=2, seed=5), initialize(model))
    want, _ = run_chain(model, denoise, *run)
    with BridgeDenoiser(BridgeConfig(command=command, timeout=20.0)) as bridge:
        got, _ = run_chain(model, bridge.denoise, *run)
    assert len(got) == len(want) == 4
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_refine_makes_one_round_trip_per_step(tmp_path):
    """A 4-step refine through the bridge is 4 factor requests, answered by
    the server's ``denoise_with_tweedie``, and 1 request for the final jump."""
    script = (
        "import sys\n"
        "from pnpdm.analytic import GaussianPrior\nfrom pnpdm.bridge import serve\n"
        "class Counting:\n"
        "    prior, seen = GaussianPrior(mean=0.5, variance=0.04), []\n"
        "    def denoise(self, x, sigma):\n"
        "        self.seen.append('denoise')\n"
        "        return self.prior.denoise(x, sigma)\n"
        "    def denoise_with_tweedie(self, x, sigma):\n"
        "        self.seen.append('factor')\n"
        "        return self.prior.denoise_with_tweedie(x, sigma)\n"
        "owner = Counting()\n"
        "serve(owner.denoise)\n"
        "open(sys.argv[1], 'w').write(' '.join(owner.seen))\n"
    )
    seen = tmp_path / "seen.txt"
    with BridgeDenoiser(BridgeConfig(command=_server(script) + [str(seen)],
                                     timeout=20.0)) as bridge:
        prior_refine(np.full((6, 4), 0.3), 0.6, bridge.denoise,
                     SdeConfig(num_steps=4, sigma_floor=0.02), np.random.default_rng(0))
    assert seen.read_text().split() == ["factor"] * 4 + ["denoise"]


def test_error_frame_raises_remote_error():
    script = (
        "import sys, time\n"
        "from pnpdm.bridge import read_frame, encode_error\n"
        "read_frame(sys.stdin.buffer)\n"
        "sys.stdout.buffer.write(encode_error('no model loaded'))\n"
        "sys.stdout.buffer.flush()\n"
        "time.sleep(5)\n"
    )
    with BridgeDenoiser(BridgeConfig(command=_server(script), timeout=20.0)) as bridge:
        with pytest.raises(BridgeRemoteError, match="no model loaded"):
            bridge.denoise(np.zeros((2, 2)), 0.1)


@pytest.mark.parametrize("result,factor,served", [
    ("image[:4]", False, "Reshaping().denoise"),
    ("np.tile(image, (2, 1))", False, "Reshaping().denoise"),
    ("image[:4]", True, "Reshaping().denoise"),
    ("np.tile(image, (2, 1))", True, "Reshaping().denoise"),
    ("image[:4]", True, "reshape"),
    ("np.tile(image, (2, 1))", True, "reshape"),
], ids=["smaller", "larger", "factor-smaller", "factor-larger",
        "plain-factor-smaller", "plain-factor-larger"])
def test_shape_mismatch_raises_shape_error(result, factor, served):
    """A served result of another shape than the request's, smaller or
    larger than the region, is answered with its shape and no pixels: a
    shape error that keeps the server, so the next call reaches it.  That
    holds for a plain function too, whose factor the server probes.  The
    server reshapes only at sigma 0.5."""
    script = (
        "import numpy as np\nfrom pnpdm.bridge import serve\n"
        "class Reshaping:\n"
        "    def denoise(self, image, sigma):\n"
        f"        return {result} if sigma == 0.5 else image\n"
        "    def denoise_with_tweedie(self, image, sigma):\n"
        "        return self.denoise(image, sigma), 0.25\n"
        f"reshape = lambda image, sigma: {result} if sigma == 0.5 else image\n"
        f"serve({served})\n"
    )
    img = np.random.default_rng(10).random((8, 8))
    with BridgeDenoiser(BridgeConfig(command=_server(script), timeout=20.0)) as bridge:
        call = bridge.denoise_with_tweedie if factor else bridge.denoise
        want = (4, 8) if result == "image[:4]" else (16, 8)
        with pytest.raises(BridgeShapeError, match=re.escape(f"response shape {want}")):
            call(img, 0.5)
        got = call(img, 0.1)
        assert np.array_equal(got[0] if factor else got, img)


@pytest.mark.parametrize("factor,served", [
    (False, "Failing().denoise"),
    (True, "Failing().denoise"),
    (True, "fail"),
], ids=["plain", "exact", "probe"])
def test_denoiser_exception_raises_remote_error(factor, served, capfd):
    """An exception from the served function, from its owner's
    ``denoise_with_tweedie`` or from the probe's calls is answered with an
    error frame naming its type and message: a remote error that keeps the
    server, so the next call reaches it.  The server logs the traceback on
    its stderr.  It fails only at sigma 0.5."""
    script = (
        "from pnpdm.bridge import serve\n"
        "def fail(image, sigma):\n"
        "    if sigma == 0.5:\n"
        "        raise RuntimeError('model OOM')\n"
        "    return image\n"
        "class Failing:\n"
        "    def denoise(self, image, sigma):\n"
        "        return fail(image, sigma)\n"
        "    def denoise_with_tweedie(self, image, sigma):\n"
        "        return fail(image, sigma), 0.25\n"
        f"serve({served})\n"
    )
    img = np.random.default_rng(11).random((8, 8))
    with BridgeDenoiser(BridgeConfig(command=_server(script), timeout=20.0)) as bridge:
        call = bridge.denoise_with_tweedie if factor else bridge.denoise
        for sigma in (0.1, 0.5, 0.1):
            if sigma == 0.5:
                with pytest.raises(BridgeRemoteError, match="^RuntimeError: model OOM$"):
                    call(img, sigma)
            else:
                got = call(img, sigma)
                assert np.array_equal(got[0] if factor else got, img)
        assert bridge._proc.poll() is None
    err = capfd.readouterr().err
    assert "Traceback" in err and "RuntimeError: model OOM" in err


def test_helper_rejects_non_request_frame():
    proc = subprocess.run(
        HELPER,
        input=encode_response((2, 2)),
        stdout=subprocess.PIPE,
        timeout=30,
    )
    assert proc.returncode == 1
    kind, message = read_frame(io.BytesIO(proc.stdout))
    assert kind == FRAME_ERROR
    assert "request" in message


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1, 0.0])
def test_request_sigma_must_be_finite_and_positive(sigma):
    with pytest.raises(ValueError, match="sigma"):
        encode_request((2, 2), sigma)
    # so the frame is made by hand
    request = MAGIC + struct.pack("<IdIII", FRAME_REQUEST, sigma, 2, 2, 0)
    with pytest.raises(BridgeFrameError, match="sigma"):
        read_frame(io.BytesIO(request))
    proc = subprocess.run(HELPER + ["--prior", "gaussian"], input=request,
                          stdout=subprocess.PIPE, timeout=30)
    assert proc.returncode == 1
    kind, message = read_frame(io.BytesIO(proc.stdout))
    assert kind == FRAME_ERROR
    assert "sigma" in message
