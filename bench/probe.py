"""Child-process entry point of the benchmark: runs pnpdm with timing hooks.

The hooks wrap public pnpdm functions under the names their callers look them
up by (``pnpdm.cli.run_chain``, ``pnpdm.sgs.prior_refine``, ``GmmPrior.denoise``
...), so nothing in the program changes.  Modes::

    probe.py setup -- <pnpdm args>          print "ready <monotonic s>" when
                                            iteration 0 could start, then stop
    probe.py trace <spans.json> -- <pnpdm args>
    probe.py helper <spans.json> -- <pnpdm.bridge_helper args>
    probe.py calibrate <spans.json> <height> <width> <round trips> -- <command>

Span records are kept in memory and written when the process ends.  Times are
``time.monotonic()``, which is one clock for every process on the machine.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time


class _Ready(BaseException):
    """Unwinds a setup probe; BaseException passes pnpdm's error handlers."""


class Tracer:
    """Records spans (name, start, end, parent, thread, extra) per thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self.marks: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, owner, attr: str, name: str, extra=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
            record = {"id": span_id, "name": name, "start": start, "end": end,
                      "parent": parent, "thread": threading.get_ident()}
            if extra is not None:
                record.update(extra(args, result))
            self.spans.append(record)
            return result

        setattr(owner, attr, traced)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"marks": self.marks, "spans": self.spans}, fh)


def _frame_bytes(args, result):
    h, w = args[1].shape
    return {"sent": 24 + 4 * h * w, "received": 16 + 4 * h * w}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import pnpdm.cli as cli
    import pnpdm.sgs as sgs
    from pnpdm import operators
    from pnpdm.analytic import GaussianPrior, GmmPrior
    from pnpdm.bridge import BridgeDenoiser

    tracer.wrap(cli, "run_chain", "sgs.run_chain",
                extra=lambda args, result: {"samples": len(result[0])})
    tracer.wrap(sgs, "sgs_step", "sgs.sgs_step")
    tracer.wrap(sgs, "sample_conditional", "likelihood.sample_conditional")
    tracer.wrap(sgs, "prior_refine", "prior_step.prior_refine")
    tracer.wrap(cli, "data_fidelity", "likelihood.data_fidelity")
    for cls in vars(operators).values():
        if isinstance(cls, type) and issubclass(cls, operators.SvdOperator):
            for attr in ("to_spectral", "from_spectral", "out_to_spectral"):
                if attr in vars(cls):
                    tracer.wrap(cls, attr, "operators.spectral")
    tracer.wrap(GaussianPrior, "denoise", "analytic.denoise")
    tracer.wrap(GmmPrior, "denoise", "analytic.denoise")
    tracer.wrap(BridgeDenoiser, "denoise", "bridge.denoise", extra=_frame_bytes)
    tracer.wrap(BridgeDenoiser, "_start", "bridge.spawn")
    tracer.wrap(cli, "read_image", "images.read_image")
    tracer.wrap(cli, "write_image", "images.write_image", extra=_file_bytes)
    tracer.wrap(cli, "psnr", "metrics.psnr")
    tracer.wrap(cli, "ssim", "metrics.ssim")


def _setup(argv: list[str]) -> int:
    import pnpdm.cli as cli
    from pnpdm.bridge import BridgeDenoiser

    ready: list[float] = []

    def stop_at_iteration_zero(model, denoise, schedule, sde, cfg, x_init, callback=None):
        if not ready:
            if isinstance(getattr(denoise, "__self__", None), BridgeDenoiser):
                denoise(x_init, schedule.rho0)  # first round trip
            ready.append(time.monotonic())
        raise _Ready

    cli.run_chain = stop_at_iteration_zero
    try:
        code = cli.main(argv)
    except _Ready:
        code = 0
    if not ready:
        return code or 2
    print(f"ready {ready[0]!r}", flush=True)
    return 0


def _trace(path: str, argv: list[str]) -> int:
    import pnpdm.cli as cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.write(path)


def _helper(path: str, argv: list[str]) -> int:
    from pnpdm import bridge_helper
    from pnpdm.analytic import GaussianPrior

    tracer = Tracer()
    tracer.wrap(GaussianPrior, "denoise", "analytic.denoise")
    tracer.marks["ready"] = time.monotonic()
    try:
        return bridge_helper.serve(argv)
    finally:
        tracer.write(path)


def _calibrate(path: str, height: int, width: int, trips: int, command: list[str]) -> int:
    import numpy as np
    from pnpdm.bridge import BridgeConfig, BridgeDenoiser

    tracer = Tracer()
    tracer.wrap(BridgeDenoiser, "denoise", "bridge.denoise", extra=_frame_bytes)
    tracer.wrap(BridgeDenoiser, "_start", "bridge.spawn")
    frame = np.random.default_rng(0).random((height, width))
    try:
        with BridgeDenoiser(BridgeConfig(command=command)) as bridge:
            for _ in range(trips):
                bridge.denoise(frame, 0.1)
    finally:
        tracer.write(path)
    return 0


def main(argv: list[str]) -> int:
    split = argv.index("--")
    head, rest = argv[:split], argv[split + 1:]
    mode = head[0]
    if mode == "setup":
        return _setup(rest)
    if mode == "trace":
        return _trace(head[1], rest)
    if mode == "helper":
        return _helper(head[1], rest)
    if mode == "calibrate":
        return _calibrate(head[1], int(head[2]), int(head[3]), int(head[4]), rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
