"""Reference denoiser server for the bridge protocol.

Used by the tests and the benchmark to exercise the bridge without external
dependencies; a bridge client starts it, because it serves pixels through
the region the client shares with it::

    python -m pnpdm.bridge_helper --prior gaussian --mean 0.5 --variance 0.04
    python -m pnpdm.bridge_helper --prior echo

The Gaussian prior is served as its bound ``denoise``, so a factor request
gets the exact scalar gain.  ``--delay`` sleeps before each denoiser call
(timeout testing); the function that sleeps is a plain one, so a factor
request then goes through the black-box probe.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from pnpdm.analytic import GaussianPrior
from pnpdm.bridge import serve as serve_frames


def serve(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pnpdm-bridge-helper")
    parser.add_argument("--prior", choices=("echo", "gaussian"), default="echo")
    parser.add_argument("--mean", type=float, default=0.5)
    parser.add_argument("--variance", type=float, default=0.04)
    parser.add_argument("--delay", type=float, default=0.0)
    args = parser.parse_args(argv)

    prior = GaussianPrior(mean=args.mean, variance=args.variance)
    denoise = prior.denoise if args.prior == "gaussian" else lambda image, sigma: image

    def delayed(image, sigma):
        time.sleep(args.delay)
        return denoise(image, sigma)

    return serve_frames(delayed if args.delay > 0 else denoise)


if __name__ == "__main__":
    gc.freeze()  # as pnpdm.cli.entry does: the import-time objects live until exit
    sys.exit(serve())
