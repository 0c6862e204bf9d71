"""The benchmark's timing hooks still resolve against the program.

``bench/probe.py`` wraps pnpdm functions by name; a refactor that renames one
breaks ``--trace 1`` and the ``setup_s`` probe, and one that changes what a
wrapped function returns or how often it runs skews the per-layer numbers.
The probe runs in a subprocess, because installing the hooks patches module
attributes for good.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

from pnpdm.images import write_image

ROOT = Path(__file__).resolve().parents[1]
PROBE = ROOT / "bench" / "probe.py"


def _run(args):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def test_probe_install_wraps_every_hook():
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(PROBE.parent)!r})\n"
        "import probe\n"
        "probe.install(probe.Tracer())\n"
    )
    result = _run(["-c", script])
    assert result.returncode == 0, result.stderr


def test_probe_setup_reaches_first_bridge_round_trip(tmp_path):
    write_image(tmp_path / "lr.pnpi", np.random.default_rng(0).random((16, 16)))
    cfg = tmp_path / "rec.cfg"
    cfg.write_text(
        f"""
[measurement]
factor = 4
sigma_y = 0.03

[prior]
kind = bridge
command = {shlex.quote(sys.executable)} -m pnpdm.bridge_helper --prior gaussian
timeout = 30

[io]
input = {tmp_path / 'lr.pnpi'}
output = {tmp_path / 'rec.pnpi'}
""",
        encoding="utf-8",
    )
    result = _run([str(PROBE), "setup", "--", "--threads", "2", "reconstruct", str(cfg)])
    assert result.returncode == 0, result.stderr
    assert any(line.startswith("ready ") for line in result.stdout.splitlines())


def test_probe_trace_counts_steps_and_samples(tmp_path):
    write_image(tmp_path / "lr.pnpi", np.random.default_rng(1).random((8, 8)))
    cfg = tmp_path / "rec.cfg"
    cfg.write_text(
        f"""
[measurement]
factor = 4
sigma_y = 0.03

[run]
iterations = 5
burn_in = 2
chains = 2

[prior]
kind = gmm

[io]
input = {tmp_path / 'lr.pnpi'}
output = {tmp_path / 'rec.pnpi'}
""",
        encoding="utf-8",
    )
    spans_path = tmp_path / "spans.json"
    result = _run([str(PROBE), "trace", str(spans_path), "--",
                   "--threads", "2", "reconstruct", str(cfg)])
    assert result.returncode == 0, result.stderr
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    names = [span["name"] for span in spans]
    assert names.count("sgs.sgs_step") == 10
    assert names.count("prior_step.prior_refine") == 10
    chains = [span for span in spans if span["name"] == "sgs.run_chain"]
    assert [span["samples"] for span in chains] == [3, 3]
