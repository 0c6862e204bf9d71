"""End-to-end CLI behavior: exit codes, artifacts, logs."""

import os
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pnpdm.cli
import pnpdm.phantom
from pnpdm.cli import EXIT_BRIDGE, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from pnpdm.images import FLOAT_MAGIC, MAX_DIM, read_image, write_image
from pnpdm.sgs import AnnealSchedule, rho_at


def _simulate_config(tmp_path, extra=""):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        f"""
[phantom]
height = 32
width = 32
seed = 3
layer1 = 8,0,0,0.75
layer2 = 20,0,0,0.3

[measurement]
factor = 4
sigma_y = 0.03
seed = 9

[io]
output_dir = {tmp_path / 'out'}
{extra}
""",
        encoding="utf-8",
    )
    return cfg


def test_simulate_writes_artifacts_and_manifest(tmp_path, capsys):
    assert main(["simulate", str(_simulate_config(tmp_path))]) == EXIT_OK
    out = tmp_path / "out"
    clean = read_image(out / "clean.pnpi")
    speckled = read_image(out / "speckled.pnpi")
    lr = read_image(out / "lr.pnpi")
    assert clean.shape == (32, 32) and speckled.shape == (32, 32)
    assert lr.shape == (8, 8)
    manifest = (out / "manifest.txt").read_text(encoding="utf-8")
    assert "factor = 4" in manifest and "phantom_seed = 3" in manifest
    assert "wrote" in capsys.readouterr().out


def test_simulate_deterministic(tmp_path):
    cfg = _simulate_config(tmp_path)
    main(["simulate", str(cfg)])
    first = (tmp_path / "out" / "lr.pnpi").read_bytes()
    main(["simulate", str(cfg)])
    assert (tmp_path / "out" / "lr.pnpi").read_bytes() == first


def test_simulate_config_seed_changes_speckle(tmp_path):
    cfg = _simulate_config(tmp_path)
    main(["simulate", str(cfg)])
    base = (tmp_path / "out" / "speckled.pnpi").read_bytes()
    cfg.write_text(cfg.read_text(encoding="utf-8").replace("seed = 3", "seed = 77"),
                   encoding="utf-8")
    main(["simulate", str(cfg)])
    assert (tmp_path / "out" / "speckled.pnpi").read_bytes() != base


def test_simulate_without_layers_writes_background_only(tmp_path):
    cfg = _simulate_config(tmp_path)
    text = cfg.read_text(encoding="utf-8")
    cfg.write_text(text.replace("layer1 = 8,0,0,0.75\nlayer2 = 20,0,0,0.3\n", ""),
                   encoding="utf-8")
    assert main(["simulate", str(cfg)]) == EXIT_OK
    clean = read_image(tmp_path / "out" / "clean.pnpi")
    assert np.array_equal(clean, np.full((32, 32), np.float32(0.05)))


@pytest.mark.parametrize("command", ["simulate", "reconstruct"])
def test_seed_option_is_usage_error(tmp_path, command):
    """The seed in the config file is the only seed."""
    cfg = (_simulate_config(tmp_path) if command == "simulate"
           else _reconstruct_config(tmp_path, "kind = gaussian"))
    assert main(["--seed", "1", command, str(cfg)]) == EXIT_USAGE


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = _simulate_config(tmp_path, extra="bogus_key = 1\n")
    assert main(["simulate", str(cfg)]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_is_usage_error(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.cfg")]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["simulate", "reconstruct"])
def test_config_not_utf8_is_usage_error(tmp_path, capsys, command):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("# caf\u00e9\n".encode("latin-1"))
    assert main([command, str(cfg)]) == EXIT_USAGE
    assert f"config error: cannot read config {cfg}" in capsys.readouterr().err


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def _reconstruct_config(tmp_path, prior_lines, run_lines="", size=16, log=True):
    rng = np.random.default_rng(0)
    half = size // 2
    hr = np.where(np.arange(size)[:, None] < half, 0.2, 0.7) + 0.0 * np.arange(size)
    lr = hr.reshape(half, 2, half, 2).mean(axis=(1, 3))
    lr = lr + 0.05 * rng.standard_normal(lr.shape)
    write_image(tmp_path / "lr.pnpi", lr)
    cfg = tmp_path / "rec.cfg"
    cfg.write_text(
        f"""
[measurement]
factor = 2
sigma_y = 0.05

[schedule]
rho0 = 1.0
rho_min = 0.2

[sde]
steps = 6
sigma_floor = 0.02

[run]
iterations = 10
burn_in = 4
seed = 1
{run_lines}

[prior]
{prior_lines}

[io]
input = {tmp_path / 'lr.pnpi'}
output = {tmp_path / 'rec.pnpi'}
{f"log = {tmp_path / 'rec.log'}" if log else ""}
""",
        encoding="utf-8",
    )
    return cfg


def test_reconstruct_gaussian_end_to_end(tmp_path):
    cfg = _reconstruct_config(tmp_path, "kind = gaussian\nmean = 0.45\nvariance = 0.09")
    assert main(["reconstruct", str(cfg)]) == EXIT_OK
    rec = read_image(tmp_path / "rec.pnpi")
    assert rec.shape == (16, 16)
    assert rec.min() >= 0.0 and rec.max() <= 1.0
    lines = (tmp_path / "rec.log").read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].startswith("# q")
    assert len(lines) == 11
    schedule = AnnealSchedule(rho0=1.0, rho_min=0.2)
    for q, line in enumerate(lines[1:]):
        fields = line.split("\t")
        assert int(fields[0]) == q
        assert abs(float(fields[1]) - rho_at(schedule, q)) < 1e-9
        float(fields[2])  # data fidelity is numeric


def test_reconstruct_deterministic_and_config_seed_changes_output(tmp_path):
    cfg = _reconstruct_config(tmp_path, "kind = gaussian")
    main(["reconstruct", str(cfg)])
    first = (tmp_path / "rec.pnpi").read_bytes()
    main(["reconstruct", str(cfg)])
    assert (tmp_path / "rec.pnpi").read_bytes() == first
    cfg.write_text(cfg.read_text(encoding="utf-8").replace("seed = 1", "seed = 99"),
                   encoding="utf-8")
    main(["reconstruct", str(cfg)])
    assert (tmp_path / "rec.pnpi").read_bytes() != first


def test_reconstruct_gmm_and_multi_chain(tmp_path):
    cfg = _reconstruct_config(
        tmp_path,
        "kind = gmm\nmeans = 0.2,0.7\nweights = 1,1\nvariances = 0.002,0.002",
        run_lines="chains = 2",
    )
    assert main(["--threads", "2", "reconstruct", str(cfg)]) == EXIT_OK
    assert read_image(tmp_path / "rec.pnpi").shape == (16, 16)


_BRIDGE_HELPER = shlex.join([sys.executable, "-m", "pnpdm.bridge_helper", "--prior",
                             "gaussian", "--mean", "0.45", "--variance", "0.09"])


@pytest.mark.parametrize("prior_lines,chains", [
    (f"kind = bridge\ncommand = {_BRIDGE_HELPER}", 2),
    ("kind = gmm\nmeans = 0.2,0.7\nweights = 1,1\nvariances = 0.002,0.002", 3),
], ids=["bridge", "gmm"])
def test_reconstruct_bridge_multi_chain_threads(tmp_path, prior_lines, chains):
    """Chains sharing one bridge, or one GMM prior, finish under every thread
    count up to the chain count and write the same bytes as the serial run
    (run in a subprocess so a hang fails)."""
    cfg = _reconstruct_config(tmp_path, prior_lines, run_lines=f"chains = {chains}", size=32)
    src = str(Path(pnpdm.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = []
    for threads in range(1, chains + 1):
        subprocess.run([sys.executable, "-m", "pnpdm.cli", "--threads", str(threads),
                        "reconstruct", str(cfg)], env=env, timeout=60, check=True,
                       capture_output=True)
        outputs.append((tmp_path / "rec.pnpi").read_bytes())
    assert all(out == outputs[0] for out in outputs[1:])


def test_reconstruct_log_only_when_requested(tmp_path, monkeypatch):
    """Data fidelity is computed for the log alone: once per iteration of
    chain 0 when io.log is set, never when it is not."""
    calls = []

    def counting_fidelity(model, x):
        calls.append(x.shape)
        return 0.5

    monkeypatch.setattr(pnpdm.cli, "data_fidelity", counting_fidelity)
    prior = "kind = gmm\nmeans = 0.2,0.7\nweights = 1,1\nvariances = 0.002,0.002"
    cfg = _reconstruct_config(tmp_path, prior, run_lines="chains = 2")
    assert main(["--threads", "2", "reconstruct", str(cfg)]) == EXIT_OK
    lines = (tmp_path / "rec.log").read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 11 and len(calls) == 10
    assert [int(line.split("\t")[0]) for line in lines[1:]] == list(range(10))

    calls.clear()
    (tmp_path / "rec.log").unlink()
    cfg = _reconstruct_config(tmp_path, prior, run_lines="chains = 2", log=False)
    assert main(["--threads", "2", "reconstruct", str(cfg)]) == EXIT_OK
    assert calls == [] and not (tmp_path / "rec.log").exists()

    # the log's directory is created, as the output's is
    nested = tmp_path / "newdir" / "sub" / "run.log"
    text = cfg.read_text(encoding="utf-8")
    cfg.write_text(text.replace("[io]", f"[io]\nlog = {nested}"), encoding="utf-8")
    assert main(["reconstruct", str(cfg)]) == EXIT_OK
    assert len(nested.read_text(encoding="utf-8").splitlines()) == 11


@pytest.mark.parametrize("burn_in", [0, 120])
def test_reconstruct_burn_in_alone_collects_100_samples(tmp_path, capsys, burn_in):
    """Without run.iterations a chain runs burn_in + 100 iterations, whatever
    sets burn_in (this schedule reaches rho_min at q = 16)."""
    cfg = _reconstruct_config(tmp_path, "kind = gaussian", size=8, log=False)
    text = cfg.read_text(encoding="utf-8")
    cfg.write_text(text.replace("iterations = 10\nburn_in = 4", f"burn_in = {burn_in}"),
                   encoding="utf-8")
    assert main(["reconstruct", str(cfg)]) == EXIT_OK
    assert "(mean of 100 samples)" in capsys.readouterr().out


def test_reconstruct_samples_dir(tmp_path):
    cfg = _reconstruct_config(tmp_path, "kind = gaussian")
    text = cfg.read_text(encoding="utf-8")
    cfg.write_text(text.replace("[io]", f"[io]\nsamples_dir = {tmp_path / 'samples'}"),
                   encoding="utf-8")
    main(["reconstruct", str(cfg)])
    samples = sorted((tmp_path / "samples").glob("sample_*.pnpi"))
    assert len(samples) == 6  # iterations 10, burn_in 4
    assert read_image(samples[0]).shape == (16, 16)


def _no_chain(*args, **kwargs):
    raise AssertionError("a chain ran")


def _file_parent(path):
    """Make path a file and return a path below it, whose directory cannot be made."""
    path.touch()
    return path / "sub"


@pytest.mark.parametrize("key, make, message", [
    ("output", Path.mkdir, "io.output is a directory"),
    ("log", Path.mkdir, "io.log is a directory"),
    ("samples_dir", Path.touch, "io.samples_dir is not a directory"),
    ("output", _file_parent, "File exists"),
    ("log", _file_parent, "File exists"),
    ("samples_dir", _file_parent, "Not a directory"),
])
def test_reconstruct_unwritable_path_fails_before_any_chain(tmp_path, capsys, monkeypatch,
                                                            key, make, message):
    monkeypatch.setattr(pnpdm.cli, "run_chain", _no_chain)
    cfg = _reconstruct_config(tmp_path, "kind = gaussian", log=False)
    target = tmp_path / "taken"
    path = make(target) or target
    text = cfg.read_text(encoding="utf-8")
    if key == "output":
        text = text.replace(f"output = {tmp_path / 'rec.pnpi'}", f"output = {path}")
    else:
        text = text.replace("[io]", f"[io]\n{key} = {path}")
    cfg.write_text(text, encoding="utf-8")
    assert main(["reconstruct", str(cfg)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert message in err and str(target) in err


def test_reconstruct_too_large_fails_before_any_chain(tmp_path, capsys, monkeypatch):
    """A reconstruction write_image would refuse is refused before the start
    image is allocated."""
    monkeypatch.setattr(pnpdm.cli, "run_chain", _no_chain)
    cfg = _reconstruct_config(tmp_path, "kind = gaussian", log=False)
    write_image(tmp_path / "lr.pnpi", np.full((MAX_DIM // 2 + 1, 1), 0.5))  # factor 2
    assert main(["reconstruct", str(cfg)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "io.output" in err and f"({MAX_DIM + 2}, 2)" in err
    assert not (tmp_path / "rec.pnpi").exists()


@pytest.mark.parametrize("name", ["height", "width"])
def test_simulate_too_large_phantom_fails_before_any_image(tmp_path, capsys, monkeypatch, name):
    """A phantom side write_image would refuse is a config error: no image is
    built and no output directory is made."""
    def no_image(spec):
        raise AssertionError("an image was built")

    monkeypatch.setattr(pnpdm.phantom, "generate_phantom", no_image)
    cfg = _simulate_config(tmp_path)
    text = cfg.read_text(encoding="utf-8")
    sides = {"height": (MAX_DIM + 4, 4), "width": (4, MAX_DIM + 4)}[name]
    cfg.write_text(text.replace("height = 32\nwidth = 32\n",
                                "height = {}\nwidth = {}\n".format(*sides)), encoding="utf-8")
    assert main(["simulate", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error" in err and f"phantom: {name} must be in [1, {MAX_DIM}]" in err
    assert not (tmp_path / "out").exists()


def test_reconstruct_bad_prior_kind(tmp_path, capsys):
    cfg = _reconstruct_config(tmp_path, "kind = wavelet")
    assert main(["reconstruct", str(cfg)]) == EXIT_USAGE


@pytest.mark.parametrize("command,old,new", [
    ("reconstruct", "factor = 2", "factor = 0"),
    ("reconstruct", "sigma_y = 0.05", "sigma_y = 0"),
    ("reconstruct", "rho_min = 0.2", "rho_min = 2.0"),
    ("reconstruct", "steps = 6", "steps = 0"),
    ("reconstruct", "seed = 1", "seed = 1\ninit = adjoint-upsample"),
    ("reconstruct", "sigma_floor = 0.02", "sigma_floor = 0.2"),
    ("simulate", "factor = 4", "factor = 3"),
    ("simulate", "width = 32\nseed = 3\nlayer1 = 8,0,0,0.75\nlayer2 = 20,0,0,0.3",
     "width = 0\nseed = 3"),
    ("reconstruct", "sigma_y = 0.05", "sigma_y = nan"),
    ("reconstruct", "sigma_floor = 0.02", "sigma_floor = nan"),
    ("reconstruct", "steps = 6", "steps = 6\ncurvature = 7"),
    ("reconstruct", "kind = gaussian", "kind = gaussian\nvariance = nan"),
    ("reconstruct", "rho0 = 1.0", "rho0 = inf"),
    ("reconstruct", "kind = gaussian", "kind = gaussian\nvariance = 0"),
    ("reconstruct", "kind = gaussian", "kind = bridge\ncommand = true\ntimeout = 0"),
    ("reconstruct", "kind = gaussian", "kind = bridge\ncommand = true\ntimeout = 1e10"),
    ("reconstruct", "kind = gaussian", "kind = bridge\ncommand = 'unbalanced"),
    ("reconstruct", "kind = gaussian", "kind = gaussian\nmeans = 0.1,0.9"),
    ("simulate", "sigma_y = 0.03", "sigma_y = -0.1"),
    ("simulate", "seed = 3", "seed = -1"),
    ("reconstruct", "seed = 1", "seed = -1"),
    ("reconstruct", "steps = 6", "steps = 6\nstochastic = false"),
    ("reconstruct", "kind = gaussian", "kind = bridge\ncommand = true\nrestart_on_crash = true"),
    ("reconstruct", "kind = gaussian", "kind = bridge\ncommand = true\nrestart_on_crash = false"),
    ("reconstruct", "kind = gaussian", "kind = gmm\nmeans = 0.2,0.7\nweights = 1e308,1e308"),
    ("simulate", "sigma_y = 0.03\nseed = 9", "sigma_y = 0\nseed = -1"),
    ("reconstruct", "kind = gaussian", "kind = bridge"),
    ("reconstruct", "input = ", "# input = "),
    ("reconstruct", "seed = 1", "seed = 1\nchains = 0"),
    ("simulate", "layer1 = 8,0,0,0.75", "layer1 = 8,0,0"),
], ids=["factor", "sigma_y", "rho_min", "steps", "init", "sigma_floor", "simulate-factor",
        "simulate-width", "sigma_y-nan", "sigma_floor-nan", "curvature-7", "variance-nan",
        "rho0-inf", "variance-zero", "bridge-timeout", "bridge-timeout-huge", "bridge-command",
        "key-of-other-kind", "simulate-sigma_y-negative", "simulate-phantom-seed-negative",
        "run-seed-negative", "stochastic-false", "restart_on_crash-true", "restart_on_crash-false",
        "gmm-weight-sum-inf", "simulate-noiseless-seed-negative", "bridge-without-command",
        "no-input", "chains-zero", "layer-of-three"])
def test_bad_config_value_is_usage_error(tmp_path, capsys, command, old, new):
    cfg = (_simulate_config(tmp_path) if command == "simulate"
           else _reconstruct_config(tmp_path, "kind = gaussian"))
    text = cfg.read_text(encoding="utf-8")
    assert text.count(old) == 1
    cfg.write_text(text.replace(old, new), encoding="utf-8")
    assert main([command, str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error" in err
    # every chain starts at the backprojection, every prior step draws x | z
    # on the one sigma grid and nothing restarts a bridge: no key selects
    # another mode
    for key in ("unknown key run.init", "sde.stochastic", "unknown key sde.curvature",
                "unknown key prior.restart_on_crash"):
        if key.split(".")[-1] + " = " in new:
            assert key in err


def test_sde_stochastic_true_changes_no_output_byte(tmp_path):
    cfg = _reconstruct_config(tmp_path, "kind = gaussian", run_lines="chains = 2")
    assert main(["reconstruct", str(cfg)]) == EXIT_OK
    without_key = (tmp_path / "rec.pnpi").read_bytes()
    text = cfg.read_text(encoding="utf-8")
    cfg.write_text(text.replace("steps = 6", "steps = 6\nstochastic = true"), encoding="utf-8")
    assert main(["reconstruct", str(cfg)]) == EXIT_OK
    assert (tmp_path / "rec.pnpi").read_bytes() == without_key


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_usage_error(tmp_path, capsys, threads):
    cfg = _reconstruct_config(tmp_path, "kind = gaussian", run_lines="chains = 2")
    assert main(["--threads", threads, "reconstruct", str(cfg)]) == EXIT_USAGE
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "rec.pnpi").exists()


def test_reconstruct_non_finite_input_is_runtime_error(tmp_path, capsys):
    cfg = _reconstruct_config(tmp_path, "kind = gaussian")
    lr = read_image(tmp_path / "lr.pnpi")
    lr[3, 2] = np.nan  # write_image refuses it, so the file is made by hand
    (tmp_path / "lr.pnpi").write_bytes(struct.pack("<4sIII", FLOAT_MAGIC, *lr.shape, 0)
                                       + lr.astype("<f4").tobytes())
    assert main(["reconstruct", str(cfg)]) == EXIT_RUNTIME
    assert "non-finite pixel" in capsys.readouterr().err
    assert not (tmp_path / "rec.pnpi").exists()

    (tmp_path / "lr.pnpi").write_bytes(b"P5\n8 8\n255\n" + bytes(64))  # 8-bit graymap
    assert main(["reconstruct", str(cfg)]) == EXIT_RUNTIME
    assert "unrecognized magic bytes (byte offset 0)" in capsys.readouterr().err
    assert not (tmp_path / "rec.pnpi").exists()


def test_reconstruct_bridge_failure_exit_code(tmp_path):
    cfg = _reconstruct_config(tmp_path, "kind = bridge\ncommand = false")
    assert main(["reconstruct", str(cfg)]) == EXIT_BRIDGE


def test_reconstruct_bridge_command_that_cannot_start_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing-denoiser"
    cfg = _reconstruct_config(tmp_path, f"kind = bridge\ncommand = {missing}")
    assert main(["reconstruct", str(cfg)]) == EXIT_BRIDGE
    assert "bridge error" in capsys.readouterr().err


def test_reconstruct_bridge_non_finite_reply_exit_code(tmp_path, capsys):
    """A NaN the server writes into the shared region is a bridge error, and
    the bridge still closes while that error's traceback holds a view of the
    region."""
    script = ("import mmap, os, struct, sys; import numpy as np; "
              "from pnpdm.bridge import read_frame; "
              "_, shape, sigma, _ = read_frame(sys.stdin.buffer); "
              "region = mmap.mmap(int(os.environ['PNPD_SHM_FD']), 0); "
              "np.frombuffer(region, '<f8')[0] = float('nan'); "
              "os.write(1, b'PNPD' + struct.pack('<5I', 2, *shape, 1, 1)); "
              "sys.stdin.buffer.read()")
    cfg = _reconstruct_config(tmp_path, "kind = bridge\ncommand = "
                              + shlex.join([sys.executable, "-c", script]))
    assert main(["reconstruct", str(cfg)]) == EXIT_BRIDGE
    assert "non-finite pixel in the reply" in capsys.readouterr().err


def test_reconstruct_bridge_server_that_never_reads_times_out(tmp_path):
    """A server that never reads stdin never replies; the timeout bounds the
    reply read, so the run ends with a bridge error."""
    never_reads = shlex.join([sys.executable, "-c", "import time; time.sleep(60)"])
    cfg = _reconstruct_config(tmp_path, f"kind = bridge\ncommand = {never_reads}\ntimeout = 1",
                              size=128)
    cfg.write_text(cfg.read_text(encoding="utf-8").replace("factor = 2", "factor = 4"),
                   encoding="utf-8")
    src = str(Path(pnpdm.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # in a subprocess, so that a hang fails the test
    proc = subprocess.run([sys.executable, "-m", "pnpdm.cli", "reconstruct", str(cfg)], env=env,
                          timeout=60, capture_output=True, text=True)
    assert proc.returncode == EXIT_BRIDGE
    assert "bridge error" in proc.stderr and "no response within 1" in proc.stderr


def test_evaluate_table_and_missing_file(tmp_path, capsys):
    rng = np.random.default_rng(1)
    ref = rng.random((16, 16))
    write_image(tmp_path / "ref.pnpi", ref)
    write_image(tmp_path / "a.pnpi", np.clip(ref + 0.05, 0, 1))
    assert main(["evaluate", str(tmp_path / "ref.pnpi"), str(tmp_path / "a.pnpi")]) \
        == EXIT_OK
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()
    assert "PSNR" in header and "SSIM" in header and "LPIPS" in header
    assert "n/a" in row
    assert main(["evaluate", str(tmp_path / "ref.pnpi"),
                 str(tmp_path / "missing.pnpi")]) == EXIT_RUNTIME
    (tmp_path / "b.pgm").write_bytes(b"P5\n16 16\n255\n" + bytes(256))  # 8-bit graymap
    capsys.readouterr()
    assert main(["evaluate", str(tmp_path / "ref.pnpi"), str(tmp_path / "b.pgm")]) \
        == EXIT_RUNTIME
    assert "error: unrecognized magic bytes" in capsys.readouterr().out.splitlines()[1]
